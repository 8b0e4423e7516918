"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the reproduction with a single ``except``
clause while still being able to distinguish configuration problems from
runtime/shape problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when an object is constructed with inconsistent parameters.

    Examples include a monitor configured with a perturbation layer that is
    not strictly before the monitored layer, an unknown bound-propagation
    back-end name, or interval thresholds that are not strictly increasing.
    Also a ``ValueError`` so that callers validating plain string/number
    arguments (e.g. a propagation back-end name) can use the idiomatic
    ``except ValueError``.
    """


class ShapeError(ReproError):
    """Raised when an array has a shape incompatible with the operation."""


class LayerIndexError(ReproError):
    """Raised when a layer index is outside the valid range of a network."""


class NotFittedError(ReproError):
    """Raised when a monitor or model is used before it has been fitted."""


class PropagationError(ReproError):
    """Raised when symbolic bound propagation fails or is unsupported."""


class SerializationError(ReproError):
    """Raised when saving or loading an object fails."""


class DataError(ReproError):
    """Raised when a dataset is malformed or a generator is misconfigured."""


class LifecycleStateError(ConfigurationError):
    """Raised on an invalid monitor-lifecycle operation.

    Covers illegal state transitions (promoting a monitor that was never
    staged, retiring twice), unknown artefact-store versions, and lifecycle
    control operations against a front-end that cannot support them (e.g.
    attaching a shadow to a worker pool, whose members live in other
    processes).
    """


class ServiceClosedError(ReproError):
    """Raised when a frame is submitted to a closed streaming scorer."""


class ServiceOverloadedError(ReproError):
    """Raised when a streaming scorer's pending queue is at capacity.

    Producers hitting this should shed load or retry after a backoff; the
    queue bound exists so that a stalled scoring thread surfaces as an error
    at the submission site instead of as unbounded memory growth.
    """


class ProtocolError(ReproError):
    """Raised when a wire frame of the scoring protocol is malformed.

    Covers bad magic bytes, unsupported protocol versions, unknown frame
    types, truncated/garbled payload encodings, and payloads that exceed the
    negotiated size bound.  A peer that raises this must treat the byte
    stream as unsynchronised and close the connection — after a framing
    error there is no way to find the start of the next frame.
    """


class RemoteScoringError(ReproError):
    """Raised when a remote scoring request fails server-side or in transit.

    The client raises it for transport failures (connection lost mid-
    request) and for server ``internal`` error frames; more specific typed
    error frames surface as their local exception classes
    (:class:`ServiceOverloadedError`, :class:`ServiceClosedError`,
    :class:`ShapeError`, :class:`ProtocolError`).
    """


class WorkerCrashError(RemoteScoringError):
    """Raised when a scoring worker process died and its work was lost.

    The pool re-sends the batches a crashed worker held, so under normal
    operation a crash is invisible to producers; this error surfaces only
    when the restart budget is exhausted and accepted frames can no longer
    be scored.
    """
