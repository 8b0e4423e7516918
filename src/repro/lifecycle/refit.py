"""Incremental refit: extend a monitor from streamed nominal frames.

The paper's abstractions are built by folding training samples in one at a
time (the ``⊎`` operator) — which means a deployed monitor can keep
absorbing the nominal distribution it actually sees, instead of being
frozen at its offline training set.  The lifecycle discipline here:

* **never mutate the live monitor in place** — an in-flight micro-batch
  must not observe a half-extended pattern set.  :func:`incremental_refit`
  clones the monitor through a format-2 save→load round-trip and folds the
  new frames into the *clone*;
* the clone path keeps refit cheap: a format-2 load restores the packed
  mirror, and ``update()`` extends the mirror only (a pattern set builds
  its BDD only on demand) — refitting a deployed monitor never pays a BDD
  build (pinned by the ``_ensure_bdd``-spy test in ``tests/lifecycle``);
* the result is **bit-identical** to a from-scratch fit on the concatenated
  nominal set whenever the codec parameters are pinned (explicit
  ``thresholds``/``cut_points``), because ``fit`` on N+M samples and
  ``fit`` on N followed by ``update`` on M insert the same multiset of
  patterns (pinned per family by the refit equivalence test).

:class:`RefitAccumulator` is the collection half: it buffers frames the
live monitor *accepted* (warned-on frames are exactly what a nominal refit
must not absorb) until enough accumulate to justify a new version.
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import LifecycleStateError
from ..monitors.serialization import load_monitor, save_monitor
from .store import MonitorStore

__all__ = ["RefitAccumulator", "clone_monitor", "incremental_refit", "refit_monitor"]


def clone_monitor(monitor, network=None, matcher_backend=None):
    """Deep-copy a fitted monitor via a format-2 save→load round-trip.

    The round-trip is the cheapest correct clone: it shares no mutable
    state with the original (the mirror arrays are rebuilt from the
    archive) and the restored pattern set carries a *deferred* BDD, so
    subsequent ``update()`` calls stay on the packed mirror.  ``network``
    defaults to the monitor's own (clones share the frozen network —
    weights are never duplicated).
    """
    if network is None:
        network = monitor.network
    with tempfile.TemporaryDirectory(prefix="repro-refit-") as tmp:
        path = save_monitor(monitor, Path(tmp) / "clone.npz", format=2)
        return load_monitor(path, network, matcher_backend=matcher_backend)


def incremental_refit(monitor, frames: np.ndarray, network=None, matcher_backend=None):
    """Return a *new* monitor: ``monitor`` extended with nominal ``frames``.

    The input monitor is untouched (it may be live in a registry snapshot
    right now); the clone absorbs the frames through the family's
    ``update()`` operator and is returned ready to stage or promote.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[0] == 0:
        raise LifecycleStateError(
            "incremental refit needs at least one nominal frame"
        )
    if not callable(getattr(monitor, "update", None)):
        raise LifecycleStateError(
            f"monitor class {type(monitor).__name__} does not support "
            "incremental update()"
        )
    clone = clone_monitor(monitor, network=network,
                          matcher_backend=matcher_backend)
    clone.update(frames)
    return clone


def refit_monitor(
    store: MonitorStore,
    name: str,
    monitor,
    frames: np.ndarray,
    network=None,
    matcher_backend=None,
    metadata: Optional[Dict[str, object]] = None,
) -> Tuple[object, int]:
    """Refit ``monitor`` with ``frames`` and archive the result in ``store``.

    Returns ``(refit_monitor, version)``: the new monitor plus the store
    version it was archived as — ready for ``LifecycleManager.stage``.
    """
    refit = incremental_refit(
        monitor, frames, network=network, matcher_backend=matcher_backend
    )
    detail = {"refit_frames": int(np.atleast_2d(frames).shape[0])}
    if metadata:
        detail.update(metadata)
    version = store.put(name, refit, metadata=detail)
    return refit, version


class RefitAccumulator:
    """Bounded buffer of accepted nominal frames awaiting the next refit.

    Thread-safe: producers (or a future done-callback on the serving path)
    call :meth:`offer` with each frame and its live verdict; a control
    thread polls :meth:`ready` and drains with :meth:`take`.  Warned-on
    frames are rejected — absorbing them would teach the monitor that its
    own alarms are nominal.  ``capacity`` bounds memory; once full, further
    offers are dropped (counted) rather than blocking the scoring path.
    """

    def __init__(self, min_frames: int = 256, capacity: int = 65536) -> None:
        if min_frames < 1:
            raise LifecycleStateError("min_frames must be at least 1")
        if capacity < min_frames:
            raise LifecycleStateError("capacity must be at least min_frames")
        self.min_frames = int(min_frames)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._frames: List[np.ndarray] = []
        self.accepted = 0
        self.rejected_warned = 0
        self.dropped_full = 0

    def offer(self, frame: np.ndarray, warned: bool) -> bool:
        """Submit one frame with its live verdict; True when buffered."""
        if warned:
            with self._lock:
                self.rejected_warned += 1
            return False
        frame = np.array(frame, dtype=np.float64, copy=True).ravel()
        with self._lock:
            if len(self._frames) >= self.capacity:
                self.dropped_full += 1
                return False
            self._frames.append(frame)
            self.accepted += 1
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)

    def ready(self) -> bool:
        """True once at least ``min_frames`` nominal frames are buffered."""
        with self._lock:
            return len(self._frames) >= self.min_frames

    def take(self) -> np.ndarray:
        """Drain the buffer as one ``(N, d)`` refit batch."""
        with self._lock:
            if not self._frames:
                raise LifecycleStateError(
                    "no accumulated frames to refit from"
                )
            frames = self._frames
            self._frames = []
        return np.vstack(frames)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "buffered": len(self._frames),
                "accepted": self.accepted,
                "rejected_warned": self.rejected_warned,
                "dropped_full": self.dropped_full,
                "min_frames": self.min_frames,
            }
