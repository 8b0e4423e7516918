"""Registration surface for hosting several monitors over one network.

A serving deployment typically runs a *set* of monitors next to one frozen
network — a standard and a robust variant, one monitor per layer, a
class-conditional dispatcher — and needs to add or retire members without
restarting the scorer.  :class:`MonitorRegistry` is that surface: a named,
validated, thread-safe collection of scoreable monitors over one host
network.

Validation happens at registration time, where a configuration mistake is
cheap to report, instead of at scoring time, where it would fail a whole
micro-batch of in-flight frames:

* every member must already be fitted (a serving registry never sees
  training data);
* every member must expose the batched API contract (``warn_batch``);
* a member built on a *different* network than the host is legal — the
  scoring engine falls back to the member's own forward pass — but must be
  declared with ``allow_foreign=True`` so that a mixed-network deployment
  is an explicit decision, not a silent performance bug;
* names are unique, non-empty strings.

The registry hands out immutable snapshots (:meth:`snapshot`) so a scoring
thread iterates a consistent member set even while another thread registers
or unregisters monitors mid-stream.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError, NotFittedError
from ..nn.network import Sequential
from .fingerprint import monitor_fingerprint

__all__ = ["MonitorRegistry"]


class MonitorRegistry:
    """Named, validated collection of fitted monitors over a host network."""

    def __init__(self, network: Sequential) -> None:
        self.network = network
        self._lock = threading.Lock()
        self._monitors: Dict[str, object] = {}
        #: Lifecycle version per entry (``None`` for unmanaged monitors);
        #: maintained by register/replace so describe() can attribute
        #: verdicts to an artefact-store version.
        self._versions: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_scoreable(name: str, monitor: object) -> None:
        if not isinstance(name, str) or not name:
            raise ConfigurationError("monitor name must be a non-empty string")
        if not callable(getattr(monitor, "warn_batch", None)):
            raise ConfigurationError(
                f"monitor '{name}' does not implement the batched API "
                "(warn_batch); wrap it or use an ActivationMonitor subclass"
            )
        fitted = getattr(monitor, "is_fitted", None)
        if fitted is None:
            raise ConfigurationError(
                f"monitor '{name}' does not report is_fitted; only fitted "
                "monitors can be registered for serving"
            )
        if not fitted:
            raise NotFittedError(
                f"monitor '{name}' must be fitted before registration"
            )

    def register(
        self,
        name: str,
        monitor: object,
        allow_foreign: bool = False,
        version: Optional[int] = None,
    ) -> None:
        """Add a fitted monitor under ``name``.

        ``allow_foreign`` acknowledges that ``monitor`` is built on a
        different network than the registry's host and will therefore pay
        its own forward passes instead of sharing the host's cached ones.
        ``version`` optionally records the lifecycle (artefact-store)
        version the entry serves, surfaced by :meth:`describe`.
        """
        self._validate_scoreable(name, monitor)
        member_network = getattr(monitor, "network", None)
        if (
            member_network is not None
            and member_network is not self.network
            and not allow_foreign
        ):
            raise ConfigurationError(
                f"monitor '{name}' is built on a different network than the "
                "registry's host; pass allow_foreign=True to register it "
                "anyway (it will not share the host's cached forward passes)"
            )
        with self._lock:
            if name in self._monitors:
                raise ConfigurationError(
                    f"a monitor named '{name}' is already registered"
                )
            self._monitors[name] = monitor
            self._versions[name] = None if version is None else int(version)

    def unregister(self, name: str) -> object:
        """Remove and return the monitor registered under ``name``."""
        with self._lock:
            try:
                monitor = self._monitors.pop(name)
            except KeyError as exc:
                raise ConfigurationError(
                    f"no monitor named '{name}' is registered"
                ) from exc
            self._versions.pop(name, None)
            return monitor

    def replace(
        self, name: str, monitor: object, version: Optional[int] = None
    ) -> object:
        """Atomically swap the monitor registered under ``name``.

        The swap happens under the registry lock, so every
        :meth:`snapshot` observes either the old or the new member — never
        a gap or a mixture.  Combined with the streaming scorer's FIFO
        micro-batching this is what makes a lifecycle promotion atomic:
        each micro-batch scores entirely against one snapshot, and the
        old→new boundary is monotone in submission order.  Returns the
        replaced monitor.
        """
        self._validate_scoreable(name, monitor)
        member_network = getattr(monitor, "network", None)
        if member_network is not None and member_network is not self.network:
            raise ConfigurationError(
                f"replacement monitor '{name}' is built on a different "
                "network than the registry's host"
            )
        with self._lock:
            if name not in self._monitors:
                raise ConfigurationError(
                    f"no monitor named '{name}' is registered"
                )
            old = self._monitors[name]
            self._monitors[name] = monitor
            self._versions[name] = None if version is None else int(version)
            return old

    def version(self, name: str) -> Optional[int]:
        """Lifecycle version of an entry (``None`` when unmanaged)."""
        with self._lock:
            return self._versions.get(name)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._monitors.get(name)

    def snapshot(self) -> Mapping[str, object]:
        """Immutable point-in-time view of the registered monitors.

        The returned mapping is safe to iterate from a scoring thread while
        other threads mutate the registry; it reflects the membership at
        call time.
        """
        with self._lock:
            return dict(self._monitors)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._monitors)

    def __len__(self) -> int:
        with self._lock:
            return len(self._monitors)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._monitors

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def describe(self) -> Dict[str, object]:
        """Identity-bearing description of every entry.

        Each entry carries a stable content fingerprint and its lifecycle
        version (when managed), so STATS frames and ``ServiceStats``
        snapshots can attribute served verdicts to one monitor state —
        "robust warned" becomes "robust@v3 (fingerprint abc…) warned".
        """
        with self._lock:
            snapshot = dict(self._monitors)
            versions = dict(self._versions)
        monitors: Dict[str, object] = {}
        for name, monitor in snapshot.items():
            entry: Dict[str, object] = {
                "class": type(monitor).__name__,
                "fingerprint": monitor_fingerprint(monitor),
                "version": versions.get(name),
            }
            if callable(getattr(monitor, "describe", None)):
                entry["detail"] = monitor.describe()
            monitors[name] = entry
        return {"num_monitors": len(snapshot), "monitors": monitors}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonitorRegistry(names={list(self.names())})"
