"""Shadow scoring: observe a candidate monitor on live traffic, serve nothing.

Promoting a refit monitor on faith is how a lifecycle breaks a deployment:
the candidate was fitted offline, and the only evidence that matters is how
it behaves on the *live* distribution.  A :class:`ShadowScorer` wraps the
candidate and registers next to the live members: every live micro-batch is
scored through the same shared
:class:`~repro.runtime.engine.BatchScoringEngine` pass (the wrapper
delegates ``network``/``warn_batch_from_layer``, so the engine slices it the
cached activations like any other member), but its verdicts are diverted
into a :class:`ShadowLedger` — a per-frame confusion against the live
monitor it trails — and stripped from served results.  A shadow candidate is
*observed*, never served.

The ledger turns observation into a promotion/rollback signal: once at least
``min_frames`` frames have been compared, a disagreement rate above
``disagreement_budget`` fires ``on_breach`` exactly once.  The lifecycle
manager wires that callback to automatic rollback.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["ShadowLedger", "ShadowScorer"]


class ShadowLedger:
    """Running confusion of a shadow candidate against its live monitor.

    Thread-safe (the scorer worker thread records while control threads
    snapshot).  Counts the 2x2 confusion per *frame*:

    * ``both_warn`` / ``both_accept`` — agreement;
    * ``shadow_only`` — the candidate warned where live accepted (the
      candidate is stricter there);
    * ``live_only`` — the candidate accepted where live warned (coverage the
      candidate would lose).

    Disagreement events (frame index + direction) are kept in a bounded
    window so a long-running shadow reports *recent* behaviour without
    unbounded growth.
    """

    def __init__(
        self,
        disagreement_budget: Optional[float] = None,
        min_frames: int = 64,
        on_breach: Optional[Callable[["ShadowLedger"], None]] = None,
        event_window: int = 256,
    ) -> None:
        if disagreement_budget is not None and not 0.0 <= disagreement_budget <= 1.0:
            raise ConfigurationError(
                "disagreement_budget must be a rate in [0, 1]"
            )
        if min_frames < 1:
            raise ConfigurationError("min_frames must be at least 1")
        self.disagreement_budget = disagreement_budget
        self.min_frames = int(min_frames)
        self.on_breach = on_breach
        self._lock = threading.Lock()
        self.both_warn = 0
        self.both_accept = 0
        self.shadow_only = 0
        self.live_only = 0
        #: Frames observed without a live counterpart (live monitor retired
        #: mid-shadow); counted but never compared.
        self.unpaired = 0
        self.breached = False
        self._events: "deque[Dict[str, object]]" = deque(maxlen=int(event_window))

    # ------------------------------------------------------------------
    @property
    def frames(self) -> int:
        """Frames with a live counterpart (the comparison population)."""
        return self.both_warn + self.both_accept + self.shadow_only + self.live_only

    @property
    def disagreements(self) -> int:
        return self.shadow_only + self.live_only

    def disagreement_rate(self) -> float:
        """Fraction of compared frames where candidate and live disagreed."""
        with self._lock:
            frames = self.frames
            return self.disagreements / frames if frames else 0.0

    def observe(
        self, shadow_warns: np.ndarray, live_warns: Optional[np.ndarray]
    ) -> None:
        """Record one scored micro-batch of paired warn vectors."""
        shadow_warns = np.asarray(shadow_warns, dtype=bool)
        breach_callback = None
        with self._lock:
            if live_warns is None:
                self.unpaired += int(shadow_warns.size)
            else:
                live_warns = np.asarray(live_warns, dtype=bool)
                self.both_warn += int(np.sum(shadow_warns & live_warns))
                self.both_accept += int(np.sum(~shadow_warns & ~live_warns))
                shadow_only = shadow_warns & ~live_warns
                live_only = ~shadow_warns & live_warns
                self.shadow_only += int(np.sum(shadow_only))
                self.live_only += int(np.sum(live_only))
                for row in np.flatnonzero(shadow_only | live_only):
                    self._events.append(
                        {
                            "time": time.time(),
                            "direction": (
                                "shadow_only" if shadow_only[row] else "live_only"
                            ),
                        }
                    )
            if (
                not self.breached
                and self.disagreement_budget is not None
                and self.frames >= self.min_frames
                and self.disagreements > self.disagreement_budget * self.frames
            ):
                self.breached = True
                breach_callback = self.on_breach
        # The callback runs outside the lock: a breach handler that rolls the
        # lifecycle back re-enters scorer/registry code and must not deadlock
        # against a concurrent snapshot() of this ledger.
        if breach_callback is not None:
            breach_callback(self)

    def snapshot(self) -> Dict[str, object]:
        """Consistent copy of the confusion, rates and recent disagreements."""
        with self._lock:
            frames = self.frames
            return {
                "frames": frames,
                "unpaired": self.unpaired,
                "both_warn": self.both_warn,
                "both_accept": self.both_accept,
                "shadow_only": self.shadow_only,
                "live_only": self.live_only,
                "disagreements": self.disagreements,
                "disagreement_rate": (
                    self.disagreements / frames if frames else 0.0
                ),
                "disagreement_budget": self.disagreement_budget,
                "min_frames": self.min_frames,
                "breached": self.breached,
                "recent_disagreements": [dict(event) for event in self._events],
            }


class ShadowScorer:
    """Scoreable wrapper running ``candidate`` in shadow of a live monitor.

    Registered in a :class:`~repro.monitors.registry.MonitorRegistry` under
    its own name, the wrapper delegates the whole batched scoring contract
    to the candidate — including ``warn_batch_from_layer``, so the engine
    feeds it the *same* cached layer activations as the live members (one
    extra matcher pass per micro-batch, zero extra forward passes).  The
    streaming scorer detects the ``is_shadow`` marker, feeds the paired warn
    vectors to :meth:`observe` and strips the shadow's verdicts from served
    results.
    """

    is_shadow = True

    def __init__(
        self,
        name: str,
        candidate,
        live_name: str,
        disagreement_budget: Optional[float] = None,
        min_frames: int = 64,
        on_breach: Optional[Callable[[ShadowLedger], None]] = None,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ConfigurationError("shadow name must be a non-empty string")
        if not isinstance(live_name, str) or not live_name:
            raise ConfigurationError("live_name must be a non-empty string")
        if name == live_name:
            raise ConfigurationError(
                "a shadow cannot trail itself; use a distinct shadow name"
            )
        if not callable(getattr(candidate, "warn_batch", None)):
            raise ConfigurationError(
                "shadow candidate does not implement the batched API (warn_batch)"
            )
        self.name = name
        self.candidate = candidate
        self.live_name = live_name
        self.ledger = ShadowLedger(
            disagreement_budget=disagreement_budget,
            min_frames=min_frames,
            on_breach=on_breach,
        )

    # ------------------------------------------------------------------
    # scoring contract (delegated so the engine shares its forward pass)
    # ------------------------------------------------------------------
    @property
    def network(self):
        return getattr(self.candidate, "network", None)

    @property
    def layer_index(self):
        return self.candidate.layer_index

    @property
    def is_fitted(self) -> bool:
        return bool(getattr(self.candidate, "is_fitted", False))

    def warn_batch(self, inputs):
        return self.candidate.warn_batch(inputs)

    def warn_batch_from_layer(self, activations):
        return self.candidate.warn_batch_from_layer(activations)

    def verdict_batch_from_layer(self, activations):
        return self.candidate.verdict_batch_from_layer(activations)

    def verdict_batch(self, inputs):
        return self.candidate.verdict_batch(inputs)

    # ------------------------------------------------------------------
    def observe(
        self, shadow_warns: np.ndarray, live_warns: Optional[np.ndarray]
    ) -> None:
        """Feed one micro-batch of (candidate, live) warn vectors to the ledger."""
        self.ledger.observe(shadow_warns, live_warns)

    def describe(self) -> Dict[str, object]:
        return {
            "shadow_of": self.live_name,
            "candidate_class": type(self.candidate).__name__,
            "ledger": self.ledger.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShadowScorer(name={self.name!r}, live={self.live_name!r}, "
            f"frames={self.ledger.frames})"
        )
