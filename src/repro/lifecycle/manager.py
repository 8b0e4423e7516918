"""Lifecycle state machine: shadow → candidate → live → retired.

:class:`LifecycleManager` ties the lifecycle pieces together over one
serving front-end: the :class:`~repro.lifecycle.store.MonitorStore` holds
every version durably, the front-end serves exactly one live version per
name, and every transition is an explicit, validated state change:

* ``deploy``   — first go-live of a name (version archived, registered,
  live pointer set);
* ``stage``    — archive a candidate version and (on an in-process scorer)
  attach it as a :class:`~repro.lifecycle.shadow.ShadowScorer` trailing the
  live monitor: state **shadow**;
* ``clear``    — a shadowed candidate whose ledger passed the disagreement
  guard becomes a **candidate** (``promote`` does this implicitly);
* ``promote``  — atomic swap: the front-end is quiesced (every frame
  submitted before the promotion resolves against the old version), then
  the front-end swaps — each micro-batch scores entirely against old or
  new, with a monotone boundary in submission order (pinned by the
  hypothesis interleaving test).  Old live version: **retired**;
* ``rollback`` — move the live pointer back to an earlier stored version
  and swap it in the same way.  Never deletes anything;
* a shadowed candidate whose disagreement rate breaches its budget is
  **retired automatically** (never served); a post-promotion watch
  (``promote(watch_budget=...)``) keeps the *old* version scoring in shadow
  of the new live and rolls back automatically when the new live diverges
  beyond the budget on real traffic.

Both front-ends share the :class:`~repro.service.streaming.FrontEnd` core,
and every transition is one call sequence on either: ``deploy`` for a
first go-live, and ``quiesce`` then ``swap`` for promote and rollback.  An
in-process :class:`~repro.service.StreamingScorer` swaps its registry
entry; a :class:`~repro.serving.pool.WorkerPool` swaps the bundle artefact
inside :meth:`~repro.serving.pool.WorkerPool.reload_workers` (pause, drain,
swap, bump the generation), so a batch dispatched before the promotion —
even one re-sent after a worker crash — scores the old version.  Shadow
scoring needs the in-process scorer (``shadow_scoring``): a pool's members
live in other processes and cannot share the engine pass.
"""

from __future__ import annotations

import numbers
import threading
from typing import Dict, Optional

import numpy as np

from ..exceptions import ConfigurationError, LifecycleStateError
from .refit import incremental_refit
from .store import MonitorStore

__all__ = [
    "LifecycleManager",
    "STATE_SHADOW",
    "STATE_CANDIDATE",
    "STATE_LIVE",
    "STATE_RETIRED",
]

STATE_SHADOW = "shadow"
STATE_CANDIDATE = "candidate"
STATE_LIVE = "live"
STATE_RETIRED = "retired"


class _Staged:
    """One staged (not yet live) version of a managed name."""

    __slots__ = ("version", "monitor", "shadow_name", "state")

    def __init__(self, version, monitor, shadow_name, state):
        self.version = version
        self.monitor = monitor
        self.shadow_name = shadow_name
        self.state = state


class LifecycleManager:
    """Versioned promote/rollback control over one serving front-end.

    Parameters
    ----------
    scorer:
        The front-end: a :class:`~repro.service.StreamingScorer` (full
        machine) or :class:`~repro.serving.pool.WorkerPool`
        (deploy/promote/rollback only).
    store:
        The :class:`MonitorStore` (or a directory path to open one in).
    network:
        Host network for loading stored versions; defaults to the scorer's
        (required for a pool front-end only when loading monitors locally).
    """

    def __init__(self, scorer, store, network=None) -> None:
        self.scorer = scorer
        self.store = store if isinstance(store, MonitorStore) else MonitorStore(store)
        self.network = network if network is not None else getattr(
            scorer, "network", None
        )
        # RLock: a shadow-breach callback fires on the scorer's worker
        # thread and re-enters rollback()/retire paths while a control
        # thread may be reading status().
        self._lock = threading.RLock()
        #: name -> version -> lifecycle state (the full history this
        #: manager has driven; the store holds the durable part).
        self._states: Dict[str, Dict[int, str]] = {}
        self._staged: Dict[str, _Staged] = {}
        #: name -> shadow name of the post-promotion watch (old version
        #: trailing the new live for automatic rollback).
        self._watches: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # front-end calls
    # ------------------------------------------------------------------
    def _require_shadow_capable(self, operation: str) -> None:
        if not self.scorer.shadow_scoring:
            raise LifecycleStateError(
                f"{operation} needs shadow scoring, which requires an "
                "in-process streaming scorer; a worker pool's members live "
                "in other processes and cannot share the engine pass "
                "(stage with shadow=False instead)"
            )

    def _swap_live(self, name: str, monitor, version: int, timeout: float, quiesce: bool) -> None:
        """Make ``version`` the served state of ``name`` on the front-end."""
        if quiesce:
            # Promotion barrier: every frame submitted before this point
            # resolves against the old version before the swap happens
            # (best effort past ``timeout``: an overloaded front-end whose
            # backlog outlasts it is still swapped).
            self.scorer.quiesce(timeout=timeout)
        self.scorer.swap(
            name, monitor, version=version, timeout=timeout, artifact=self.store.path(name, version)
        )

    def _set_state(self, name: str, version: int, state: str) -> None:
        self._states.setdefault(name, {})[int(version)] = state

    def _record_event(self, kind: str, name: str, **detail) -> None:
        self.scorer.stats.record_event(kind, name, **detail)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def deploy(self, name: str, monitor=None, version: Optional[int] = None, metadata=None) -> int:
        """First go-live of ``name``; returns the live version.

        Either archives ``monitor`` as a new version or promotes an
        existing stored ``version``.  On an in-process scorer the monitor
        is registered; on a pool the bundle is expected to already serve it
        (the pool boots whole bundles, it cannot grow names mid-flight).
        """
        with self._lock:
            already_live = (
                name in self.store.names()
                and self.store.live_version(name) is not None
            )
            if already_live:
                raise LifecycleStateError(
                    f"monitor '{name}' is already deployed "
                    f"(live v{self.store.live_version(name)}); use stage/promote"
                )
            if monitor is not None:
                version = self.store.put(name, monitor, metadata=metadata)
            elif version is None:
                version = self.store.latest(name)
            else:
                self.store.fingerprint(name, version)  # validates existence
            if monitor is None:
                monitor = self.store.load(name, version, self.network)
            self.scorer.deploy(name, monitor, version=version)
            self.store.set_live(name, version)
            self._set_state(name, version, STATE_LIVE)
            self._record_event("deploy", name, version=version)
            return int(version)

    def stage(
        self,
        name: str,
        candidate=None,
        version: Optional[int] = None,
        shadow: bool = True,
        disagreement_budget: Optional[float] = None,
        min_frames: int = 64,
        metadata=None,
    ) -> int:
        """Archive a candidate version of ``name``; returns its version.

        With ``shadow=True`` (in-process front-ends) the candidate scores
        every live micro-batch in shadow, accumulating an agreement ledger
        against the live monitor; a breach of ``disagreement_budget``
        retires it automatically before it is ever served.  With
        ``shadow=False`` it is staged as a plain candidate.
        """
        with self._lock:
            live = self.store.live_version(name) if name in self.store.names() else None
            if live is None:
                raise LifecycleStateError(
                    f"monitor '{name}' has no live version; deploy() first"
                )
            if name in self._staged:
                raise LifecycleStateError(
                    f"monitor '{name}' already has staged version "
                    f"v{self._staged[name].version}; promote or discard it first"
                )
            if candidate is not None:
                version = self.store.put(name, candidate, metadata=metadata)
            elif version is None:
                raise LifecycleStateError(
                    "stage() needs a candidate monitor or a stored version"
                )
            else:
                self.store.fingerprint(name, version)  # validates existence
                candidate = self.store.load(name, version, self.network)
            if shadow:
                self._require_shadow_capable(f"staging '{name}' with shadow scoring")
                shadow_name = f"{name}@shadow-v{version}"
                self.scorer.attach_shadow(
                    shadow_name,
                    candidate,
                    name,
                    disagreement_budget=disagreement_budget,
                    min_frames=min_frames,
                    on_breach=self._breach_handler(name, int(version)),
                )
                state = STATE_SHADOW
            else:
                shadow_name = None
                state = STATE_CANDIDATE
            self._staged[name] = _Staged(int(version), candidate, shadow_name, state)
            self._set_state(name, version, state)
            self._record_event("stage", name, version=version, shadow=shadow)
            return int(version)

    def _breach_handler(self, name: str, version: int):
        def on_breach(ledger) -> None:
            self._on_shadow_breach(name, version, ledger)

        return on_breach

    def _on_shadow_breach(self, name: str, version: int, ledger) -> None:
        """A shadow exceeded its disagreement budget (scorer worker thread).

        A *staged* candidate is retired before ever serving a frame.  A
        post-promotion *watch* (the old version trailing the new live)
        triggers automatic rollback — without quiescing: the callback runs
        on the scoring thread itself, which cannot wait for its own batch
        to resolve, and per-batch atomicity already comes from the
        registry-snapshot swap.
        """
        with self._lock:
            staged = self._staged.get(name)
            if staged is not None and staged.version == version:
                del self._staged[name]
                if staged.shadow_name is not None:
                    self.scorer.detach_shadow(staged.shadow_name)
                self._set_state(name, version, STATE_RETIRED)
                self._record_event(
                    "shadow_breach",
                    name,
                    version=version,
                    disagreement_rate=ledger.disagreement_rate(),
                )
                return
            if self._watches.get(name) is not None:
                self._record_event(
                    "watch_breach",
                    name,
                    version=version,
                    disagreement_rate=ledger.disagreement_rate(),
                )
                self.rollback(name, _quiesce=False)

    def clear(self, name: str) -> int:
        """Shadow → candidate: assert the staged shadow passed its guard."""
        with self._lock:
            staged = self._require_staged(name)
            if staged.state == STATE_SHADOW:
                self._guard_shadow(name, staged)
                self._promote_to_candidate(name, staged)
            return staged.version

    def _require_staged(self, name: str) -> _Staged:
        staged = self._staged.get(name)
        if staged is None:
            raise LifecycleStateError(
                f"monitor '{name}' has no staged version; stage() first"
            )
        return staged

    def _guard_shadow(self, name: str, staged: _Staged) -> None:
        shadow = self.scorer.registry.get(staged.shadow_name)
        if shadow is None:  # detached behind our back
            raise LifecycleStateError(
                f"staged shadow '{staged.shadow_name}' of '{name}' is gone"
            )
        report = shadow.ledger.snapshot()
        if report["breached"]:
            raise LifecycleStateError(
                f"cannot promote '{name}' v{staged.version}: its shadow "
                f"breached the disagreement budget "
                f"({report['disagreement_rate']:.3f} > "
                f"{report['disagreement_budget']})"
            )
        if report["frames"] < report["min_frames"]:
            raise LifecycleStateError(
                f"cannot promote '{name}' v{staged.version}: only "
                f"{report['frames']} shadow frame(s) observed, "
                f"{report['min_frames']} required (pass guard=False to force)"
            )

    def _promote_to_candidate(self, name: str, staged: _Staged) -> None:
        if staged.shadow_name is not None:
            self.scorer.detach_shadow(staged.shadow_name)
            staged.shadow_name = None
        staged.state = STATE_CANDIDATE
        self._set_state(name, staged.version, STATE_CANDIDATE)

    def promote(
        self,
        name: str,
        guard: bool = True,
        timeout: float = 10.0,
        watch_budget: Optional[float] = None,
        watch_frames: int = 64,
    ) -> int:
        """Make the staged version of ``name`` live; returns its version.

        ``guard=True`` requires a shadowed candidate to have observed its
        ``min_frames`` without breaching the disagreement budget.  The
        swap is atomic: the front-end quiesces (frames submitted before
        the promotion score against the old version, unless the backlog
        outlasts ``timeout``), then the registry entry (or worker bundle)
        flips in one step.

        ``watch_budget`` keeps the *outgoing* version scoring in shadow of
        the new live; if post-promotion disagreement on real traffic
        breaches the budget, the manager rolls back automatically.  The
        arguments are checked before anything changes: a refused call
        leaves the live and staged versions as they were.
        """
        if watch_budget is not None:
            if (
                isinstance(watch_budget, bool)
                or not isinstance(watch_budget, numbers.Real)
                or not 0.0 <= watch_budget <= 1.0
            ):
                raise ConfigurationError(
                    f"watch_budget must be a rate in [0, 1], got {watch_budget!r}"
                )
            if watch_frames < 1:
                raise ConfigurationError("watch_frames must be at least 1")
            self._require_shadow_capable("promote(watch_budget=...)")
        with self._lock:
            staged = self._require_staged(name)
            if staged.state == STATE_SHADOW:
                if guard:
                    self._guard_shadow(name, staged)
                self._promote_to_candidate(name, staged)
            old_version = self.store.live_version(name)
            old_monitor = None
            if watch_budget is not None:
                old_monitor = self.scorer.registry.get(name)
            self._swap_live(
                name, staged.monitor, staged.version, timeout, quiesce=True
            )
            self.store.set_live(name, staged.version)
            del self._staged[name]
            if old_version is not None:
                self._set_state(name, old_version, STATE_RETIRED)
            self._set_state(name, staged.version, STATE_LIVE)
            if watch_budget is not None and old_monitor is not None:
                watch_name = f"{name}@watch-v{old_version}"
                self.scorer.attach_shadow(
                    watch_name,
                    old_monitor,
                    name,
                    disagreement_budget=watch_budget,
                    min_frames=watch_frames,
                    on_breach=self._breach_handler(name, int(staged.version)),
                )
                self._watches[name] = watch_name
            return staged.version

    def discard(self, name: str) -> int:
        """Retire a staged version without promoting it (manual reject)."""
        with self._lock:
            staged = self._require_staged(name)
            del self._staged[name]
            if staged.shadow_name is not None:
                self.scorer.detach_shadow(staged.shadow_name)
            self._set_state(name, staged.version, STATE_RETIRED)
            self._record_event("discard", name, version=staged.version)
            return staged.version

    def rollback(
        self,
        name: str,
        version: Optional[int] = None,
        timeout: float = 10.0,
        _quiesce: bool = True,
    ) -> int:
        """Move ``name`` back to an earlier stored version; returns it.

        The rolled-back-from version is retired, never deleted — its
        archive stays in the store for post-mortems.
        """
        with self._lock:
            old_live = self.store.live_version(name)
            watch_name = self._watches.pop(name, None)
            if watch_name is not None:
                # Drop the post-promotion watch first: after the rollback
                # the old version *is* live again and trailing it would
                # only re-measure perfect agreement (or re-fire a breach).
                try:
                    self.scorer.detach_shadow(watch_name)
                except LifecycleStateError:  # already detached
                    pass
            version = self.store.rollback(name, version)
            monitor = self.store.load(name, version, self.network)
            self._swap_live(name, monitor, version, timeout, quiesce=_quiesce)
            if old_live is not None:
                self._set_state(name, old_live, STATE_RETIRED)
            self._set_state(name, version, STATE_LIVE)
            self._record_event(
                "rollback", name, version=version, rolled_back_from=old_live
            )
            return int(version)

    # ------------------------------------------------------------------
    # refit convenience
    # ------------------------------------------------------------------
    def refit_and_stage(
        self, name: str, frames, shadow: bool = True, disagreement_budget: Optional[float] = None, min_frames: int = 64
    ) -> int:
        """Incrementally refit the live version with nominal ``frames`` and
        stage the result (in shadow by default); returns the new version.

        The live monitor is cloned through a format-2 round-trip and
        extended on the clone — the served monitor is never mutated, and
        the refit stays on the packed mirror (no BDD build).
        """
        with self._lock:
            live_version = self.store.live_version(name)
            if live_version is None:
                raise LifecycleStateError(
                    f"monitor '{name}' has no live version to refit"
                )
            live = self.store.load(name, live_version, self.network)
            refit = incremental_refit(live, frames, network=self.network)
            version = self.store.put(
                name,
                refit,
                metadata={
                    "refit_of": live_version,
                    "refit_frames": int(np.atleast_2d(frames).shape[0]),
                },
            )
            return self.stage(
                name,
                version=version,
                shadow=shadow,
                disagreement_budget=disagreement_budget,
                min_frames=min_frames,
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def state(self, name: str, version: int) -> str:
        with self._lock:
            states = self._states.get(name)
            if states is None or int(version) not in states:
                raise LifecycleStateError(
                    f"lifecycle of '{name}' v{version} is not managed here"
                )
            return states[int(version)]

    def status(self) -> Dict[str, object]:
        """JSON-able snapshot of every managed name's lifecycle."""
        with self._lock:
            names: Dict[str, object] = {}
            managed = set(self._states) | set(self.store.names())
            for name in sorted(managed):
                entry: Dict[str, object] = {
                    "live": (
                        self.store.live_version(name)
                        if name in self.store.names()
                        else None
                    ),
                    "versions": {
                        version: state
                        for version, state in sorted(
                            self._states.get(name, {}).items()
                        )
                    },
                }
                staged = self._staged.get(name)
                if staged is not None:
                    entry["staged"] = {
                        "version": staged.version,
                        "state": staged.state,
                    }
                if name in self.store.names():
                    entry["stored_versions"] = self.store.versions(name)
                watch = self._watches.get(name)
                if watch is not None:
                    entry["watch"] = watch
                names[name] = entry
            return {
                "front_end": self.scorer.describe()["kind"],
                "store": str(self.store.directory),
                "monitors": names,
            }

    def shadow_report(self, name: Optional[str] = None) -> Dict[str, object]:
        """Ledger snapshots of the attached shadows (staged and watches)."""
        self._require_shadow_capable("shadow_report()")
        reports: Dict[str, object] = {}
        for shadow_name in self.scorer.shadow_names():
            shadow = self.scorer.registry.get(shadow_name)
            if shadow is None:
                continue
            if name is not None and shadow.live_name != name:
                continue
            reports[shadow_name] = {
                "live": shadow.live_name,
                "candidate_class": type(shadow.candidate).__name__,
                "ledger": shadow.ledger.snapshot(),
            }
        return reports

    def staged_version(self, name: str) -> Optional[int]:
        with self._lock:
            staged = self._staged.get(name)
            return None if staged is None else staged.version

    def live_version(self, name: str) -> Optional[int]:
        return self.store.live_version(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LifecycleManager(store={str(self.store.directory)!r}, "
            f"staged={sorted(self._staged)})"
        )
