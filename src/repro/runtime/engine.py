"""Batched runtime scoring: shared forward passes across monitors.

A deployment typically runs several monitors against the *same* network —
a standard and a robust variant on one layer, or an ensemble spanning
layers.  Scoring them naively repeats the network forward pass once per
monitor per evaluation batch.  :class:`BatchScoringEngine` computes the
layer activations of an input batch once, caches them keyed by a content
fingerprint of the batch, and feeds every monitor its slice — so N monitors
on one network cost one forward pass, and re-scoring the same evaluation set
(parameter sweeps, standard-vs-robust comparisons) costs zero forward passes
after the first.

The cached activations are produced by the same sequential layer loop as
``Sequential.forward_to`` on the same batch, so engine-mediated scoring is
bit-identical to calling ``monitor.warn_batch`` directly.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.network import Sequential

__all__ = ["ActivationCache", "BatchScore", "BatchScoringEngine"]


def _fingerprint(inputs: np.ndarray) -> Tuple:
    """Content fingerprint of an input batch (shape + BLAKE2 digest)."""
    inputs = np.ascontiguousarray(inputs)
    digest = hashlib.blake2b(inputs.tobytes(), digest_size=16).digest()
    return (inputs.shape, inputs.dtype.str, digest)


class ActivationCache:
    """LRU cache of per-layer activations of recently scored input batches.

    One entry holds the outputs of *every* layer for one input batch (a
    single sequential pass produces them all), so monitors on different
    layers share the entry.  Entries are keyed by the input batch content
    *and* a digest of the network weights, so continuing to train the
    network invalidates the cache instead of silently serving stale
    activations.

    A second LRU level (:meth:`bound_arrays`) caches the *symbolic* side of
    robust monitor construction: the ``(lows, highs)`` perturbation-estimate
    matrices of an input batch at one layer under one
    :class:`~repro.monitors.perturbation.PerturbationSpec`.  Keys add the
    spec's ``(Δ, k_p, method)`` identity on top of the content/weights key,
    so fitting several robust monitor families with the same perturbation
    model on the same training set pays for one propagation, and a sweep
    over ``Δ`` values reuses the cached layer-``k_p`` anchor activations
    (the concrete half of every propagation) across all deltas.

    Both LRU levels are guarded by one reentrant lock, so a cache (and the
    engine wrapping it) may be shared between a streaming scorer's worker
    thread and any number of submitting/evaluating threads.  Lookups that
    miss compute the forward pass (or propagation) while holding the lock:
    concurrent requests for the *same* batch then cost one pass total, which
    on the serving path matters more than letting distinct batches overlap.
    """

    def __init__(
        self,
        network: Sequential,
        max_entries: int = 16,
        star_lp_backend=None,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self.network = network
        self.max_entries = int(max_entries)
        #: Star-LP back-end suggestion forwarded to every star-method
        #: propagation this cache performs (see repro.symbolic.star_lp).
        #: ``None`` defers to REPRO_STAR_LP_BACKEND / the stacked default.
        #: Deliberately *not* part of the bound-entry cache key: all
        #: registered backends are pinned equivalent, so the backend choice
        #: changes how bounds are computed, never what they are.
        self.star_lp_backend = star_lp_backend
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, List[np.ndarray]]" = OrderedDict()
        self._bound_entries: "OrderedDict[Tuple, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.bound_hits = 0
        self.bound_misses = 0

    def _weights_digest(self) -> bytes:
        """Digest of the network parameters (cheap next to a forward pass)."""
        hasher = hashlib.blake2b(digest_size=16)
        for weight in self.network.get_weights():
            hasher.update(np.ascontiguousarray(weight).tobytes())
        return hasher.digest()

    def activation_entry(self, inputs: np.ndarray) -> List[np.ndarray]:
        """Cached per-layer activations of ``inputs`` for *every* layer.

        One lookup serves any number of monitors on any layers of the batch:
        the content/weights key is hashed once per batch, not once per
        monitor (hashing a wide batch costs more than slicing its entry).
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        with self._lock:
            key = _fingerprint(inputs) + (self._weights_digest(),)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                entry = self.network.activations(inputs)
                self._entries[key] = entry
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return entry

    def layer_activations(self, inputs: np.ndarray, layer_index: int) -> np.ndarray:
        """Activations of ``layer_index`` for ``inputs`` (batched, cached)."""
        entry = self.activation_entry(inputs)
        if not 1 <= layer_index <= len(entry):
            raise ConfigurationError(
                f"layer index {layer_index} outside [1, {len(entry)}]"
            )
        return entry[layer_index - 1]

    def bound_arrays(
        self, inputs: np.ndarray, layer_index: int, spec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(lows, highs)`` perturbation estimates of a batch.

        ``spec`` is a :class:`~repro.monitors.perturbation.PerturbationSpec`;
        the result equals ``collect_bound_arrays(network, inputs,
        layer_index, spec)``.  Anchor activations at the perturbation layer
        are pulled from (and inserted into) the activation level of the
        cache, so propagations of the same batch under different deltas or
        back-ends share one concrete forward pass.
        """
        from ..monitors.perturbation import collect_bound_arrays

        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        with self._lock:
            key = (
                _fingerprint(inputs)
                + (self._weights_digest(),)
                + ("bounds", int(layer_index))
                + spec.cache_key
            )
            entry = self._bound_entries.get(key)
            if entry is not None:
                self.bound_hits += 1
                self._bound_entries.move_to_end(key)
                return entry
            self.bound_misses += 1
            # The layer_activations level computes (or replays) the full
            # forward pass; k_p = 0 anchors are the raw inputs themselves.
            anchors = (
                inputs
                if spec.layer == 0
                else self.layer_activations(inputs, spec.layer)
            )
            entry = collect_bound_arrays(
                self.network,
                inputs,
                layer_index,
                spec,
                anchors=anchors,
                star_lp_backend=self.star_lp_backend,
            )
            # The entry is handed out by reference to every bound monitor;
            # freezing it turns an accidental in-place edit (which would
            # poison the cache for all sharers) into an immediate error.
            for array in entry:
                array.setflags(write=False)
            self._bound_entries[key] = entry
            if len(self._bound_entries) > self.max_entries:
                self._bound_entries.popitem(last=False)
            return entry

    @property
    def num_entries(self) -> int:
        """Current number of cached activation entries (thread-safe)."""
        with self._lock:
            return len(self._entries)

    @property
    def num_bound_entries(self) -> int:
        """Current number of cached bound-matrix entries (thread-safe)."""
        with self._lock:
            return len(self._bound_entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bound_entries.clear()


@dataclass
class BatchScore:
    """Result of one batched scoring pass: per-monitor warning vectors."""

    warns: Dict[str, np.ndarray] = field(default_factory=dict)
    verdicts: Optional[Dict[str, List]] = None

    def warning_rate(self, name: str) -> float:
        warnings = self.warns[name]
        if warnings.size == 0:
            raise ConfigurationError("warning_rate needs at least one scored input")
        return float(np.mean(warnings))


class BatchScoringEngine:
    """Score many monitors on one input batch with shared forward passes.

    Monitors attached to the engine's network are fed cached layer
    activations; any other object exposing ``warn_batch`` (class-conditional
    monitors, quantitative wrappers, monitors of a different network) is
    scored through its own batched path unchanged.
    """

    def __init__(
        self,
        network: Sequential,
        max_cache_entries: int = 16,
        matcher_backend=None,
        star_lp_backend=None,
    ) -> None:
        self.network = network
        self.cache = ActivationCache(
            network,
            max_entries=max_cache_entries,
            star_lp_backend=star_lp_backend,
        )
        #: Matcher-kernel back-end suggestion for monitors bound to this
        #: engine: pattern monitors fitted while bound adopt it for their
        #: pattern sets unless they carry an explicit choice of their own
        #: (see ActivationMonitor.matcher_backend_choice).  ``None`` defers
        #: to the ``REPRO_MATCHER_BACKEND`` env var / ``numpy`` default.
        self.matcher_backend = matcher_backend
        #: Star-LP back-end suggestion for star-method bound propagations
        #: performed through this engine's cache; ``None`` defers to the
        #: ``REPRO_STAR_LP_BACKEND`` env var / ``stacked`` default.
        self.star_lp_backend = star_lp_backend

    # ------------------------------------------------------------------
    def layer_features(self, inputs: np.ndarray, layer_index: int) -> np.ndarray:
        """Cached full-layer activations for ``inputs``."""
        return self.cache.layer_activations(inputs, layer_index)

    def bound_arrays(
        self, inputs: np.ndarray, layer_index: int, spec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached batched perturbation estimates (see :meth:`ActivationCache.bound_arrays`)."""
        return self.cache.bound_arrays(inputs, layer_index, spec)

    def _shares_network(self, monitor) -> bool:
        return getattr(monitor, "network", None) is self.network and hasattr(
            monitor, "warn_batch_from_layer"
        )

    def score_batch(
        self,
        monitors: Mapping[str, object],
        inputs: np.ndarray,
        want_verdicts: bool = False,
        use_cache: bool = True,
    ) -> BatchScore:
        """Warning vectors (and optionally full verdicts) for every monitor.

        The batch's per-layer activations are computed (or fetched) *once*
        and sliced per monitor, however many monitors share the network.
        ``use_cache=False`` skips the activation cache entirely — the same
        sequential layer walk, but without fingerprinting the batch or
        inserting an entry.  That is the right trade for one-shot batches
        that will never be re-scored (e.g. streaming micro-batches, each of
        which is fresh content): hashing a wide batch costs more than the
        small forward passes it would deduplicate.  The uncached walk also
        stops at the deepest layer a monitor of this network reads; a cached
        entry keeps every layer, so any later monitor can reuse it.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        score = BatchScore(verdicts={} if want_verdicts else None)
        if inputs.shape[0] == 0:
            # A 0-frame batch costs nothing: no forward pass, no cache entry,
            # one empty vector per monitor.  (Width-0 rows are *not* short-
            # circuited — they must fail the forward pass like any other
            # malformed batch.)
            for name in monitors:
                score.warns[name] = np.zeros(0, dtype=bool)
                if want_verdicts:
                    score.verdicts[name] = []
            return score
        shared = [m for m in monitors.values() if self._shares_network(m)]
        for monitor in shared:
            if not 1 <= monitor.layer_index <= self.network.num_layers:
                raise ConfigurationError(
                    f"layer index {monitor.layer_index} outside "
                    f"[1, {self.network.num_layers}]"
                )
        entry: List[np.ndarray] = []
        if shared and use_cache:
            entry = self.cache.activation_entry(inputs)
        elif shared:
            # One-shot batches stop at the deepest monitored layer.
            depth = max(monitor.layer_index for monitor in shared)
            entry = self.network.activations(inputs, depth)
        for name, monitor in monitors.items():
            if self._shares_network(monitor):
                activations = entry[monitor.layer_index - 1]
                if want_verdicts:
                    verdicts = monitor.verdict_batch_from_layer(activations)
                    score.verdicts[name] = verdicts
                    score.warns[name] = np.fromiter(
                        (v.warn for v in verdicts), dtype=bool, count=len(verdicts)
                    )
                else:
                    score.warns[name] = monitor.warn_batch_from_layer(activations)
            else:
                if want_verdicts and hasattr(monitor, "verdict_batch"):
                    verdicts = monitor.verdict_batch(inputs)
                    score.verdicts[name] = verdicts
                    score.warns[name] = np.fromiter(
                        (v.warn for v in verdicts), dtype=bool, count=len(verdicts)
                    )
                else:
                    score.warns[name] = np.asarray(
                        monitor.warn_batch(inputs), dtype=bool
                    )
        return score

    def warn_batch(self, monitor, inputs: np.ndarray) -> np.ndarray:
        """Single-monitor convenience wrapper over :meth:`score_batch`."""
        return self.score_batch({"monitor": monitor}, inputs).warns["monitor"]
