"""Per-layer metrics derived from the spans of a traced phase.

Scoring metrics are normalised per scored frame (``_us``) or per call
(``_ms``); fit metrics per fit.  Every value is the layer's exclusive time
(see :mod:`tracing`), so the parts of one call add up to its duration.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from common import ratio


def scoring_layers(tracer) -> Dict[str, float]:
    """Layers of the frame-scoring path (engine → nn/monitors/codec/matcher)."""
    exclusive = tracer.exclusive()
    frames = tracer.rows("engine.score_batch")

    def per_frame(seconds: float) -> float:
        return ratio(seconds * 1e6, frames)

    batch_ms = tracer.durations("engine.score_batch")
    forward_ms = tracer.durations("nn.forward")
    codec = sum(t for n, t in exclusive.items() if n.startswith("codec."))
    return {
        "engine.score_batch_ms": float(batch_ms.mean() * 1e3) if batch_ms.size else 0.0,
        "engine.batches": float(batch_ms.size),
        "nn.forward_ms": float(forward_ms.mean() * 1e3) if forward_ms.size else 0.0,
        "monitors.slice_us": per_frame(exclusive.get("monitors.slice", 0.0)),
        "codec.codes_us": per_frame(codec),
        "matcher.exact_us": per_frame(exclusive.get("matcher.exact", 0.0)),
        "matcher.ternary_us": per_frame(exclusive.get("matcher.ternary", 0.0)),
        "matcher.range_us": per_frame(exclusive.get("matcher.range", 0.0)),
        "matcher.range_probe_frac": ratio(
            tracer.rows("matcher.range"), tracer.rows("matcher.contains")
        ),
    }


def runtime_shares(tracer) -> Dict[str, float]:
    """Share of ``engine.score_batch`` time spent in each runtime sub-layer."""
    exclusive = tracer.exclusive()
    total = float(tracer.durations("engine.score_batch").sum())
    parts = {
        "engine": exclusive.get("engine.score_batch", 0.0),
        "nn": sum(t for n, t in exclusive.items() if n.startswith("nn.")),
        "monitors": sum(t for n, t in exclusive.items() if n.startswith("monitors.")),
        "codec": sum(t for n, t in exclusive.items() if n.startswith("codec.")),
        "bdd": sum(t for n, t in exclusive.items() if n.startswith("bdd.")),
        "matcher.contains": exclusive.get("matcher.contains", 0.0),
        "matcher.exact": exclusive.get("matcher.exact", 0.0),
        "matcher.ternary": exclusive.get("matcher.ternary", 0.0),
        "matcher.range": exclusive.get("matcher.range", 0.0),
    }
    return {name: round(ratio(t, total), 4) for name, t in parts.items()}


def fit_layers(tracer, fits: int) -> Dict[str, float]:
    """Layers of monitor construction, per fit."""
    exclusive = tracer.exclusive()

    def per_fit(seconds: float) -> float:
        return ratio(seconds * 1e3, fits)

    return {
        "symbolic.box_bounds_ms": per_fit(exclusive.get("symbolic.box", 0.0)),
        "symbolic.star_bounds_ms": per_fit(exclusive.get("symbolic.star", 0.0)),
        "bdd.insert_ms": per_fit(exclusive.get("bdd.insert", 0.0)),
        "codec.bound_codes_ms": per_fit(
            sum(t for n, t in exclusive.items() if n.startswith("codec."))
        ),
        "matcher.mirror_insert_ms": per_fit(exclusive.get("matcher.insert", 0.0)),
    }


def unattributed(tracer, root: str) -> float:
    """Share of the ``root`` spans' time that none of their children covers."""
    total, covered = tracer.child_cover(root)
    return ratio(total - covered, total)


def mirror_metrics(pattern_sets, nodes: bool = True) -> Dict[str, float]:
    """Mirror row counts and (when ``nodes``) the BDD node count.

    ``dag_size`` walks the BDD recursively, one frame per variable level,
    so it is skipped on sets wider than the interpreter's recursion limit.
    """
    stored, useful = mirror_rows(pattern_sets)
    metrics = {
        "matcher.rows": float(stored),
        "matcher.rows_useful_frac": ratio(useful, stored),
    }
    if nodes:
        metrics["bdd.nodes"] = float(sum(p.dag_size() for p in pattern_sets))
    return metrics


def mirror_rows(pattern_sets) -> Tuple[int, int]:
    """(stored rows, rows that are neither duplicates nor covered by another).

    A ternary row is covered by another row when the other's care mask is a
    subset of its own and both agree on the other's care bits; a range row
    when its box lies inside another's; an exact row when any ternary or
    range row matches it.  Of identical rows the first one counts as useful.
    """
    from repro.runtime.kernels.numpy_backend import NumpyMatcherKernel

    kernel = NumpyMatcherKernel()
    stored = useful = 0
    for patterns in pattern_sets:
        state = patterns.packed_state()
        exact = state["exact"].astype(np.uint64)
        values = state["ternary_values"].astype(np.uint64)
        masks = state["ternary_masks"].astype(np.uint64)
        low, high = state["range_low"], state["range_high"]
        stored += exact.shape[0] + values.shape[0] + low.shape[0]
        redundant = 0
        if values.shape[0]:
            subset = np.all((masks[:, None, :] & ~masks[None, :, :]) == 0, axis=2)
            differ = (values[None, :, :] ^ values[:, None, :]) & masks[:, None, :]
            agree = np.all(differ == 0, axis=2)
            covers = subset & agree  # covers[j, i]: row j covers row i
            redundant += _redundant(covers)
        if low.shape[0]:
            covers = np.all(low[:, None, :] <= low[None, :, :], axis=2) & np.all(
                high[None, :, :] <= high[:, None, :], axis=2
            )
            redundant += _redundant(covers)
        if exact.shape[0]:
            hit = np.zeros(exact.shape[0], dtype=bool)
            if values.shape[0]:
                hit |= kernel.match_ternary(exact, values, masks)
            if low.shape[0]:
                codes = patterns.codec.unpack_codes(exact)
                hit |= kernel.match_ranges(codes, low, high)
            redundant += int(hit.sum())
        useful += exact.shape[0] + values.shape[0] + low.shape[0] - redundant
    return stored, useful


def _redundant(covers: np.ndarray) -> int:
    """Rows covered by another row; of mutually covering rows keep the first."""
    count = covers.shape[0]
    mutual = covers & covers.T
    earlier = np.tri(count, count, -1, dtype=bool).T  # earlier[j, i]: j < i
    strict = covers & ~mutual
    dup = mutual & earlier
    np.fill_diagonal(strict, False)
    np.fill_diagonal(dup, False)
    return int(np.any(strict | dup, axis=0).sum())


def layers_unused_frac(network, monitors) -> float:
    """Share of network layers evaluated past the deepest monitored layer."""
    deepest = max(m.layer_index for m in monitors.values())
    return ratio(network.num_layers - deepest, network.num_layers)


def percentile_ms(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q) * 1e3) if values.size else 0.0
