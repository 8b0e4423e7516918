"""E15 — star-LP bound queries: per-row seed loop vs the batched stacked tier.

The star back-end answered every bound query with ``2·d`` independent
``scipy.optimize.linprog`` calls per row (the seed loop, kept with the
tests as ``star_bounds_loop_batch`` in ``tests/oracles/symbolic.py``).  The
batched path walks all rows in lockstep and answers each layer's queries
through the stacked star-LP tier (:mod:`repro.symbolic.star_lp`): closed form while the
predicate polytopes are hypercubes, block-stacked sparse HiGHS programs
once unstable ReLUs constrain them.  This benchmark measures both paths
on a genuinely constrained walk (ReLU network, budget big enough to cross
neurons) and on a hypercube-only walk (tanh network — zero LPs end to
end), asserts the ≥5× acceptance bar on the constrained case, and feeds
the batched timings into the perf-regression gate with closed-form tier
attribution attached via ``BenchRecorder.annotate``.
"""

import os
import time

import numpy as np
import pytest

from repro.eval.reporting import format_table
from repro.symbolic.batched import BatchedBox
from repro.symbolic.propagation import perturbation_bounds_batch
from repro.symbolic.star_lp import StackedStarLPBackend
from tests.oracles.symbolic import star_bounds_loop_batch

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

DELTA = 0.05
INPUT_DIM = 6
SIZES = [16, 64] if QUICK else [64, 256]
#: Only the largest size feeds the CI perf gate (clear of timer jitter);
#: smaller sizes are recorded with a "_" prefix (informational).
GATE_SIZE = SIZES[-1]


@pytest.fixture(scope="module")
def relu_star_network():
    from repro.nn.network import mlp

    hidden = [12, 8] if QUICK else [24, 16]
    return mlp(INPUT_DIM, hidden, 3, activation="relu", seed=55)


@pytest.fixture(scope="module")
def tanh_star_network():
    from repro.nn.network import mlp

    hidden = [12, 8] if QUICK else [24, 16]
    return mlp(INPUT_DIM, hidden, 3, activation="tanh", seed=56)


@pytest.fixture(scope="module")
def star_inputs():
    rng = np.random.default_rng(17)
    return rng.uniform(-1.0, 1.0, size=(max(SIZES), INPUT_DIM))


def _time_once(workload):
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


@pytest.mark.benchmark(group="E15-star-lp-bounds")
def test_star_bounds_loop_vs_batched(bench_record, relu_star_network, star_inputs):
    """Constrained-star case: seed per-row loop vs the stacked lockstep walk."""
    network = relu_star_network
    to_layer = len(network.layers)
    backend = StackedStarLPBackend()
    rows = []
    speedups = {}
    for size in SIZES:
        inputs = star_inputs[:size]
        batched_box = BatchedBox(inputs - DELTA, inputs + DELTA)
        loop_time = _time_once(
            lambda: star_bounds_loop_batch(network, batched_box, 0, to_layer)
        )
        prefix = "" if size == GATE_SIZE else "_"
        name = f"{prefix}star_lp_stacked_n{size}"
        backend.reset_stats()
        batched = bench_record.measure(
            name,
            lambda: perturbation_bounds_batch(
                network,
                inputs,
                to_layer,
                0,
                DELTA,
                "star",
                star_lp_backend=backend,
            ),
            repeats=3,
        )
        batched_time = bench_record.timings[name]
        bench_record.record(f"_star_lp_loop_n{size}", loop_time)
        stats = dict(backend.stats)
        bench_record.annotate(
            name,
            backend="stacked",
            closed_form_stars=stats["closed_form_stars"],
            lp_stars=stats["lp_stars"],
            lp_programs=stats["lp_programs"],
            lp_objectives=stats["lp_objectives"],
        )
        speedups[size] = loop_time / batched_time
        assert np.all(batched[0] <= batched[1] + 1e-12)
        rows.append(
            [
                size,
                f"{loop_time * 1e3:.1f}",
                f"{batched_time * 1e3:.1f}",
                f"{speedups[size]:.1f}x",
                stats["lp_programs"],
            ]
        )
    print("\nE15: star bound collection, per-row loop vs stacked lockstep walk")
    print(format_table(["n", "loop_ms", "batched_ms", "speedup", "lp_programs"], rows))
    # Acceptance bar of the batched-star-LP refactor: the constrained-star
    # walk replaces O(rows * 2d) solver entries with O(chunks) and must be
    # at least 5x faster than the seed loop at the gated size.
    assert speedups[GATE_SIZE] >= 5.0, (
        f"expected >=5x over the seed loop at n={GATE_SIZE}, "
        f"got {speedups[GATE_SIZE]:.1f}x"
    )


@pytest.mark.benchmark(group="E15-star-lp-bounds")
def test_star_closed_form_walk_runs_zero_lps(
    bench_record, tanh_star_network, star_inputs
):
    """Hypercube-only case: monotone activations keep every star closed-form."""
    network = tanh_star_network
    to_layer = len(network.layers)
    backend = StackedStarLPBackend()
    backend.reset_stats()
    inputs = star_inputs[:GATE_SIZE]
    name = f"star_lp_closed_form_n{GATE_SIZE}"
    bench_record.measure(
        name,
        lambda: perturbation_bounds_batch(
            network, inputs, to_layer, 0, DELTA, "star", star_lp_backend=backend
        ),
        repeats=3,
        inner=3,
    )
    stats = dict(backend.stats)
    bench_record.annotate(
        name,
        backend="stacked",
        closed_form_stars=stats["closed_form_stars"],
        lp_programs=stats["lp_programs"],
    )
    print(
        f"\nE15: closed-form walk n={GATE_SIZE}: "
        f"{bench_record.timings[name] * 1e3:.2f} ms, "
        f"{stats['closed_form_stars']} closed-form stars, "
        f"{stats['lp_programs']} LP programs"
    )
    assert stats["lp_programs"] == 0
    assert stats["closed_form_stars"] > 0
