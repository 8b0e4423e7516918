"""E12 — matcher-kernel back-ends: numpy reference vs compiled vs sharded.

The per-frame cost of a deployed pattern monitor is one packed-membership
query, so the matcher kernel is the serving hot loop.  This benchmark times
every registered back-end on synthetic pattern sets shaped like the
regimes that matter — a narrow monitored layer (one machine word per
pattern), a wide one (many words, where the numpy reference materialises
``(probes, patterns, words)`` broadcast intermediates) and a code-range set
shaped like a robust interval monitor's (the bit-sliced range pass) —
asserts all
back-ends return bit-identical verdicts, and records the wall times into
the CI perf-regression gate with the *effective* back-end annotated
(``compiled`` silently degrades to ``numpy`` without numba; the JSON entry
must say which engine actually ran).

On the numba CI leg the fused kernel must beat the broadcast reference by
≥3× on the wide-layer case — the acceptance bar of the back-end registry
work; without numba that assertion is skipped, never silently weakened.
"""

import os

import numpy as np
import pytest

from repro.eval.reporting import format_table
from repro.runtime import PackedMatcher
from repro.runtime.codec import PatternCodec
from repro.runtime.kernels import HAVE_NUMBA, matcher_backends, resolve_matcher_backend

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

BACKENDS = sorted(matcher_backends())

#: (name, positions, ternary patterns, exact patterns, probe rows)
CASES = [
    ("narrow", 48, 64 if QUICK else 192, 128, 512 if QUICK else 4096),
    ("wide", 256 if QUICK else 640, 96 if QUICK else 384, 256, 512 if QUICK else 4096),
]

#: The code-range case: (name, positions, cuts per position, range rows,
#: probe rows) — the robust interval monitor's pattern set, which has
#: neither exact nor ternary rows, so only the range pass runs.
RANGE_CASE = ("range", 48, 3, 96, 512 if QUICK else 4096)

#: Repeat counts keep one timing sample well above timer resolution.
INNER = {"narrow": 4, "wide": 2, "range": 8}


def build_case(num_positions: int, num_ternary: int, num_exact: int, num_probes: int):
    """One synthetic monitored-layer pattern set plus an operational batch."""
    rng = np.random.default_rng(num_positions)
    codec = PatternCodec.from_thresholds(np.zeros(num_positions))
    exact = rng.integers(0, 2, size=(num_exact, num_positions))
    centres = rng.normal(size=(num_ternary, num_positions))
    spans = rng.uniform(0.05, 0.8, size=(num_ternary, num_positions))
    probes = rng.integers(0, 2, size=(num_probes, num_positions))
    probes[: num_exact // 4] = exact[: num_exact // 4]  # guaranteed hits

    def make_matcher(backend):
        matcher = PackedMatcher(codec.word_codec, backend=backend)
        matcher.add_exact_packed(codec.word_codec.pack_codes(exact))
        matcher.add_ternary(codec.ternary_planes(centres - spans, centres + spans))
        return matcher

    return make_matcher, codec.word_codec.pack_codes(probes)


def build_range_case(num_positions: int, num_cuts: int, num_ranges: int, num_probes: int):
    """Robust-interval-shaped code ranges plus a code batch of probes."""
    rng = np.random.default_rng(num_positions + num_ranges)
    cuts = np.tile(np.linspace(-1.0, 1.0, num_cuts), (num_positions, 1))
    codec = PatternCodec(cuts)
    centres = rng.normal(size=(num_ranges, num_positions))
    spans = rng.uniform(0.05, 0.8, size=(num_ranges, num_positions))
    low, high = codec.bound_codes(centres - spans, centres + spans)
    probes = codec.codes(rng.normal(size=(num_probes, num_positions)))
    probes[: num_ranges // 4] = low[: num_ranges // 4]  # guaranteed hits

    def make_matcher(backend):
        matcher = PackedMatcher(codec.word_codec, backend=backend)
        matcher.add_code_ranges(low, high)
        return matcher

    return make_matcher, probes


@pytest.mark.benchmark(group="E12-matcher-kernels")
def test_matcher_kernel_backends(bench_record):
    rows = []
    for case_name, num_positions, num_ternary, num_exact, num_probes in CASES:
        make_matcher, probes = build_case(
            num_positions, num_ternary, num_exact, num_probes
        )
        reference = None
        for backend in BACKENDS:
            matcher = make_matcher(backend)
            # Warm up outside the timer: first-call JIT compilation (numba
            # leg) and lazy plan consolidation are one-time costs.
            hits = matcher.contains_packed(probes)
            if reference is None:
                reference = hits
            else:
                np.testing.assert_array_equal(hits, reference)
            key = f"matcher_{case_name}_{backend}"
            bench_record.measure(
                key,
                lambda m=matcher: m.contains_packed(probes),
                repeats=3,
                inner=INNER[case_name],
            )
            bench_record.annotate(
                key,
                backend=backend,
                effective=resolve_matcher_backend(backend).effective_name,
                positions=num_positions,
                patterns=num_ternary + num_exact,
                probes=num_probes,
            )
            rows.append(
                [
                    case_name,
                    backend,
                    resolve_matcher_backend(backend).effective_name,
                    f"{bench_record.timings[key] * 1e3:.3f} ms",
                ]
            )
        assert reference is not None and reference[: num_exact // 4].all()
    case_name, num_positions, num_cuts, num_ranges, num_probes = RANGE_CASE
    make_matcher, codes = build_range_case(num_positions, num_cuts, num_ranges, num_probes)
    reference = None
    for backend in BACKENDS:
        matcher = make_matcher(backend)
        hits = matcher.contains_packed(None, codes)
        if reference is None:
            reference = hits
        else:
            np.testing.assert_array_equal(hits, reference)
        key = f"matcher_{case_name}_{backend}"
        bench_record.measure(
            key,
            lambda m=matcher: m.contains_packed(None, codes),
            repeats=3,
            inner=INNER[case_name],
        )
        bench_record.annotate(
            key,
            backend=backend,
            effective=resolve_matcher_backend(backend).effective_name,
            positions=num_positions,
            range_rows=matcher.num_ranges,
            probes=num_probes,
        )
        rows.append(
            [
                case_name,
                backend,
                resolve_matcher_backend(backend).effective_name,
                f"{bench_record.timings[key] * 1e3:.3f} ms",
            ]
        )
    assert reference is not None and reference[: num_ranges // 4].all()
    print()
    print(format_table(["case", "backend", "effective", "time/query"], rows))


@pytest.mark.benchmark(group="E12-matcher-kernels")
@pytest.mark.skipif(not HAVE_NUMBA, reason="fused kernel needs numba (CI compiled leg)")
def test_compiled_speedup_on_wide_layer(bench_record):
    """Acceptance bar: the fused kernel ≥3× over broadcast on a wide layer."""
    _, num_positions, num_ternary, num_exact, num_probes = CASES[1]
    make_matcher, probes = build_case(num_positions, num_ternary, num_exact, num_probes)
    numpy_matcher = make_matcher("numpy")
    compiled_matcher = make_matcher("compiled")
    np.testing.assert_array_equal(
        compiled_matcher.contains_packed(probes), numpy_matcher.contains_packed(probes)
    )

    def best_of(matcher, repeats=5):
        import time

        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            matcher.contains_packed(probes)
            best = min(best, time.perf_counter() - start)
        return best

    numpy_time = best_of(numpy_matcher)
    compiled_time = best_of(compiled_matcher)
    speedup = numpy_time / compiled_time
    bench_record.record("_compiled_wide_speedup", speedup)
    print(f"\nwide-layer fused-kernel speedup: {speedup:.1f}x")
    assert speedup >= 3.0, (
        f"fused compiled kernel only {speedup:.2f}x over the numpy reference "
        f"on the wide-layer case (bar: 3x)"
    )
