"""E12 — the matcher kernel on narrow, wide and code-range pattern sets.

The per-frame cost of a deployed pattern monitor is one packed-membership
query, so the matcher kernel is the serving hot loop.  This benchmark times
it on synthetic pattern sets shaped like the regimes that matter — a narrow
monitored layer (one machine word per pattern), a wide one (many words per
pattern) and a code-range set shaped like a robust interval monitor's (the
bit-sliced range pass) — checks the guaranteed hits, and records the wall
times into the CI perf-regression gate.
"""

import os

import numpy as np
import pytest

from repro.eval.reporting import format_table
from repro.runtime import PackedMatcher
from repro.runtime.codec import PatternCodec
from repro.runtime.kernels import resolve_matcher_backend

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

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

    def make_matcher():
        matcher = PackedMatcher(codec.word_codec)
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

    def make_matcher():
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_code_ranges(low, high)
        return matcher

    return make_matcher, probes


def _record(bench_record, rows, case_name, query, **attributes):
    """Time one case's query into ``matcher_<case>_numpy`` and tabulate it."""
    kernel = resolve_matcher_backend(None)
    key = f"matcher_{case_name}_{kernel.name}"
    bench_record.measure(key, query, repeats=3, inner=INNER[case_name])
    bench_record.annotate(key, backend=kernel.name, effective=kernel.effective_name, **attributes)
    rows.append([case_name, f"{bench_record.timings[key] * 1e3:.3f} ms"])


@pytest.mark.benchmark(group="E12-matcher-kernels")
def test_matcher_kernel_backends(bench_record):
    rows = []
    for case_name, num_positions, num_ternary, num_exact, num_probes in CASES:
        make_matcher, probes = build_case(num_positions, num_ternary, num_exact, num_probes)
        matcher = make_matcher()
        # Lazy plan consolidation is a one-time cost: pay it outside the timer.
        hits = matcher.contains_packed(probes)
        assert hits[: num_exact // 4].all()
        _record(
            bench_record,
            rows,
            case_name,
            lambda m=matcher: m.contains_packed(probes),
            positions=num_positions,
            patterns=num_ternary + num_exact,
            probes=num_probes,
        )
    case_name, num_positions, num_cuts, num_ranges, num_probes = RANGE_CASE
    make_matcher, codes = build_range_case(num_positions, num_cuts, num_ranges, num_probes)
    matcher = make_matcher()
    assert matcher.contains_packed(None, codes)[: num_ranges // 4].all()
    _record(
        bench_record,
        rows,
        case_name,
        lambda: matcher.contains_packed(None, codes),
        positions=num_positions,
        range_rows=matcher.num_ranges,
        probes=num_probes,
    )
    print()
    print(format_table(["case", "time/query"], rows))
