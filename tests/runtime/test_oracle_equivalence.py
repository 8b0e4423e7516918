"""The narrow hot path is bit-identical to the broadcast reference passes.

``tests/oracles/runtime.py`` keeps the straightforward formulations of the
codec (``int64`` codes, per-bit shifts), the packing (an OR-reduce over one
``uint64`` per bit) and the matcher passes (``np.isin`` over row views, an
``(n, R, P)`` range compare).  These properties pin the runtime's
``uint8`` codes, ``np.packbits`` layout, presorted exact lookup and
bit-sliced range table against them on hostile inputs: values exactly on
``cut + tol``, NaN and ±inf, widths that are not multiples of 8 or 64,
range sets wider than one 64-row bitmap word, and probe codes above every
stored ``high`` — on every matcher back-end, forced sharding included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import PackedMatcher, WordCodec
from repro.runtime.codec import PatternCodec
from repro.runtime.kernels import resolve_matcher_backend
from repro.runtime.packing import pack_bool_matrix, unpack_bool_matrix

from ..oracles import runtime as oracle
from .test_kernel_equivalence import alternate_kernels

#: Widths around byte and machine-word boundaries (and plenty that are not).
WIDTHS = st.sampled_from([1, 3, 7, 8, 9, 31, 63, 64, 65, 100, 127, 128, 129, 150])


def hostile_features(rng, codec, num_rows):
    """Feature rows mixing normals, exact ``cut + tol`` hits, NaN and ±inf."""
    num_positions = codec.num_positions
    features = rng.normal(scale=2.0, size=(num_rows, num_positions))
    cuts = codec._effective_cuts
    picks = rng.random(features.shape)
    on_cut = picks < 0.25
    chosen = cuts[np.arange(num_positions), rng.integers(0, codec.num_cuts, num_positions)]
    features[on_cut] = np.broadcast_to(chosen, features.shape)[on_cut]
    features[(picks >= 0.25) & (picks < 0.3)] = np.nan
    features[(picks >= 0.3) & (picks < 0.33)] = np.inf
    features[(picks >= 0.33) & (picks < 0.36)] = -np.inf
    return features


@settings(max_examples=60, deadline=None)
@given(
    num_positions=WIDTHS,
    num_cuts=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_codec_matches_the_oracle(num_positions, num_cuts, seed):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.normal(size=(num_positions, num_cuts)), axis=1)
    cuts += np.arange(num_cuts) * 1e-3  # strictly increasing per row
    codec = PatternCodec(cuts)
    assert 1 <= codec.bits_per_position <= 3
    features = hostile_features(rng, codec, int(rng.integers(0, 40)))

    codes = codec.codes(features)
    expected = oracle.codes(features, codec._effective_cuts)
    assert codes.dtype == np.uint8
    np.testing.assert_array_equal(codes, expected)
    # NaN lies above no cut (code 0); +inf above all of them, -inf none.
    assert np.all(codes[np.isnan(features)] == 0)
    assert np.all(codes[np.isposinf(features)] == num_cuts)
    assert np.all(codes[np.isneginf(features)] == 0)

    bits = codec.bits_per_position
    np.testing.assert_array_equal(
        codec.word_codec.code_bits(codes), oracle.code_bits(expected, bits)
    )
    packed = codec.encode(features)
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(
        packed, oracle.encode(features, codec._effective_cuts, bits)
    )
    np.testing.assert_array_equal(codec.decode(packed), expected)

    low, high = np.minimum(features, features - 0.5), np.maximum(features, features + 0.5)
    finite = np.isfinite(features)
    low, high = np.where(finite, low, features), np.where(finite, high, features)
    low_codes, high_codes = codec.bound_codes(low, high)
    np.testing.assert_array_equal(low_codes, oracle.codes(low, codec._effective_cuts))
    np.testing.assert_array_equal(high_codes, oracle.codes(high, codec._effective_cuts))
    if bits == 1:
        planes = codec.ternary_planes(low, high)
        constrained = low_codes == high_codes
        np.testing.assert_array_equal(
            planes.values, oracle.pack_bool_matrix((low_codes == 1) & constrained)
        )
        np.testing.assert_array_equal(planes.masks, oracle.pack_bool_matrix(constrained))


@settings(max_examples=60, deadline=None)
@given(num_bits=WIDTHS, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_packing_matches_the_oracle(num_bits, seed):
    rng = np.random.default_rng(seed)
    bits = rng.random((int(rng.integers(0, 20)), num_bits)) < 0.5
    packed = pack_bool_matrix(bits)
    np.testing.assert_array_equal(packed, oracle.pack_bool_matrix(bits))
    # Nonzero entries of a uint8 matrix count as set bits, as in a bool one.
    noisy = (bits * rng.integers(1, 256, bits.shape)).astype(np.uint8)
    np.testing.assert_array_equal(pack_bool_matrix(noisy), packed)
    np.testing.assert_array_equal(
        unpack_bool_matrix(packed, num_bits), oracle.unpack_bool_matrix(packed, num_bits)
    )


@st.composite
def range_workloads(draw):
    """Exact and range rows (often more than 64 of them) plus probes.

    Stored ranges stop below the top code at some positions, so probes
    carrying the top code there lie above every stored ``high``.
    """
    bits = draw(st.integers(min_value=1, max_value=3))
    num_positions = draw(WIDTHS)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_codes = 1 << bits
    num_ranges = draw(st.sampled_from([0, 1, 5, 63, 64, 65, 130]))
    ceiling = np.where(rng.random(num_positions) < 0.5, num_codes - 2, num_codes - 1)
    ceiling = np.maximum(ceiling, 0)
    low = rng.integers(0, ceiling + 1, size=(num_ranges, num_positions))
    width = rng.integers(0, num_codes, size=low.shape)
    high = np.minimum(low + width, ceiling)
    exact = rng.integers(0, num_codes, size=(int(rng.integers(0, 12)), num_positions))
    probes = rng.integers(0, num_codes, size=(int(rng.integers(1, 60)), num_positions))
    take = min(probes.shape[0] // 2, num_ranges)
    # Half the probes start inside a stored range, some of them pushed to
    # the top code (above every stored high where the ceiling is lower).
    inside = rng.integers(low[:take], high[:take] + 1) if take else probes[:0]
    probes[:take] = inside
    top = rng.random(probes.shape) < 0.1
    probes[top] = num_codes - 1
    if exact.shape[0]:
        probes[-1] = exact[0]
    return {
        "codec": WordCodec(num_positions, bits),
        "low": low,
        "high": high,
        "exact": exact,
        "probes": probes,
    }


def oracle_membership(workload):
    codec = workload["codec"]
    probes = workload["probes"]
    hits = oracle.match_ranges(probes, workload["low"], workload["high"])
    if workload["exact"].shape[0]:
        hits |= oracle.match_exact(
            oracle.pack_bool_matrix(oracle.code_bits(probes, codec.bits_per_position)),
            oracle.pack_bool_matrix(
                oracle.code_bits(workload["exact"], codec.bits_per_position)
            ),
        )
    return hits


@settings(max_examples=50, deadline=None)
@given(workload=range_workloads())
def test_matcher_passes_match_the_oracle_on_every_backend(workload):
    codec = workload["codec"]
    probes = workload["probes"]
    low, high, exact = workload["low"], workload["high"], workload["exact"]
    expected = oracle_membership(workload)
    codes = codec.validate_codes(probes)
    assert codes.dtype == np.uint8
    packed = codec.pack_codes(codes)
    exact_packed = codec.pack_codes(exact)
    for backend in alternate_kernels():
        matcher = PackedMatcher(codec, backend=backend)
        if low.shape[0]:
            matcher.add_code_ranges(low, high)
        if exact.shape[0]:
            matcher.add_exact_packed(exact_packed)
        np.testing.assert_array_equal(matcher.contains_codes(probes), expected)
        np.testing.assert_array_equal(matcher.contains_packed(packed), expected)
        np.testing.assert_array_equal(matcher.contains_packed(None, codes), expected)

        # The per-structure passes on the raw (unminimised) rows, with and
        # without the plan's derived lookup structures.
        kernel = resolve_matcher_backend(backend)
        if low.shape[0]:
            reference = oracle.match_ranges(probes, low, high)
            np.testing.assert_array_equal(kernel.match_ranges(codes, low, high), reference)
            plan = PackedMatcher(codec)
            plan.add_code_ranges(low, high)
            plan = plan.match_plan()
            if plan.range_low is not None:
                assert plan.range_table.shape == (
                    -(-plan.range_low.shape[0] // 64),
                    codec.num_positions,
                    codec.num_codes,
                )
                np.testing.assert_array_equal(
                    kernel.match_ranges(
                        codes, plan.range_low, plan.range_high, table=plan.range_table
                    ),
                    oracle.match_ranges(probes, plan.range_low, plan.range_high),
                )
        if exact.shape[0]:
            plan = PackedMatcher(codec)
            plan.add_exact_packed(exact_packed)
            plan = plan.match_plan()
            reference = oracle.match_exact(packed, exact_packed)
            np.testing.assert_array_equal(kernel.match_exact(packed, plan.exact), reference)
            np.testing.assert_array_equal(
                kernel.match_exact(packed, plan.exact, keys=plan.exact_keys), reference
            )
