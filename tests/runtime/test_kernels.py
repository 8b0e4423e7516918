"""Matcher-kernel back-end registry, selection and per-backend edge cases."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime.codec import PatternCodec, TernaryPlanes
from repro.runtime.kernels import (
    MATCHER_BACKEND_ENV,
    CompiledMatcherKernel,
    MatcherKernel,
    NumpyMatcherKernel,
    ShardedMatcherKernel,
    matcher_backends,
    register_matcher_backend,
    resolve_matcher_backend,
    unregister_matcher_backend,
)
from repro.runtime.packing import full_mask_words, tail_word_mask, words_for_bits

BACKENDS = sorted(matcher_backends())

#: Widths straddling machine-word boundaries (the tail-masking matrix).
EDGE_WIDTHS = [1, 63, 64, 65, 127, 128, 130]


class CountingKernel(NumpyMatcherKernel):
    """Spy back-end: the reference passes plus a dispatch counter."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def match(self, plan, packed, codes=None):
        self.calls += 1
        return super().match(plan, packed, codes=codes)


# ----------------------------------------------------------------------
# registry + selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert {"numpy", "compiled", "sharded"} <= set(matcher_backends())

    def test_resolve_reuses_instances(self):
        assert resolve_matcher_backend("numpy") is resolve_matcher_backend("numpy")

    def test_resolve_passes_instances_through(self):
        kernel = NumpyMatcherKernel()
        assert resolve_matcher_backend(kernel) is kernel

    def test_unknown_backend_is_value_error_listing_choices(self):
        with pytest.raises(ValueError, match="valid backends are") as excinfo:
            resolve_matcher_backend("zontope")
        for name in matcher_backends():
            assert name in str(excinfo.value)

    def test_unknown_backend_surfaces_on_first_nonempty_query(self, one_bit_probes):
        codec, probes, words = one_bit_probes
        matcher = PackedMatcher(codec.word_codec, backend="typo")
        # An empty matcher never dispatches, so the bad name is not hit yet.
        assert not matcher.contains_packed(probes).any()
        matcher.add_exact_packed(codec.word_codec.pack_codes(words))
        with pytest.raises(ValueError, match="unknown matcher backend 'typo'"):
            matcher.contains_packed(probes)

    def test_env_override_selects_backend(self, monkeypatch, one_bit_probes):
        codec, probes, words = one_bit_probes
        monkeypatch.setenv(MATCHER_BACKEND_ENV, "sharded")
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_exact_packed(codec.word_codec.pack_codes(words))
        assert matcher.backend_name == "sharded"
        assert matcher.contains_codes(words).all()

    def test_register_and_unregister_custom_backend(self, one_bit_probes):
        codec, probes, words = one_bit_probes
        spy = CountingKernel()
        register_matcher_backend("counting", lambda: spy)
        try:
            matcher = PackedMatcher(codec.word_codec, backend="counting")
            matcher.add_exact_packed(codec.word_codec.pack_codes(words))
            assert matcher.contains_codes(words).all()
            assert spy.calls == 1
        finally:
            unregister_matcher_backend("counting")
        with pytest.raises(ValueError):
            resolve_matcher_backend("counting")

    def test_bad_registrations_rejected(self):
        with pytest.raises(ConfigurationError):
            register_matcher_backend("", NumpyMatcherKernel)
        with pytest.raises(ConfigurationError):
            register_matcher_backend("broken", "not-a-factory")
        register_matcher_backend("broken", lambda: object())
        try:
            with pytest.raises(ConfigurationError, match="not a MatcherKernel"):
                resolve_matcher_backend("broken")
        finally:
            unregister_matcher_backend("broken")

    def test_compiled_backend_reports_fallback_honestly(self):
        kernel = resolve_matcher_backend("compiled")
        assert kernel.name == "compiled"
        assert kernel.effective_name in ("compiled", "numpy")
        info = kernel.describe()
        assert info["backend"] == "compiled"

    def test_abstract_kernel_passes_unimplemented(self):
        kernel = MatcherKernel()
        with pytest.raises(NotImplementedError):
            kernel.match_exact(np.zeros((1, 1), np.uint64), np.zeros((1, 1), np.uint64))


@pytest.fixture
def one_bit_probes():
    rng = np.random.default_rng(7)
    codec = PatternCodec.from_thresholds(np.zeros(10))
    words = rng.integers(0, 2, size=(6, 10))
    probes = codec.word_codec.pack_codes(rng.integers(0, 2, size=(4, 10)))
    return codec, probes, words


# ----------------------------------------------------------------------
# empty-matcher early-out (satellite: no dispatch, no warm-up)
# ----------------------------------------------------------------------
class TestEmptyMatcherEarlyOut:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_allocated_all_false_on_every_backend(self, backend):
        codec = WordCodec(70, 1)
        matcher = PackedMatcher(codec, backend=backend)
        probes = np.zeros((5, codec.num_words), dtype=np.uint64)
        hits = matcher.contains_packed(probes)
        assert hits.shape == (5,) and hits.dtype == bool and not hits.any()
        assert matcher.contains_codes(np.zeros((3, 70), dtype=np.int64)).shape == (3,)
        assert matcher.is_empty

    def test_no_kernel_dispatch_while_empty(self):
        spy = CountingKernel()
        codec = WordCodec(16, 1)
        matcher = PackedMatcher(codec, backend=spy)
        probes = np.zeros((8, codec.num_words), dtype=np.uint64)
        assert not matcher.contains_packed(probes).any()
        assert spy.calls == 0
        matcher.add_ternary_raw([1], [3])
        matcher.contains_packed(probes)
        assert spy.calls == 1

    def test_zero_probe_batch_skips_dispatch(self):
        spy = CountingKernel()
        codec = WordCodec(16, 1)
        matcher = PackedMatcher(codec, backend=spy)
        matcher.add_ternary_raw([1], [3])
        hits = matcher.contains_packed(np.zeros((0, codec.num_words), dtype=np.uint64))
        assert hits.shape == (0,)
        assert spy.calls == 0


# ----------------------------------------------------------------------
# tail-word masking at widths that are not multiples of 64
# ----------------------------------------------------------------------
class TestTailWordMasking:
    def test_tail_mask_values(self):
        assert tail_word_mask(64) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert tail_word_mask(65) == np.uint64(1)
        assert tail_word_mask(63) == np.uint64((1 << 63) - 1)
        mask = full_mask_words(65)
        assert mask.shape == (2,)
        assert mask[0] == np.uint64(0xFFFF_FFFF_FFFF_FFFF) and mask[1] == np.uint64(1)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_exact_membership_at_word_boundaries(self, backend, width):
        rng = np.random.default_rng(width)
        codec = WordCodec(width, 1)
        matcher = PackedMatcher(codec, backend=backend)
        words = rng.integers(0, 2, size=(12, width))
        matcher.add_exact_packed(codec.pack_codes(words))
        assert matcher.contains_codes(words).all()
        # Flipping only the *last* position (the tail-word bit) must miss
        # unless the flipped word was independently inserted.
        flipped = words.copy()
        flipped[:, -1] ^= 1
        stored = {tuple(row) for row in words}
        expected = np.array([tuple(row) in stored for row in flipped])
        np.testing.assert_array_equal(matcher.contains_codes(flipped), expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_ternary_dont_care_in_tail_word(self, backend, width):
        codec = WordCodec(width, 1)
        matcher = PackedMatcher(codec, backend=backend)
        # One ternary word: every position constrained to 0 except the last,
        # which is a don't-care (for width 1 that makes the word match all).
        num_words = words_for_bits(width)
        masks = full_mask_words(width)[None, :].copy()
        tail_bit = np.uint64(1) << np.uint64((width - 1) % 64)
        masks[0, -1] &= ~tail_bit
        values = np.zeros((1, num_words), dtype=np.uint64)
        matcher.add_ternary(TernaryPlanes(values=values, masks=masks))
        zeros = np.zeros((1, width), dtype=np.int64)
        last_set = zeros.copy()
        last_set[0, -1] = 1
        assert matcher.contains_codes(zeros)[0]
        assert matcher.contains_codes(last_set)[0]
        if width > 1:
            first_set = zeros.copy()
            first_set[0, 0] = 1
            assert not matcher.contains_codes(first_set)[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_membership_with_tail_positions(self, backend):
        # 33 positions × 2 bits = 66 bits: the last position's bits live in
        # the second machine word.
        codec = WordCodec(33, 2)
        matcher = PackedMatcher(codec, backend=backend)
        low = np.ones((1, 33), dtype=np.int64)
        high = np.full((1, 33), 2, dtype=np.int64)
        matcher.add_code_ranges(low, high)
        inside = np.full((1, 33), 2, dtype=np.int64)
        outside_tail = inside.copy()
        outside_tail[0, -1] = 3
        assert matcher.contains_codes(inside)[0]
        assert not matcher.contains_codes(outside_tail)[0]

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_packed_padding_bits_stay_zero(self, width):
        rng = np.random.default_rng(width + 1)
        codec = WordCodec(width, 1)
        packed = codec.pack_codes(rng.integers(0, 2, size=(9, width)))
        assert not np.any(packed & ~full_mask_words(width)[None, :])


# ----------------------------------------------------------------------
# per-backend behaviour
# ----------------------------------------------------------------------
class TestBackendBehaviour:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_structures_match_reference(self, backend):
        rng = np.random.default_rng(42)
        codec = PatternCodec(np.linspace(-1.0, 1.0, 40 * 3).reshape(40, 3))
        reference = PackedMatcher(codec.word_codec, backend="numpy")
        candidate = PackedMatcher(codec.word_codec, backend=backend)
        words = rng.integers(0, 4, size=(30, 40))
        low = np.maximum(words[:10] - 1, 0)
        high = np.minimum(words[:10] + 1, 3)
        for matcher in (reference, candidate):
            matcher.add_exact_packed(codec.word_codec.pack_codes(words[10:]))
            matcher.add_code_ranges(low, high)
        probes = np.vstack([words, rng.integers(0, 4, size=(200, 40))])
        np.testing.assert_array_equal(
            candidate.contains_codes(probes), reference.contains_codes(probes)
        )

    def test_set_backend_rebinds_live_matcher(self):
        rng = np.random.default_rng(3)
        codec = PatternCodec.from_thresholds(np.zeros(20))
        matcher = PackedMatcher(codec.word_codec)
        feats = rng.normal(size=(15, 20))
        matcher.add_ternary(codec.ternary_planes(feats - 0.2, feats + 0.2))
        probes = codec.encode(rng.normal(size=(50, 20)))
        before = matcher.contains_packed(probes)
        for backend in BACKENDS:
            matcher.set_backend(backend)
            assert matcher.backend_name == backend
            np.testing.assert_array_equal(matcher.contains_packed(probes), before)

    def test_sharded_kernel_actually_shards(self):
        inner = CountingKernel()
        kernel = ShardedMatcherKernel(inner=inner, min_shard_rows=16, max_workers=4)
        assert kernel.effective_name.startswith("sharded[")
        assert kernel.describe()["inner"]["backend"] == "counting"
        rng = np.random.default_rng(11)
        codec = PatternCodec.from_thresholds(np.zeros(12))
        matcher = PackedMatcher(codec.word_codec, backend=kernel)
        feats = rng.normal(size=(10, 12))
        matcher.add_ternary(codec.ternary_planes(feats - 0.3, feats + 0.3))
        reference = PackedMatcher(codec.word_codec, backend="numpy")
        reference.add_ternary(codec.ternary_planes(feats - 0.3, feats + 0.3))
        probes = codec.encode(rng.normal(size=(257, 12)))
        np.testing.assert_array_equal(
            matcher.contains_packed(probes), reference.contains_packed(probes)
        )
        # 257 rows at min_shard_rows=16 must have split into several shards.
        assert inner.calls > 1

    def test_sharded_small_batch_skips_pool(self):
        inner = CountingKernel()
        kernel = ShardedMatcherKernel(inner=inner, min_shard_rows=1024)
        codec = PatternCodec.from_thresholds(np.zeros(4))
        matcher = PackedMatcher(codec.word_codec, backend=kernel)
        matcher.add_ternary_raw([1], [15])
        matcher.contains_packed(np.zeros((5, 1), dtype=np.uint64))
        assert inner.calls == 1

    def test_compiled_fallback_is_bit_identical(self):
        # Whether or not numba is installed, the compiled kernel must agree
        # with the reference (locally it degrades to numpy; on the numba CI
        # leg it runs the fused jitted pass).
        rng = np.random.default_rng(23)
        kernel = CompiledMatcherKernel()
        codec = PatternCodec(np.linspace(-0.5, 0.5, 70 * 1).reshape(70, 1))
        reference = PackedMatcher(codec.word_codec, backend="numpy")
        candidate = PackedMatcher(codec.word_codec, backend=kernel)
        words = rng.integers(0, 2, size=(25, 70))
        feats = rng.normal(size=(10, 70))
        for matcher in (reference, candidate):
            matcher.add_exact_packed(codec.word_codec.pack_codes(words))
            matcher.add_ternary(codec.ternary_planes(feats - 0.1, feats + 0.1))
        probes = np.vstack([words, rng.integers(0, 2, size=(300, 70))])
        np.testing.assert_array_equal(
            candidate.contains_codes(probes), reference.contains_codes(probes)
        )


def _python_fused_match(probes, exact, values, masks, codes, low, high, out):
    """The jitted fused pass's semantics, one probe at a time."""
    assert codes.dtype == np.int64 and low.dtype == np.int64
    for i in range(probes.shape[0]):
        out[i] = (
            (exact == probes[i]).all(axis=1).any()
            or (((probes[i] ^ values) & masks) == 0).all(axis=1).any()
            or ((low <= codes[i]) & (codes[i] <= high)).all(axis=1).any()
        )


class TestCompiledDriver:
    """The compiled kernel's own driver, run on any host.

    Without numba the kernel degrades to numpy, so the code that feeds the
    fused pass runs only where numba is installed.  Standing a plain-Python
    fused pass in for the jitted one runs that driver everywhere.
    """

    @pytest.fixture
    def kernel(self, monkeypatch):
        from repro.runtime.kernels import compiled_backend

        monkeypatch.setattr(compiled_backend, "_fused_match", _python_fused_match, raising=False)
        kernel = CompiledMatcherKernel()
        kernel._fallback = None
        return kernel

    @pytest.mark.parametrize("structures", ["ranges", "exact", "exact+ranges"])
    @pytest.mark.parametrize("positions", [20, 70])
    def test_every_probe_form_matches_reference(self, kernel, structures, positions):
        rng = np.random.default_rng(positions)
        codec = PatternCodec(np.tile(np.linspace(-1.0, 1.0, 3), (positions, 1))).word_codec
        words = rng.integers(0, 4, size=(30, positions))
        reference = PackedMatcher(codec, backend="numpy")
        candidate = PackedMatcher(codec, backend=kernel)
        for matcher in (reference, candidate):
            if "exact" in structures:
                matcher.add_exact_packed(codec.pack_codes(words[10:]))
            if "ranges" in structures:
                low = np.maximum(words[:10] - 1, 0)
                matcher.add_code_ranges(low, np.minimum(words[:10] + 1, 3))
        codes = codec.validate_codes(np.vstack([words, rng.integers(0, 4, (100, positions))]))
        packed = codec.pack_codes(codes)
        expected = reference.contains_codes(codes)
        assert expected.any() and not expected.all()
        for args in ((packed, None), (None, codes), (packed, codes)):
            np.testing.assert_array_equal(candidate.contains_packed(*args), expected)

    def test_ternary_rows_match_reference(self, kernel):
        rng = np.random.default_rng(5)
        codec = PatternCodec.from_thresholds(np.zeros(70))
        feats = rng.normal(size=(10, 70))
        reference = PackedMatcher(codec.word_codec, backend="numpy")
        candidate = PackedMatcher(codec.word_codec, backend=kernel)
        for matcher in (reference, candidate):
            matcher.add_ternary(codec.ternary_planes(feats - 0.5, feats + 0.5))
        probes = codec.encode(np.vstack([feats, rng.normal(size=(50, 70))]))
        np.testing.assert_array_equal(
            candidate.contains_packed(probes), reference.contains_packed(probes)
        )
