"""The matcher kernel: its one entry point, the routes into it, empty-matcher
early-outs and tail-word edge cases."""

import concurrent.futures

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime import kernels as kernels_module
from repro.runtime import matcher as matcher_module
from repro.runtime.codec import PatternCodec, TernaryPlanes
from repro.runtime.kernels import KERNEL, NumpyMatcherKernel, resolve_matcher_backend
from repro.runtime.packing import full_mask_words, tail_word_mask, words_for_bits

from ..oracles import runtime as oracle

#: Widths straddling machine-word boundaries (the tail-masking matrix).
EDGE_WIDTHS = [1, 63, 64, 65, 127, 128, 130]

#: Rows per shard on the ``sharded`` route: uneven against every batch here.
SHARD_ROWS = 5


class CountingKernel(NumpyMatcherKernel):
    """Spy kernel: the numpy passes plus a dispatch counter."""

    def __init__(self):
        self.calls = 0

    def match(self, plan, packed, codes=None):
        self.calls += 1
        return super().match(plan, packed, codes=codes)


@pytest.fixture
def spy(monkeypatch):
    """A :class:`CountingKernel` standing in for the shared kernel."""
    kernel = CountingKernel()
    monkeypatch.setattr(matcher_module, "KERNEL", kernel)
    return kernel


def whole_batch(matcher, codes):
    """The matcher's own call on the whole batch."""
    return matcher.contains_codes(codes)


def compiled_plan(matcher, codes):
    """The matcher's compiled plan straight into the kernel, both probe forms given."""
    codec = matcher.word_codec
    valid = codec.validate_codes(codes)
    return matcher_module.KERNEL.match(
        matcher.match_plan(), codec.pack_valid_codes(valid), codes=valid
    )


def row_shards(matcher, codes, rows=SHARD_ROWS):
    """The batch cut into row shards, each matched on its own, concatenated."""
    codes = np.asarray(codes)
    parts = [
        matcher.contains_codes(codes[start : start + rows])
        for start in range(0, len(codes), rows)
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


#: Three routes from a probe batch to the one kernel; each must give the same
#: verdicts.  They are keyed by the matcher back-ends the kernel replaced,
#: each of which stood for one of them: ``numpy`` the plain call,
#: ``compiled`` a fused pass over the compiled plan, ``sharded`` the batch
#: split into row shards.
ROUTES = {"compiled": compiled_plan, "numpy": whole_batch, "sharded": row_shards}


# ----------------------------------------------------------------------
# the one entry point
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert isinstance(resolve_matcher_backend(), NumpyMatcherKernel)
        # The registry, its environment variable and the alternative kernels are gone.
        for name in (
            "MATCHER_BACKEND_ENV",
            "MatcherKernel",
            "CompiledMatcherKernel",
            "ShardedMatcherKernel",
            "matcher_backends",
            "register_matcher_backend",
            "unregister_matcher_backend",
        ):
            assert not hasattr(kernels_module, name), name

    def test_resolve_reuses_instances(self):
        assert resolve_matcher_backend(None) is resolve_matcher_backend() is KERNEL
        assert isinstance(KERNEL, NumpyMatcherKernel)
        assert KERNEL.name == KERNEL.effective_name == "numpy"

    def test_unknown_backend_is_value_error_listing_choices(self):
        with pytest.raises(ValueError, match="zontope") as excinfo:
            resolve_matcher_backend("zontope")
        assert "numpy" in str(excinfo.value)
        # Every choice but None is refused, the old names and instances too.
        for choice in ("numpy", "compiled", "sharded", NumpyMatcherKernel()):
            with pytest.raises(ConfigurationError, match="numpy kernel is the only one"):
                resolve_matcher_backend(choice)

    def test_matchers_dispatch_to_the_shared_kernel(self, spy, one_bit_probes):
        codec, probes, words = one_bit_probes
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_exact_packed(codec.word_codec.pack_codes(words))
        assert matcher.contains_codes(words).all()
        assert spy.calls == 1

    def test_env_override_selects_backend(self, monkeypatch, spy, one_bit_probes):
        """The environment selects nothing: a stale override is ignored."""
        codec, probes, words = one_bit_probes
        monkeypatch.setenv("REPRO_MATCHER_BACKEND", "sharded")
        assert resolve_matcher_backend() is KERNEL
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_exact_packed(codec.word_codec.pack_codes(words))
        assert matcher.contains_codes(words).all()
        assert spy.calls == 1

    def test_register_and_unregister_custom_backend(self, monkeypatch, one_bit_probes):
        """A substitute kernel is installed and removed at ``matcher.KERNEL``.

        Matchers look the kernel up at query time, so one built before the
        swap serves through the substitute and, once it is removed, through
        the shared kernel again.
        """
        codec, probes, words = one_bit_probes
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_exact_packed(codec.word_codec.pack_codes(words))
        substitute = CountingKernel()
        with monkeypatch.context() as patch:
            patch.setattr(matcher_module, "KERNEL", substitute)
            assert matcher.contains_codes(words).all()
            assert substitute.calls == 1
        assert matcher_module.KERNEL is KERNEL
        assert matcher.contains_codes(words).all()
        assert substitute.calls == 1

    def test_bad_registrations_rejected(self):
        for choice in ("", NumpyMatcherKernel, lambda: NumpyMatcherKernel(), object()):
            with pytest.raises(ConfigurationError):
                resolve_matcher_backend(choice)
        # The matcher takes no back-end argument at all.
        with pytest.raises(TypeError):
            PackedMatcher(WordCodec(8, 1), backend="numpy")

    def test_compiled_backend_reports_fallback_honestly(self):
        """No alias, no silent fallback: the kernel reports what runs."""
        assert KERNEL.name == KERNEL.effective_name == "numpy"
        with pytest.raises(ConfigurationError, match="'compiled' is not available"):
            resolve_matcher_backend("compiled")


@pytest.fixture
def one_bit_probes():
    rng = np.random.default_rng(7)
    codec = PatternCodec.from_thresholds(np.zeros(10))
    words = rng.integers(0, 2, size=(6, 10))
    probes = codec.word_codec.pack_codes(rng.integers(0, 2, size=(4, 10)))
    return codec, probes, words


# ----------------------------------------------------------------------
# empty-matcher early-out (no dispatch, no warm-up)
# ----------------------------------------------------------------------
class TestEmptyMatcherEarlyOut:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_allocated_all_false_on_every_backend(self, route):
        codec = WordCodec(70, 1)
        matcher = PackedMatcher(codec)
        probes = np.zeros((5, codec.num_words), dtype=np.uint64)
        hits = matcher.contains_packed(probes)
        assert hits.shape == (5,) and hits.dtype == bool and not hits.any()
        codes = np.zeros((3, 70), dtype=np.int64)
        hits = ROUTES[route](matcher, codes)
        assert hits.shape == (3,) and hits.dtype == bool and not hits.any()
        assert matcher.is_empty

    def test_no_kernel_dispatch_while_empty(self, spy):
        codec = WordCodec(16, 1)
        matcher = PackedMatcher(codec)
        probes = np.zeros((8, codec.num_words), dtype=np.uint64)
        assert not matcher.contains_packed(probes).any()
        assert spy.calls == 0
        matcher.add_ternary_raw([1], [3])
        matcher.contains_packed(probes)
        assert spy.calls == 1

    def test_zero_probe_batch_skips_dispatch(self, spy):
        codec = WordCodec(16, 1)
        matcher = PackedMatcher(codec)
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

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_exact_membership_at_word_boundaries(self, route, width):
        rng = np.random.default_rng(width)
        codec = WordCodec(width, 1)
        matcher = PackedMatcher(codec)
        words = rng.integers(0, 2, size=(12, width))
        matcher.add_exact_packed(codec.pack_codes(words))
        assert ROUTES[route](matcher, words).all()
        # Flipping only the *last* position (the tail-word bit) must miss
        # unless the flipped word was independently inserted.
        flipped = words.copy()
        flipped[:, -1] ^= 1
        stored = {tuple(row) for row in words}
        expected = np.array([tuple(row) in stored for row in flipped])
        np.testing.assert_array_equal(ROUTES[route](matcher, flipped), expected)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_ternary_dont_care_in_tail_word(self, route, width):
        codec = WordCodec(width, 1)
        matcher = PackedMatcher(codec)
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
        assert ROUTES[route](matcher, zeros)[0]
        assert ROUTES[route](matcher, last_set)[0]
        if width > 1:
            first_set = zeros.copy()
            first_set[0, 0] = 1
            assert not ROUTES[route](matcher, first_set)[0]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_range_membership_with_tail_positions(self, route):
        # 33 positions × 2 bits = 66 bits: the last position's bits live in
        # the second machine word.
        codec = WordCodec(33, 2)
        matcher = PackedMatcher(codec)
        low = np.ones((1, 33), dtype=np.int64)
        high = np.full((1, 33), 2, dtype=np.int64)
        matcher.add_code_ranges(low, high)
        inside = np.full((1, 33), 2, dtype=np.int64)
        outside_tail = inside.copy()
        outside_tail[0, -1] = 3
        assert ROUTES[route](matcher, inside)[0]
        assert not ROUTES[route](matcher, outside_tail)[0]

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_packed_padding_bits_stay_zero(self, width):
        rng = np.random.default_rng(width + 1)
        codec = WordCodec(width, 1)
        packed = codec.pack_codes(rng.integers(0, 2, size=(9, width)))
        assert not np.any(packed & ~full_mask_words(width)[None, :])


# ----------------------------------------------------------------------
# kernel behaviour
# ----------------------------------------------------------------------
def mixed_structures(rng, codec, num_words=30):
    """Exact rows and code ranges over ``codec``, plus probes and their oracle verdicts."""
    positions = codec.num_positions
    words = rng.integers(0, 4, size=(num_words, positions))
    low = np.maximum(words[:10] - 1, 0)
    high = np.minimum(words[:10] + 1, 3)
    probes = np.vstack([words, rng.integers(0, 4, size=(200, positions))])
    bits = codec.bits_per_position
    expected = oracle.match_ranges(probes, low, high) | oracle.match_exact(
        oracle.pack_bool_matrix(oracle.code_bits(probes, bits)),
        oracle.pack_bool_matrix(oracle.code_bits(words[10:], bits)),
    )
    return words[10:], (low, high), probes, expected


class TestBackendBehaviour:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_mixed_structures_match_reference(self, route):
        rng = np.random.default_rng(42)
        codec = PatternCodec(np.linspace(-1.0, 1.0, 40 * 3).reshape(40, 3))
        exact, (low, high), probes, expected = mixed_structures(rng, codec.word_codec)
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_exact_packed(codec.word_codec.pack_codes(exact))
        matcher.add_code_ranges(low, high)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(ROUTES[route](matcher, probes), expected)

    def test_set_backend_rebinds_live_matcher(self, monkeypatch):
        """A live matcher re-binds to a swapped kernel on its next query.

        There is no per-matcher ``set_backend``: the shared kernel is the one
        binding, read at query time, so the plan a matcher already built is
        served unchanged by whatever kernel is installed.
        """
        rng = np.random.default_rng(3)
        codec = PatternCodec.from_thresholds(np.zeros(20))
        matcher = PackedMatcher(codec.word_codec)
        assert not hasattr(matcher, "set_backend")
        feats = rng.normal(size=(15, 20))
        matcher.add_ternary(codec.ternary_planes(feats - 0.2, feats + 0.2))
        probes = codec.encode(rng.normal(size=(50, 20)))
        before = matcher.contains_packed(probes)
        substitute = CountingKernel()
        monkeypatch.setattr(matcher_module, "KERNEL", substitute)
        np.testing.assert_array_equal(matcher.contains_packed(probes), before)
        assert substitute.calls == 1

    def test_sharded_kernel_actually_shards(self, spy):
        """Row shards dispatch once each and concatenate to the whole-batch answer."""
        rng = np.random.default_rng(11)
        codec = PatternCodec.from_thresholds(np.zeros(12))
        matcher = PackedMatcher(codec.word_codec)
        feats = rng.normal(size=(10, 12))
        matcher.add_ternary(codec.ternary_planes(feats - 0.3, feats + 0.3))
        codes = codec.word_codec.unpack_codes(codec.encode(rng.normal(size=(257, 12))))
        whole = whole_batch(matcher, codes)
        assert spy.calls == 1
        np.testing.assert_array_equal(row_shards(matcher, codes, rows=16), whole)
        # 257 rows at 16 rows a shard: 17 dispatches.
        assert spy.calls == 1 + 17

    def test_sharded_small_batch_skips_pool(self, spy, monkeypatch):
        """A query runs in the calling thread: no executor is ever started."""

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the matcher started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _forbidden)
        codec = PatternCodec.from_thresholds(np.zeros(4))
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_ternary_raw([1], [15])
        matcher.contains_packed(np.zeros((5, 1), dtype=np.uint64))
        assert spy.calls == 1

    def test_compiled_fallback_is_bit_identical(self):
        """The plan's precompiled lookups and the per-call fallbacks agree.

        Called without the plan's presorted exact keys or range table, the
        kernel builds them for the call; both ways must give the same bits.
        """
        rng = np.random.default_rng(23)
        codec = PatternCodec(np.linspace(-1.0, 1.0, 70 * 3).reshape(70, 3)).word_codec
        exact, (low, high), probes, expected = mixed_structures(rng, codec)
        matcher = PackedMatcher(codec)
        matcher.add_exact_packed(codec.pack_codes(exact))
        matcher.add_code_ranges(low, high)
        plan = matcher.match_plan()
        packed = codec.pack_codes(probes)
        valid = codec.validate_codes(probes)
        with_plan = KERNEL.match_exact(packed, plan.exact, keys=plan.exact_keys)
        np.testing.assert_array_equal(KERNEL.match_exact(packed, plan.exact), with_plan)
        with_plan = KERNEL.match_ranges(valid, plan.range_low, plan.range_high, plan.range_table)
        np.testing.assert_array_equal(
            KERNEL.match_ranges(valid, plan.range_low, plan.range_high), with_plan
        )
        np.testing.assert_array_equal(compiled_plan(matcher, probes), expected)


class TestCompiledDriver:
    """The matcher's driver in front of the kernel.

    :meth:`PackedMatcher.contains_packed` takes probes as packed words, as
    codes or as both, and hands the kernel exactly the forms the compiled
    plan reads.  Every form must give the reference verdicts.
    """

    @pytest.mark.parametrize("structures", ["ranges", "exact", "exact+ranges"])
    @pytest.mark.parametrize("positions", [20, 70])
    def test_every_probe_form_matches_reference(self, spy, structures, positions):
        rng = np.random.default_rng(positions)
        codec = PatternCodec(np.tile(np.linspace(-1.0, 1.0, 3), (positions, 1))).word_codec
        words = rng.integers(0, 4, size=(30, positions))
        matcher = PackedMatcher(codec)
        low = np.maximum(words[:10] - 1, 0)
        high = np.minimum(words[:10] + 1, 3)
        codes = codec.validate_codes(np.vstack([words, rng.integers(0, 4, (100, positions))]))
        packed = codec.pack_codes(codes)
        bits = codec.bits_per_position
        expected = np.zeros(codes.shape[0], dtype=bool)
        if "exact" in structures:
            matcher.add_exact_packed(codec.pack_codes(words[10:]))
            expected |= oracle.match_exact(
                oracle.pack_bool_matrix(oracle.code_bits(codes, bits)),
                oracle.pack_bool_matrix(oracle.code_bits(words[10:], bits)),
            )
        if "ranges" in structures:
            matcher.add_code_ranges(low, high)
            expected |= oracle.match_ranges(codes, low, high)
        assert expected.any() and not expected.all()
        for args in ((packed, None), (None, codes), (packed, codes)):
            np.testing.assert_array_equal(matcher.contains_packed(*args), expected)
        assert spy.calls == 3

    def test_ternary_rows_match_reference(self):
        rng = np.random.default_rng(5)
        codec = PatternCodec.from_thresholds(np.zeros(70))
        feats = rng.normal(size=(10, 70))
        planes = codec.ternary_planes(feats - 0.5, feats + 0.5)
        matcher = PackedMatcher(codec.word_codec)
        matcher.add_ternary(planes)
        probes = codec.encode(np.vstack([feats, rng.normal(size=(50, 70))]))
        expected = oracle.match_ternary(probes, planes.values, planes.masks)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(matcher.contains_packed(probes), expected)
        codes = codec.word_codec.unpack_codes(probes)
        np.testing.assert_array_equal(matcher.contains_packed(None, codes), expected)
