"""The packed mirror is minimal, and minimising it never changes the set.

Every insert keeps the mirror free of duplicates and of rows another stored
row covers, and the BDD is built on demand from the kept rows only.  The
canonical BDD is the oracle: after any interleaving of inserts and unions
the mirror must answer exactly what the BDD answers, across both
serialization formats, and the lazily built BDD
must be the very one an eager, unpruned build of every inserted row gives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDDManager
from repro.bdd.patterns import PatternSet
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime import matcher as matcher_module
from repro.runtime.codec import TernaryPlanes
from repro.runtime.packing import pack_bool_matrix, unpack_bool_matrix


def planes(values, masks):
    values = np.asarray(values, dtype=bool)
    masks = np.asarray(masks, dtype=bool)
    return TernaryPlanes(
        values=pack_bool_matrix(values & masks), masks=pack_bool_matrix(masks)
    )


# ----------------------------------------------------------------------
# a brute-force minimality oracle, written independently of the matcher
# ----------------------------------------------------------------------
def stored_rows(state, codec):
    """Every stored row as ``(kind, admissible code sets per position)``."""
    rows = []
    for row in codec.unpack_codes(state["exact"]):
        rows.append(("exact", [{int(code)} for code in row]))
    if state["ternary_values"].shape[0]:
        values = unpack_bool_matrix(state["ternary_values"], codec.num_bits)
        masks = unpack_bool_matrix(state["ternary_masks"], codec.num_bits)
        for value, mask in zip(values, masks):
            rows.append(
                ("ternary", [{int(v)} if m else {0, 1} for v, m in zip(value, mask)])
            )
    for low, high in zip(state["range_low"], state["range_high"]):
        rows.append(
            ("range", [set(range(int(lo), int(hi) + 1)) for lo, hi in zip(low, high)])
        )
    return rows


def assert_minimal(state, codec):
    """No stored row is covered by (or identical to) another stored row."""
    rows = stored_rows(state, codec)
    for i, (kind_i, sets_i) in enumerate(rows):
        for j, (kind_j, sets_j) in enumerate(rows):
            if i == j or kind_j == "exact":
                continue
            if kind_i != "exact" and kind_i != kind_j:
                continue  # ternary and range rows are never compared
            inside = all(a <= b for a, b in zip(sets_i, sets_j))
            assert not inside, f"row {i} ({kind_i}) is covered by row {j} ({kind_j})"
    keys = [tuple(map(frozenset, sets)) + (kind,) for kind, sets in rows]
    assert len(keys) == len(set(keys)), "duplicate stored rows"


def all_words(num_positions, bits):
    codes = np.indices((1 << bits,) * num_positions).reshape(num_positions, -1).T
    return codes.astype(np.int64)


# ----------------------------------------------------------------------
# the cover rules, one at a time
# ----------------------------------------------------------------------
class TestCoverRules:
    def test_duplicates_keep_one_and_report_it(self):
        matcher = PackedMatcher(WordCodec(4, 1))
        batch = planes([[1, 0, 0, 0]] * 3, [[1, 1, 0, 0]] * 3)
        kept = matcher.add_ternary(batch)
        assert kept.tolist() == [True, False, False]
        assert matcher.num_ternary == 1
        assert not matcher.add_ternary(batch).any()
        assert matcher.num_ternary == 1

    def test_ternary_row_with_fewer_care_bits_covers(self):
        matcher = PackedMatcher(WordCodec(4, 1))
        # (1, -, -, -) covers (1, 0, -, -); (0, -, -, -) covers nothing here.
        kept = matcher.add_ternary(
            planes(
                [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
                [[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]],
            )
        )
        assert kept.tolist() == [False, True, True]
        assert matcher.num_ternary == 2

    def test_disagreeing_care_bits_do_not_cover(self):
        matcher = PackedMatcher(WordCodec(3, 1))
        kept = matcher.add_ternary(planes([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [1, 0, 0]]))
        assert kept.all()

    def test_new_ternary_row_evicts_stored_rows(self):
        matcher = PackedMatcher(WordCodec(4, 1))
        matcher.add_ternary(planes([[1, 1, 0, 0]], [[1, 1, 1, 0]]))
        matcher.add_exact_packed(WordCodec(4, 1).pack_codes(np.array([[1, 0, 1, 1]])))
        assert (matcher.num_ternary, matcher.num_exact) == (1, 1)
        matcher.add_ternary(planes([[1, 0, 0, 0]], [[1, 0, 0, 0]]))
        assert (matcher.num_ternary, matcher.num_exact) == (1, 0)
        state = matcher.export_state()
        assert state["ternary_masks"].tolist() == [[1]]

    def test_range_boxes_inside_another_are_dropped_and_evicted(self):
        matcher = PackedMatcher(WordCodec(3, 2))
        kept = matcher.add_code_ranges(
            np.array([[1, 1, 0], [1, 0, 0], [0, 2, 1]]),
            np.array([[2, 2, 1], [2, 3, 1], [0, 3, 3]]),
        )
        assert kept.tolist() == [False, True, True]
        kept = matcher.add_code_ranges(np.array([[0, 0, 0]]), np.array([[3, 3, 1]]))
        assert kept.tolist() == [True]
        state = matcher.export_state()
        assert state["range_low"].tolist() == [[0, 2, 1], [0, 0, 0]]
        assert state["range_high"].tolist() == [[0, 3, 3], [3, 3, 1]]

    def test_exact_rows_inside_ternary_or_range_rows_go(self):
        codec = WordCodec(2, 2)
        matcher = PackedMatcher(codec)
        matcher.add_code_ranges(np.array([[0, 1]]), np.array([[1, 2]]))
        kept = matcher.add_exact_packed(codec.pack_codes(np.array([[1, 1], [3, 3], [3, 3]])))
        assert kept.tolist() == [False, True, False]
        assert matcher.num_exact == 1
        # Point ranges are exact rows, so they are covered the same way.
        kept = matcher.add_code_ranges(np.array([[0, 2], [2, 2]]), np.array([[0, 2], [2, 2]]))
        assert kept.tolist() == [False, True]

    def test_queued_single_rows_are_minimised_on_consolidation(self):
        codec = WordCodec(3, 1)
        matcher = PackedMatcher(codec)
        matcher.add_ternary_raw([0b001], [0b011])
        matcher.add_ternary_raw([0b001], [0b001])
        matcher.add_ternary_raw([0b001], [0b001])
        matcher.add_exact_bytes((0b101).to_bytes(8, "little"))
        matcher.add_exact_bytes((0b110).to_bytes(8, "little"))
        assert (matcher.num_ternary, matcher.num_exact) == (1, 1)
        expected = [bool(word & 1) or word == 0b110 for word in range(8)]
        probes = np.array([[(w >> b) & 1 for b in range(3)] for w in range(8)])
        assert matcher.contains_codes(probes).tolist() == expected

    def test_merge_reminimises(self):
        codec = WordCodec(4, 2)
        left, right = PackedMatcher(codec), PackedMatcher(codec)
        left.add_code_ranges(np.array([[1, 1, 1, 1]]), np.array([[2, 2, 2, 2]]))
        left.add_exact_packed(codec.pack_codes(np.array([[3, 3, 3, 3]])))
        right.add_code_ranges(np.array([[0, 0, 0, 0]]), np.array([[3, 3, 3, 2]]))
        left.merge(right)
        state = left.export_state()
        assert state["range_low"].tolist() == [[0, 0, 0, 0]]
        assert state["exact"].shape[0] == 1
        assert_minimal(state, codec)

    def test_exact_rows_stay_row_sorted(self):
        codec = WordCodec(70, 1)
        rng = np.random.default_rng(11)
        matcher = PackedMatcher(codec)
        for _ in range(3):
            matcher.add_exact_packed(codec.pack_codes(rng.integers(0, 2, size=(20, 70))))
        exact = matcher.match_plan().exact
        order = np.lexsort(tuple(exact[:, w] for w in reversed(range(exact.shape[1]))))
        np.testing.assert_array_equal(order, np.arange(exact.shape[0]))

    def test_exact_only_matchers_never_run_the_cover_test(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cover test ran on an exact-only matcher")

        monkeypatch.setattr(matcher_module, "_covered", forbidden)
        monkeypatch.setattr(matcher_module, "_maximal_new_rows", forbidden)
        codec = WordCodec(1536, 1)
        rng = np.random.default_rng(5)
        patterns = PatternSet(1536)
        words = rng.integers(0, 2, size=(64, 1536))
        patterns.add_patterns(words)
        patterns.add_patterns(words[:8])
        assert patterns.contains_batch(words).all()
        assert patterns.packed_state()["exact"].shape == (64, codec.num_words)

    def test_cover_test_memory_is_chunked(self, monkeypatch):
        monkeypatch.setattr(matcher_module, "CHUNK_ELEMENTS", 64)
        codec = WordCodec(6, 2)
        rng = np.random.default_rng(2)
        low = rng.integers(0, 3, size=(120, 6))
        high = np.minimum(low + rng.integers(0, 2, size=low.shape), 3)
        chunked = PackedMatcher(codec)
        chunked.add_code_ranges(low, high)
        monkeypatch.undo()
        whole = PackedMatcher(codec)
        whole.add_code_ranges(low, high)
        for key, value in whole.export_state().items():
            np.testing.assert_array_equal(chunked.export_state()[key], value)


# ----------------------------------------------------------------------
# the property: random interleavings against the canonical BDD
# ----------------------------------------------------------------------
class ReferenceBDD:
    """Every inserted row built into its own BDD, nothing pruned."""

    def __init__(self, num_positions, bits):
        self.bits = bits
        self.manager = BDDManager(num_positions * bits)
        self.root = 0

    def _position(self, position, codes):
        alternatives = []
        for code in codes:
            literals = {
                position * self.bits + bit: bool((code >> (self.bits - 1 - bit)) & 1)
                for bit in range(self.bits)
            }
            alternatives.append(self.manager.cube(literals))
        return self.manager.disjoin(alternatives)

    def add_code_sets(self, code_sets):
        row = self.manager.conjoin(
            self._position(position, codes) for position, codes in enumerate(code_sets)
        )
        self.root = self.manager.apply_or(self.root, row)


@st.composite
def operations(draw):
    num_positions = draw(st.integers(min_value=1, max_value=5))
    bits = draw(st.integers(min_value=1, max_value=2))
    num_codes = 1 << bits
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kinds = ["words", "ranges", "code_sets", "union"]
        if bits == 1:
            kinds.append("ternary")
        kind = draw(st.sampled_from(kinds))
        rows = draw(st.integers(min_value=0, max_value=12))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        low = rng.integers(0, num_codes, size=(rows, num_positions))
        high = np.minimum(low + rng.integers(0, num_codes, size=low.shape), num_codes - 1)
        if kind == "words":
            ops.append(("words", low))
        elif kind == "ranges":
            ops.append(("ranges", (low, high)))
        elif kind == "ternary":
            ops.append(("ternary", (high == low, low.astype(bool))))
        # Contiguous, the only kind add_code_sets accepts.
        firsts = rng.integers(0, num_codes, size=num_positions)
        lasts = rng.integers(firsts, num_codes)
        sets = [list(range(a, b + 1)) for a, b in zip(firsts.tolist(), lasts.tolist())]
        if kind == "code_sets":
            ops.append(("code_sets", sets))
        else:
            # The other set of a union sometimes holds a code-set row too.
            ops.append(("union", (low, high, sets if rows % 2 else None)))
    return num_positions, bits, ops


def apply(op, patterns, reference):
    kind, payload = op
    if kind == "words":
        patterns.add_patterns(payload)
        for row in payload:
            reference.add_code_sets([[int(code)] for code in row])
    elif kind == "ranges":
        low, high = payload
        patterns.add_range_patterns(low, high)
        for lo, hi in zip(low, high):
            reference.add_code_sets([range(a, b + 1) for a, b in zip(lo, hi)])
    elif kind == "ternary":
        masks, values = payload
        patterns.add_ternary_patterns(planes(values, masks))
        for value, mask in zip(values, masks):
            reference.add_code_sets([[int(v)] if m else [0, 1] for v, m in zip(value, mask)])
    elif kind == "code_sets":
        patterns.add_code_sets(payload)
        reference.add_code_sets(payload)
    else:
        low, high, sets = payload
        other = PatternSet(patterns.num_positions, patterns.bits_per_position)
        other.add_range_patterns(low, high)
        if sets is not None:
            other.add_code_sets(sets)
            reference.add_code_sets(sets)
        patterns.union(other)
        for lo, hi in zip(low, high):
            reference.add_code_sets([range(a, b + 1) for a, b in zip(lo, hi)])


def bdd_verdicts(patterns, probes):
    return np.array([patterns.contains(list(word)) for word in probes], dtype=bool)


@settings(max_examples=60, deadline=None)
@given(case=operations())
def test_random_interleavings_keep_a_minimal_exact_mirror(case):
    num_positions, bits, ops = case
    patterns = PatternSet(num_positions, bits_per_position=bits)
    reference = ReferenceBDD(num_positions, bits)
    for index, op in enumerate(ops):
        apply(op, patterns, reference)
        if index % 2:
            patterns.root  # build the BDD, so later inserts must rebuild it

    probes = all_words(num_positions, bits)
    materialised = patterns.bdd_materialised
    mirror = patterns.contains_batch(probes)
    assert patterns.bdd_materialised == materialised  # no BDD needed
    expected = bdd_verdicts(patterns, probes)
    np.testing.assert_array_equal(mirror, expected)
    sample = probes[:: max(1, probes.shape[0] // 8)]
    for gamma in (0, 1):
        within = patterns.min_distance_batch(sample, gamma) <= gamma
        oracle = [patterns._within_hamming_bdd(list(word), gamma) for word in sample]
        assert within.tolist() == oracle

    # The pruned build is the unpruned one, node for node.
    assert patterns.dag_size() == reference.manager.dag_size(reference.root)
    assert patterns.cardinality() == reference.manager.count_solutions_exact(
        reference.root
    )
    expected_words = {tuple(w) for w, hit in zip(probes.tolist(), expected) if hit}
    assert set(patterns.iterate_words()) == expected_words

    state = patterns._matcher.export_state()
    assert_minimal(state, patterns.codec)

    # Format 1: the enumerated words come back as a minimal exact mirror.
    words = np.array(list(patterns.iterate_words()), dtype=np.int64)
    format1 = PatternSet(num_positions, bits_per_position=bits)
    if words.size:
        format1.add_patterns(words.reshape(-1, num_positions))
    np.testing.assert_array_equal(format1.contains_batch(probes), expected)
    assert_minimal(format1.packed_state(), format1.codec)

    # Format 2: the minimal image, and an old redundant image (every row
    # twice plus each stored row's words spelled out), load minimal.
    image = patterns.packed_state()
    redundant = {key: np.concatenate([value, value]) for key, value in image.items()}
    redundant["exact"] = np.concatenate(
        [redundant["exact"], patterns.codec.pack_codes(probes[expected])]
    ).astype("<u8")
    for state in (image, redundant):
        restored = PatternSet.from_packed_state(num_positions, bits, state)
        np.testing.assert_array_equal(restored.contains_batch(probes), expected)
        assert_minimal(restored.packed_state(), restored.codec)
        for key, value in image.items():
            assert restored.packed_state()[key].shape == value.shape
        assert restored.dag_size() == patterns.dag_size()


def test_insertions_count_rows_inserted_not_rows_stored():
    patterns = PatternSet(3, bits_per_position=2)
    patterns.add_range_patterns(np.array([[0, 0, 0]] * 4), np.array([[3, 3, 1]] * 4))
    patterns.add_patterns(np.array([[1, 2, 0], [3, 3, 3]]))
    assert patterns.insertions == 6
    assert (
        patterns._matcher.num_ranges,
        patterns._matcher.num_exact,
    ) == (1, 1)
