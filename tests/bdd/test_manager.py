"""Tests for the ROBDD manager: canonicity, Boolean algebra, counting."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import FALSE, TRUE, BDDManager
from repro.exceptions import ConfigurationError


def brute_force_truth_table(manager, ref, num_vars):
    """Evaluate a BDD on every assignment (tiny num_vars only)."""
    return {
        assignment: manager.evaluate(ref, list(assignment))
        for assignment in itertools.product([False, True], repeat=num_vars)
    }


class TestNodeConstruction:
    def test_terminals_exist(self):
        manager = BDDManager(3)
        assert manager.is_terminal(FALSE)
        assert manager.is_terminal(TRUE)
        assert manager.num_nodes == 2

    def test_var_and_nvar_are_complementary(self):
        manager = BDDManager(2)
        x0 = manager.var(0)
        not_x0 = manager.nvar(0)
        assert manager.apply_and(x0, not_x0) == FALSE
        assert manager.apply_or(x0, not_x0) == TRUE

    def test_hash_consing_gives_identical_nodes(self):
        manager = BDDManager(2)
        assert manager.var(1) == manager.var(1)
        a = manager.apply_and(manager.var(0), manager.var(1))
        b = manager.apply_and(manager.var(1), manager.var(0))
        assert a == b  # canonical form: conjunction is order-independent

    def test_out_of_range_variable_rejected(self):
        manager = BDDManager(2)
        with pytest.raises(ConfigurationError):
            manager.var(2)
        with pytest.raises(ConfigurationError):
            manager.nvar(-1)

    def test_negative_var_count_rejected(self):
        with pytest.raises(ConfigurationError):
            BDDManager(-1)


class TestBooleanAlgebra:
    def test_ite_shortcuts(self):
        manager = BDDManager(2)
        x = manager.var(0)
        y = manager.var(1)
        assert manager.ite(TRUE, x, y) == x
        assert manager.ite(FALSE, x, y) == y
        assert manager.ite(x, y, y) == y
        assert manager.ite(x, TRUE, FALSE) == x

    def test_double_negation(self):
        manager = BDDManager(3)
        f = manager.apply_or(manager.var(0), manager.apply_and(manager.var(1), manager.nvar(2)))
        assert manager.negate(manager.negate(f)) == f

    def test_de_morgan(self):
        manager = BDDManager(2)
        x, y = manager.var(0), manager.var(1)
        left = manager.negate(manager.apply_and(x, y))
        right = manager.apply_or(manager.negate(x), manager.negate(y))
        assert left == right

    def test_disjoin(self):
        manager = BDDManager(3)
        literals = [manager.var(i) for i in range(3)]
        disj = manager.disjoin(literals)
        assert manager.evaluate(disj, [False, True, False])
        assert not manager.evaluate(disj, [False, False, False])

    def test_disjoin_empty_is_false(self):
        manager = BDDManager(1)
        assert manager.disjoin([]) == FALSE

    def test_disjoin_balanced_empty_is_false(self):
        manager = BDDManager(2)
        assert manager.disjoin_balanced([]) == FALSE
        assert manager.disjoin_balanced([FALSE, FALSE]) == FALSE

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 9))
    def test_disjoin_balanced_matches_disjoin(self, seed, count):
        """The tournament-style union is the same canonical node as the fold."""
        rng = np.random.default_rng(seed)
        manager = BDDManager(5)
        cubes = [
            manager.cube({var: bool(rng.integers(2)) for var in range(5) if rng.random() < 0.6})
            for _ in range(count)
        ]
        assert manager.disjoin_balanced(cubes) == manager.disjoin(cubes)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        assignment=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_random_formula_equivalence_property(self, seed, assignment):
        """A random formula built twice in different orders evaluates identically."""
        rng = np.random.default_rng(seed)
        manager = BDDManager(4)
        literals = [
            manager.var(i) if rng.random() < 0.5 else manager.nvar(i) for i in range(4)
        ]
        order = rng.permutation(4)
        f = reduce(manager.apply_and, [literals[i] for i in range(4)])
        g = reduce(manager.apply_and, [literals[i] for i in order])
        assert f == g
        expected = all(
            (assignment[i] if manager.node(literals[i])[2] == TRUE else not assignment[i])
            for i in range(4)
        )
        assert manager.evaluate(f, assignment) == expected


class TestRestrictAndQuantify:
    def test_restrict_fixes_variable(self):
        manager = BDDManager(2)
        f = manager.apply_and(manager.var(0), manager.var(1))
        assert manager.restrict(f, {0: True}) == manager.var(1)
        assert manager.restrict(f, {0: False}) == FALSE

    def test_exists_removes_variable(self):
        manager = BDDManager(2)
        f = manager.apply_and(manager.var(0), manager.var(1))
        assert manager.exists(f, [0]) == manager.var(1)

    def test_exists_of_tautology_in_variable(self):
        manager = BDDManager(1)
        f = manager.apply_or(manager.var(0), manager.nvar(0))
        assert manager.exists(f, [0]) == TRUE


class TestCountingAndModels:
    def test_count_simple_formulas(self):
        manager = BDDManager(3)
        assert manager.count_solutions_exact(TRUE) == 8
        assert manager.count_solutions_exact(FALSE) == 0
        assert manager.count_solutions_exact(manager.var(0)) == 4
        f = manager.apply_and(manager.var(0), manager.var(2))
        assert manager.count_solutions_exact(f) == 2

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(3)
        manager = BDDManager(5)
        f = FALSE
        for _ in range(4):
            cube = manager.cube(
                {int(i): bool(rng.integers(0, 2)) for i in rng.choice(5, size=3, replace=False)}
            )
            f = manager.apply_or(f, cube)
        brute = sum(brute_force_truth_table(manager, f, 5).values())
        assert manager.count_solutions_exact(f) == brute

    def test_iterate_models_matches_evaluation(self):
        manager = BDDManager(3)
        f = manager.apply_or(
            manager.apply_and(manager.var(0), manager.nvar(1)), manager.var(2)
        )
        models = set(manager.iterate_models(f))
        expected = {
            assignment
            for assignment, value in brute_force_truth_table(manager, f, 3).items()
            if value
        }
        assert models == expected

    def test_iterate_models_limit(self):
        manager = BDDManager(4)
        models = list(manager.iterate_models(TRUE, limit=5))
        assert len(models) == 5

    def test_evaluate_wrong_length_rejected(self):
        manager = BDDManager(3)
        with pytest.raises(ConfigurationError):
            manager.evaluate(TRUE, [True])


class TestCubes:
    def test_cube_size_is_linear_in_constrained_bits(self):
        """The word2set property: don't-cares never enlarge the BDD."""
        manager = BDDManager(64)
        cube = manager.cube({0: True, 63: False})
        assert manager.dag_size(cube) == 2

    def test_cube_semantics(self):
        manager = BDDManager(4)
        cube = manager.cube({1: True, 3: False})
        assert manager.evaluate(cube, [False, True, True, False])
        assert manager.evaluate(cube, [True, True, False, False])
        assert not manager.evaluate(cube, [False, False, True, False])
        assert not manager.evaluate(cube, [False, True, True, True])

    def test_cube_count_accounts_for_dont_cares(self):
        manager = BDDManager(6)
        cube = manager.cube({0: True, 5: True})
        assert manager.count_solutions_exact(cube) == 2**4

    def test_from_assignment_has_single_model(self):
        manager = BDDManager(5)
        assignment = [True, False, True, True, False]
        cube = manager.from_assignment(assignment)
        assert manager.count_solutions_exact(cube) == 1
        assert list(manager.iterate_models(cube)) == [tuple(assignment)]

    def test_from_assignment_length_checked(self):
        manager = BDDManager(3)
        with pytest.raises(ConfigurationError):
            manager.from_assignment([True])

    def test_dag_size_of_terminals_is_zero(self):
        manager = BDDManager(3)
        assert manager.dag_size(TRUE) == 0
        assert manager.dag_size(FALSE) == 0


def code_of(assignment, block, bits):
    """The code block ``block`` takes under ``assignment`` (MSB first)."""
    code = 0
    for bit in assignment[block * bits:(block + 1) * bits]:
        code = 2 * code + int(bit)
    return code


class TestCodeSets:
    """``code_sets``: the multi-bit ``word2set`` behind range insertion."""

    def test_code_sets_cartesian_product(self):
        manager = BDDManager(6)
        sets = [{0, 1}, {2}, {1, 2, 3}]
        ref = manager.code_sets(sets, bits=2)
        assert manager.count_solutions_exact(ref) == 2 * 1 * 3
        for assignment, value in brute_force_truth_table(manager, ref, 6).items():
            codes = [code_of(assignment, block, 2) for block in range(3)]
            assert value == all(code in allowed for code, allowed in zip(codes, sets))

    def test_full_code_set_is_unconstrained(self):
        manager = BDDManager(4)
        ref = manager.code_sets([{0, 1, 2, 3}, {1}], bits=2)
        assert ref == manager.cube({2: False, 3: True})
        assert manager.count_solutions_exact(ref) == 4

    def test_empty_code_set_is_false(self):
        manager = BDDManager(4)
        assert manager.code_sets([{0}, set()], bits=2) == FALSE

    def test_code_set_out_of_range_rejected(self):
        manager = BDDManager(2)
        with pytest.raises(ConfigurationError, match="do not fit"):
            manager.code_sets([{0, 2}, {1}], bits=1)

    def test_too_many_code_sets_rejected(self):
        manager = BDDManager(4)
        with pytest.raises(ConfigurationError, match="exceed"):
            manager.code_sets([{0}, {1}, {2}], bits=2)

    @settings(max_examples=30, deadline=None)
    @given(
        sets=st.lists(
            st.sets(st.integers(0, 3), min_size=1, max_size=4), min_size=3, max_size=3
        ),
        probe=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_code_set_membership_property(self, sets, probe):
        """Any code set — contiguous or not — is stored exactly."""
        manager = BDDManager(6)
        ref = manager.code_sets(sets, bits=2)
        codes = [code_of(probe, block, 2) for block in range(3)]
        assert manager.evaluate(ref, probe) == all(
            code in allowed for code, allowed in zip(codes, sets)
        )
        assert manager.count_solutions_exact(ref) == int(np.prod([len(s) for s in sets]))
