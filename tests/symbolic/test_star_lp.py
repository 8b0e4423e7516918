"""The stacked star-LP tier against the seed loop, and soundness.

The contract under test: :class:`~repro.symbolic.star_lp.StackedStarLPBackend`
answers the same bound queries as the seed per-dimension loop
(``tests/oracles/symbolic.py``) — bit-identically while the predicate
polytopes are hypercubes (closed-form tier), and within LP tolerance once
unstable ReLUs constrain them.  On top of the pinned equivalence, bounds
must stay sound (contain sampled perturbed outputs) and star-backed robust
fits must produce identical abstractions whichever back-end computed their
perturbation estimates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.nn.network import mlp
from repro.symbolic.batched import BatchedBox
from repro.symbolic.interval import Box
from repro.symbolic.propagation import perturbation_bounds_batch
from repro.symbolic.star import StarSet
from repro.symbolic import star_lp as star_lp_module
from repro.symbolic.star_lp import StackedStarLPBackend, StarLPBackend, resolve_star_lp_backend

from ..oracles.symbolic import (
    LoopStarLPBackend,
    hypercube_bounds,
    star_bounds_loop,
    star_bounds_loop_batch,
    star_walk_full_query,
)

#: LP-tier agreement bound (ISSUE acceptance: within 1e-6 of the seed loop).
LP_ATOL = 1e-6


@pytest.fixture(scope="module")
def relu_network():
    return mlp(5, [10, 8], 3, activation="relu", seed=31)


class ShardedCalls(StackedStarLPBackend):
    """The stacked tier fed its stars ``shard`` at a time, answers concatenated.

    The stacked tier groups the stars of one call by basis shape and solves
    their LPs together; its answers must not depend on which stars share a
    call.
    """

    def __init__(self, shard: int) -> None:
        super().__init__()
        self.shard = shard
        self.calls = 0

    def bounds_many(self, stars):
        stars = list(stars)
        parts = []
        for start in range(0, max(len(stars), 1), self.shard):
            self.calls += 1
            parts.append(super().bounds_many(stars[start : start + self.shard]))
        if len(parts) == 1:
            return parts[0]
        return np.vstack([low for low, _ in parts]), np.vstack([high for _, high in parts])


#: The stacked tier as the robust fit calls it, against the seed loop.  The
#: ``sharded`` labels feed it stars in shards (``forced-sharding``: one star
#: a call), pinning that batch composition never changes an answer.
TIER_CONFIGS = [
    ("loop", lambda: LoopStarLPBackend()),
    ("stacked", lambda: None),
    ("sharded", lambda: ShardedCalls(shard=4)),
    ("forced-sharding", lambda: ShardedCalls(shard=1)),
]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert isinstance(resolve_star_lp_backend(None), StackedStarLPBackend)
        # The registry, its environment variable and the other tiers are gone;
        # the seed loop lives with the tests.
        for name in (
            "STAR_LP_BACKEND_ENV",
            "DEFAULT_STAR_LP_BACKEND",
            "LoopStarLPBackend",
            "ShardedStarLPBackend",
            "register_star_lp_backend",
            "unregister_star_lp_backend",
            "star_lp_backends",
        ):
            assert not hasattr(star_lp_module, name), name

    def test_unknown_name_raises_value_error_listing_backends(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_star_lp_backend("no-such-backend")
        message = str(excinfo.value)
        assert "no-such-backend" in message
        assert "StarLPBackend instance" in message

    def test_env_var_selects_default(self, monkeypatch):
        """The environment selects nothing: a stale override is ignored."""
        shared = resolve_star_lp_backend(None)
        monkeypatch.setenv("REPRO_STAR_LP_BACKEND", "loop")
        assert resolve_star_lp_backend(None) is shared

    def test_register_and_unregister_custom_backend(self, rng):
        """A custom back-end serves the call it is passed to, and only that call."""

        class Recording(StackedStarLPBackend):
            def bounds_many(self, stars):
                self.seen = len(stars)
                return super().bounds_many(stars)

        recording = Recording()
        assert resolve_star_lp_backend(recording) is recording
        inputs = rng.uniform(-1.0, 1.0, size=(3, 6))
        network = mlp(6, [5], 2, activation="relu", seed=3)
        perturbation_bounds_batch(
            network, inputs, 2, 0, 0.05, "star", star_lp_backend=recording
        )
        assert recording.seen == 3
        assert resolve_star_lp_backend(None) is not recording

    def test_register_rejects_bad_arguments(self):
        for choice in ("", "not-a-factory", StackedStarLPBackend):
            with pytest.raises(ConfigurationError):
                resolve_star_lp_backend(choice)

    def test_factory_must_return_backend(self):
        """Only a :class:`StarLPBackend` instance passes; factories do not."""
        for choice in (object(), lambda: object(), lambda: StackedStarLPBackend()):
            with pytest.raises(ConfigurationError):
                resolve_star_lp_backend(choice)
        assert isinstance(resolve_star_lp_backend(StarLPBackend()), StarLPBackend)

    def test_named_backends_are_shared_instances(self):
        shared = resolve_star_lp_backend(None)
        assert isinstance(shared, StackedStarLPBackend)
        assert resolve_star_lp_backend() is shared

    def test_instance_passthrough(self):
        backend = LoopStarLPBackend()
        assert resolve_star_lp_backend(backend) is backend

    def test_unknown_name_is_configuration_error(self):
        for choice in ("stacked", "loop", "sharded", object()):
            with pytest.raises(ConfigurationError, match="not available"):
                resolve_star_lp_backend(choice)

    def test_describe_reports_tier_structure(self):
        info = resolve_star_lp_backend(None).describe()
        assert info["name"] == "stacked"
        assert info["class"] == "StackedStarLPBackend"
        assert info["chunk_elements"] >= 1


class TestClosedFormTier:
    def test_hypercube_bounds_are_bitwise_identical_to_loop(self, rng):
        stars = [
            StarSet.from_box(
                Box.from_center(rng.normal(size=4), rng.uniform(0.05, 0.5))
            )
            for _ in range(9)
        ]
        loop_lows, loop_highs = LoopStarLPBackend().bounds_many(stars)
        stacked_lows, stacked_highs = StackedStarLPBackend().bounds_many(stars)
        np.testing.assert_array_equal(stacked_lows, loop_lows)
        np.testing.assert_array_equal(stacked_highs, loop_highs)

    def test_closed_form_tier_runs_zero_lps(self, rng, monkeypatch):
        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("closed-form tier entered linprog")

        # Patched where the solve imports it from, at call time.
        monkeypatch.setattr("scipy.optimize.linprog", _forbidden)
        backend = StackedStarLPBackend()
        stars = [
            StarSet.from_box(Box.from_center(rng.normal(size=3), 0.2))
            for _ in range(5)
        ]
        backend.bounds_many(stars)
        assert backend.stats["closed_form_stars"] >= 5
        assert backend.stats["lp_programs"] == 0

    def test_mixed_basis_shapes_grouped_correctly(self, rng):
        # from_box drops zero-radius directions, so degenerate boxes give
        # stars with fewer predicate rows — the grouping must keep them apart.
        wide = StarSet.from_box(Box.from_center(rng.normal(size=3), 0.3))
        low = np.array([-1.0, 0.5, 0.0])
        high = np.array([1.0, 0.5, 2.0])
        narrow = StarSet.from_box(Box(low, high))
        point = StarSet.from_point(rng.normal(size=3))
        stars = [wide, narrow, point, wide]
        lows, highs = StackedStarLPBackend().bounds_many(stars)
        ref_lows, ref_highs = LoopStarLPBackend().bounds_many(stars)
        np.testing.assert_array_equal(lows, ref_lows)
        np.testing.assert_array_equal(highs, ref_highs)

    def test_mismatched_dimensions_rejected(self):
        stars = [StarSet.from_point(np.zeros(2)), StarSet.from_point(np.zeros(3))]
        with pytest.raises(ConfigurationError):
            StackedStarLPBackend().bounds_many(stars)

    def test_empty_star_list(self):
        lows, highs = StackedStarLPBackend().bounds_many([])
        assert lows.shape == (0, 0) and highs.shape == (0, 0)


def constrained_stars(rng, count, dim=3):
    """Stars whose polytopes carry genuine (non-hypercube) constraints."""
    stars = []
    while len(stars) < count:
        box = Box.from_center(rng.normal(size=dim), rng.uniform(0.2, 0.8))
        weights = rng.normal(size=(dim, dim))
        bias = rng.normal(size=dim)
        image = StarSet.from_box(box).affine(weights, bias)
        star = image.relu(image.bounds())
        if not star.is_hypercube_domain:
            stars.append(star)
    return stars


class TestLPTier:
    def test_stacked_matches_loop_on_constrained_stars(self, rng):
        stars = constrained_stars(rng, 7)
        ref_lows, ref_highs = LoopStarLPBackend().bounds_many(stars)
        lows, highs = StackedStarLPBackend().bounds_many(stars)
        np.testing.assert_allclose(lows, ref_lows, rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref_highs, rtol=0.0, atol=LP_ATOL)

    def test_tiny_chunk_budget_still_matches(self, rng):
        # chunk_elements=1 forces one chunk per star: chunk composition must
        # never change the answers.
        stars = constrained_stars(rng, 5)
        reference = StackedStarLPBackend().bounds_many(stars)
        chunked = StackedStarLPBackend(chunk_elements=1).bounds_many(stars)
        np.testing.assert_allclose(chunked[0], reference[0], rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(chunked[1], reference[1], rtol=0.0, atol=LP_ATOL)

    def test_forced_sharding_matches_loop(self, rng):
        stars = constrained_stars(rng, 8)
        ref_lows, ref_highs = LoopStarLPBackend().bounds_many(stars)
        backend = ShardedCalls(shard=1)
        lows, highs = backend.bounds_many(stars)
        assert backend.calls == 8
        np.testing.assert_allclose(lows, ref_lows, rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref_highs, rtol=0.0, atol=LP_ATOL)

    def test_small_batches_bypass_the_pool(self, rng, monkeypatch):
        """Bounds are solved in the calling thread: no executor is ever started."""
        import concurrent.futures

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the star-LP tier started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _forbidden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _forbidden)
        stars = constrained_stars(rng, 3)
        ref = LoopStarLPBackend().bounds_many(stars)
        lows, highs = resolve_star_lp_backend(None).bounds_many(stars)
        np.testing.assert_allclose(lows, ref[0], rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref[1], rtol=0.0, atol=LP_ATOL)

    def test_zero_basis_columns_are_fixed_points(self, rng):
        star = constrained_stars(rng, 1)[0]
        basis = np.array(star.basis, copy=True)
        basis[:, 0] = 0.0  # dimension 0 cannot move off the centre
        pinned = StarSet(
            star.center, basis, star.constraints_a, star.constraints_b
        )
        backend = StackedStarLPBackend()
        backend.reset_stats()
        lows, highs = backend.bounds(pinned)
        assert lows[0] == pinned.center[0] == highs[0]
        assert backend.stats["skipped_zero_columns"] >= 1
        ref_lows, ref_highs = star_bounds_loop(pinned)
        np.testing.assert_allclose(lows, ref_lows, rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref_highs, rtol=0.0, atol=LP_ATOL)

    def test_stats_attribute_lp_work(self, rng):
        backend = StackedStarLPBackend()
        backend.reset_stats()
        stars = constrained_stars(rng, 4) + [
            StarSet.from_box(Box.from_center(rng.normal(size=3), 0.1))
        ]
        backend.bounds_many(stars)
        assert backend.stats["lp_stars"] == 4
        assert backend.stats["closed_form_stars"] == 1
        assert backend.stats["lp_programs"] >= 1
        # 2 objectives per non-zero basis column, all answered by the solves.
        moving = sum(int(np.any(star.basis != 0.0, axis=0).sum()) for star in stars[:4])
        assert backend.stats["lp_objectives"] == 2 * moving

        # A sign-only query the predicate box settles needs no LP: the
        # constrained star counts as closed-form.
        shifted = [star.affine(np.eye(3), np.full(3, 50.0)) for star in stars[:4]]
        backend.reset_stats()
        backend.sign_bounds_many(shifted)
        assert backend.stats["closed_form_stars"] == 4
        assert backend.stats["lp_stars"] == backend.stats["lp_programs"] == 0


def box_decided_network(seed):
    """Two ReLU layers; the second one's inputs sit far from zero, so the
    predicate box decides every one of their signs."""
    network = mlp(4, [6, 5], 2, activation="relu", seed=seed)
    second = network.layers[2]
    rng = np.random.default_rng(seed)
    second.weights = second.weights * 0.01
    second.bias = rng.choice([-5.0, 5.0], size=second.bias.shape)
    return network


class RecordingSigns(StackedStarLPBackend):
    """The stacked tier, recording the stable/unstable split of every ReLU query."""

    def __init__(self) -> None:
        super().__init__()
        self.splits = []

    def sign_bounds_many(self, stars):
        lows, highs = super().sign_bounds_many(stars)
        self.splits.append(((lows < 0.0) & (highs > 0.0), highs <= 0.0))
        return lows, highs


class TestDecidePass:
    """The sign-only ReLU query against the full-query reference walk."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 5),
        delta=st.floats(1e-3, 0.3),
    )
    def test_walk_matches_full_query_walk(self, seed, batch, delta):
        rng = np.random.default_rng(seed)
        input_dim = int(rng.integers(2, 5))
        hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 4)))]
        network = mlp(input_dim, hidden, 2, activation="relu", seed=seed % 997)
        to_layer = len(network.layers)
        inputs = rng.uniform(-1.5, 1.5, size=(batch, input_dim))
        backend = RecordingSigns()
        lows, highs = perturbation_bounds_batch(
            network, inputs, to_layer, 0, delta, "star", star_lp_backend=backend
        )
        record = []
        final = star_walk_full_query(
            network,
            BatchedBox(inputs - delta, inputs + delta),
            0,
            to_layer,
            StackedStarLPBackend(),
            record,
        )
        assert len(backend.splits) == len(record) == len(hidden)
        for (unstable, negative), (ref_unstable, ref_negative) in zip(backend.splits, record):
            np.testing.assert_array_equal(unstable, ref_unstable)
            np.testing.assert_array_equal(negative, ref_negative)
        ref_lows, ref_highs = LoopStarLPBackend().bounds_many(final)
        np.testing.assert_allclose(lows, ref_lows, rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref_highs, rtol=0.0, atol=LP_ATOL)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), delta=st.floats(1e-3, 0.5))
    def test_hypercube_walk_is_bitwise_the_seed_closed_form(self, seed, delta):
        rng = np.random.default_rng(seed)
        network = mlp(3, [5, 4], 3, activation="tanh", seed=seed % 991)
        to_layer = len(network.layers)
        inputs = rng.uniform(-1.0, 1.0, size=(4, 3))
        backend = StackedStarLPBackend()
        lows, highs = perturbation_bounds_batch(
            network, inputs, to_layer, 0, delta, "star", star_lp_backend=backend
        )
        final = star_walk_full_query(
            network, BatchedBox(inputs - delta, inputs + delta), 0, to_layer, backend
        )
        assert all(star.is_hypercube_domain for star in final)
        np.testing.assert_array_equal(lows, np.stack([hypercube_bounds(s)[0] for s in final]))
        np.testing.assert_array_equal(highs, np.stack([hypercube_bounds(s)[1] for s in final]))
        assert backend.stats["lp_programs"] == 0

    def test_box_decided_relu_layer_runs_no_lp(self, rng):
        network = box_decided_network(seed=8)
        to_layer = len(network.layers)
        inputs = rng.uniform(-1.0, 1.0, size=(6, 4))
        delta = 0.3
        backend = StackedStarLPBackend()
        lows, highs = perturbation_bounds_batch(
            network, inputs, to_layer, 0, delta, "star", star_lp_backend=backend
        )
        final = star_walk_full_query(
            network, BatchedBox(inputs - delta, inputs + delta), 0, to_layer, backend
        )
        constrained = [star for star in final if not star.is_hypercube_domain]
        assert constrained, "the first ReLU layer must cross neurons"
        final_query = sum(
            2 * int(np.any(star.basis != 0.0, axis=0).sum()) for star in constrained
        )
        backend.reset_stats()
        perturbation_bounds_batch(
            network, inputs, to_layer, 0, delta, "star", star_lp_backend=backend
        )
        assert backend.stats["lp_objectives"] == final_query
        assert backend.stats["lp_programs"] == 1
        ref_lows, ref_highs = LoopStarLPBackend().bounds_many(final)
        np.testing.assert_allclose(lows, ref_lows, rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref_highs, rtol=0.0, atol=LP_ATOL)

    def test_hand_built_star_has_no_box_and_is_solved(self, rng):
        star = constrained_stars(rng, 1)[0]
        hand_built = StarSet(
            star.center + 60.0, star.basis, star.constraints_a, star.constraints_b
        )
        assert hand_built.predicate_box is None
        reference = star_bounds_loop(hand_built)
        for query in ("bounds_many", "sign_bounds_many"):
            backend = StackedStarLPBackend()
            lows, highs = getattr(backend, query)([hand_built])
            assert backend.stats["lp_stars"] == 1, query
            np.testing.assert_allclose(lows[0], reference[0], rtol=0.0, atol=LP_ATOL)
            np.testing.assert_allclose(highs[0], reference[1], rtol=0.0, atol=LP_ATOL)

    def test_loop_backend_answers_the_sign_query_by_lp(self, rng):
        stars = constrained_stars(rng, 3)
        loop = LoopStarLPBackend()
        for got, expected in zip(loop.sign_bounds_many(stars), loop.bounds_many(stars)):
            np.testing.assert_array_equal(got, expected)

    def test_box_bounds_contain_the_exact_bounds(self, rng):
        stars = constrained_stars(rng, 6)
        box_lows, box_highs = StackedStarLPBackend._closed_form(stars, 3)
        lows, highs = LoopStarLPBackend().bounds_many(stars)
        assert np.all(box_lows <= lows + LP_ATOL)
        assert np.all(box_highs >= highs - LP_ATOL)


class TestBatchedWalkEquivalence:
    @pytest.mark.parametrize("label,config", TIER_CONFIGS)
    def test_batched_walk_matches_seed_loop(self, relu_network, rng, label, config):
        inputs = rng.uniform(-1.0, 1.0, size=(9, 5))
        delta = 0.06
        lows, highs = perturbation_bounds_batch(
            relu_network, inputs, 4, 0, delta, "star", star_lp_backend=config()
        )
        batched_box = BatchedBox(inputs - delta, inputs + delta)
        ref_lows, ref_highs = star_bounds_loop_batch(relu_network, batched_box, 0, 4)
        np.testing.assert_allclose(
            lows, ref_lows, rtol=0.0, atol=LP_ATOL, err_msg=label
        )
        np.testing.assert_allclose(
            highs, ref_highs, rtol=0.0, atol=LP_ATOL, err_msg=label
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(2, 6),
        delta=st.floats(1e-4, 0.2),
    )
    def test_property_random_networks_and_boxes(self, seed, batch, delta):
        rng = np.random.default_rng(seed)
        input_dim = int(rng.integers(2, 5))
        hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
        network = mlp(input_dim, hidden, 2, activation="relu", seed=seed % 997)
        to_layer = len(network.layers)
        inputs = rng.uniform(-1.5, 1.5, size=(batch, input_dim))
        batched_box = BatchedBox(inputs - delta, inputs + delta)
        ref = star_bounds_loop_batch(network, batched_box, 0, to_layer)
        lows, highs = perturbation_bounds_batch(network, inputs, to_layer, 0, delta, "star")
        np.testing.assert_allclose(lows, ref[0], rtol=0.0, atol=LP_ATOL)
        np.testing.assert_allclose(highs, ref[1], rtol=0.0, atol=LP_ATOL)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_soundness_bounds_contain_sampled_perturbed_outputs(self, seed):
        rng = np.random.default_rng(seed)
        network = mlp(4, [8, 6], 3, activation="relu", seed=seed % 613)
        inputs = rng.uniform(-1.0, 1.0, size=(4, 4))
        delta = 0.08
        to_layer = len(network.layers)
        lows, highs = perturbation_bounds_batch(
            network, inputs, to_layer, 0, delta, "star"
        )
        noise = rng.uniform(-delta, delta, size=(20,) + inputs.shape)
        for perturbed in inputs[None, :, :] + noise:
            outputs = network.forward_to(to_layer, perturbed)
            assert np.all(outputs >= lows - 1e-6)
            assert np.all(outputs <= highs + 1e-6)


class TestRobustFitIdentity:
    @pytest.mark.parametrize("label,config", TIER_CONFIGS)
    def test_star_interval_fit_identical_across_backends(
        self, tiny_network, tiny_inputs, label, config
    ):
        """A star-backed interval monitor learns the same patterns per tier.

        The codec's scale-relative tolerance absorbs LP-tier round-off, so
        pattern words must agree *exactly* whichever back-end computed the
        perturbation estimates.
        """
        from repro.monitors.interval import RobustIntervalPatternMonitor
        from repro.monitors.perturbation import PerturbationSpec, collect_bound_arrays

        spec = PerturbationSpec(delta=0.02, layer=0, method="star")
        subset = tiny_inputs[:8]

        def fit_with(backend):
            monitor = RobustIntervalPatternMonitor(
                tiny_network, 4, spec, num_cuts=3
            )
            monitor._perturbation_bound_arrays = (
                lambda inputs, fit_spec: collect_bound_arrays(
                    tiny_network,
                    inputs,
                    monitor.layer_index,
                    fit_spec,
                    star_lp_backend=backend,
                )
            )
            monitor.fit(subset)
            return monitor

        reference = fit_with(LoopStarLPBackend())
        candidate = fit_with(config())
        assert sorted(candidate.patterns.iterate_words()) == sorted(
            reference.patterns.iterate_words()
        ), label
        assert candidate.pattern_count() == reference.pattern_count()

    def test_engine_star_backend_plumbing(self, tiny_network, tiny_inputs):
        """An engine's star_lp_backend reaches the propagation it performs."""
        from repro.monitors.perturbation import PerturbationSpec
        from repro.runtime.engine import BatchScoringEngine

        recording = StackedStarLPBackend()
        recording.reset_stats()
        engine = BatchScoringEngine(tiny_network, star_lp_backend=recording)
        spec = PerturbationSpec(delta=0.02, layer=0, method="star")
        lows, highs = engine.bound_arrays(tiny_inputs[:5], 4, spec)
        assert recording.stats["closed_form_stars"] + recording.stats["lp_stars"] > 0
        assert lows.shape == (5, tiny_network.layer_output_dim(4))
        assert np.all(lows <= highs)
