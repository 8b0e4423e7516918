"""Slow lifecycle tier: shadow under load, pool promotion, wire control.

These are the CI ``service-e2e`` additions for the lifecycle subsystem:
real producer threads scoring during refit/stage/promote, real spawned
worker processes reloaded through an artefact swap (including a worker
crash racing the promotion), and the lifecycle control frames end-to-end
over TCP.
"""

import threading
import time

import numpy as np
import pytest

from repro import MonitorPipeline, build_track_workload
from repro.exceptions import LifecycleStateError
from repro.lifecycle import LifecycleManager, MonitorStore
from repro.serving import ScoringClient, WorkerPool, save_deployment
from repro.service import BatchPolicy

pytestmark = pytest.mark.slow


class TestShadowUnderLoad:
    def test_refit_stage_promote_while_producers_stream(
        self, manager, scorer, rng, wide_inputs, live_monitor, candidate_monitor
    ):
        """The full lifecycle arc under concurrent traffic.

        Four producer threads stream frames the whole time; the control
        thread refits, waits for shadow evidence, and promotes with a
        post-promotion watch.  Every future must resolve, and every
        verdict must be one a real monitor version produced.
        """
        futures = []
        futures_lock = threading.Lock()
        stop = threading.Event()

        def produce(seed):
            local = np.random.default_rng(seed)
            while not stop.is_set():
                frame = local.uniform(-2.0, 2.0, size=6)
                future = scorer.submit(frame)
                with futures_lock:
                    futures.append((frame, future))

        producers = [
            threading.Thread(target=produce, args=(seed,)) for seed in range(4)
        ]
        for producer in producers:
            producer.start()
        try:
            version = manager.refit_and_stage("mon", wide_inputs, min_frames=16)
            assert version == 2
            # Wait for shadow evidence to accumulate under live traffic.
            deadline = 60.0
            while True:
                reports = manager.shadow_report("mon")
                frames = next(iter(reports.values()))["ledger"]["frames"] if reports else 0
                if frames >= 16 or deadline <= 0:
                    break
                stop.wait(0.05)
                deadline -= 0.05
            assert frames >= 16
            promoted = manager.promote("mon", watch_budget=0.9, watch_frames=10_000)
            assert promoted == 2
        finally:
            stop.set()
            for producer in producers:
                producer.join(30.0)
        assert not any(p.is_alive() for p in producers)

        old_ref = live_monitor
        new_ref = manager.store.load("mon", 2, scorer.network)
        with futures_lock:
            pending = list(futures)
        assert len(pending) > 0
        for frame, future in pending:
            verdict = future.result(60.0).warns["mon"]
            batch = frame[None, :]
            assert verdict in (
                bool(old_ref.warn_batch(batch)[0]),
                bool(new_ref.warn_batch(batch)[0]),
            )
        assert manager.live_version("mon") == 2


@pytest.fixture
def pool_deployment(tmp_path, tiny_network, live_monitor):
    """A fresh (per-test) bundle: promotions mutate it via artefact swap."""
    directory = tmp_path / "deployment"
    save_deployment(directory, tiny_network, {"mon": live_monitor})
    return directory


@pytest.fixture
def pool(pool_deployment):
    with WorkerPool(
        pool_deployment,
        num_workers=2,
        policy=BatchPolicy(max_batch=16, max_latency=0.002),
    ) as running:
        yield running


@pytest.fixture
def pool_manager(pool, tmp_path, tiny_network, live_monitor):
    manager = LifecycleManager(
        pool, MonitorStore(tmp_path / "store"), network=tiny_network
    )
    manager.deploy("mon", live_monitor)
    return manager


class TestPoolPromotion:
    def test_promotion_swaps_artefacts_and_flips_verdicts(
        self, pool, pool_manager, live_monitor, candidate_monitor, probe_frames
    ):
        pool_manager.stage("mon", candidate_monitor, shadow=False)
        before = [f.result(60).warns["mon"] for f in pool.submit_many(probe_frames)]
        assert before == live_monitor.warn_batch(probe_frames).tolist()

        assert pool_manager.promote("mon", guard=False, timeout=60.0) == 2
        after = [f.result(60).warns["mon"] for f in pool.submit_many(probe_frames)]
        assert after == candidate_monitor.warn_batch(probe_frames).tolist()
        assert after != before  # wide probes: the refit genuinely widened
        assert pool.describe()["generation"] == 1

    def test_rollback_restores_old_verdicts_across_processes(
        self, pool, pool_manager, live_monitor, candidate_monitor, probe_frames
    ):
        pool_manager.stage("mon", candidate_monitor, shadow=False)
        pool_manager.promote("mon", guard=False, timeout=60.0)
        assert pool_manager.rollback("mon", timeout=60.0) == 1
        served = [f.result(60).warns["mon"] for f in pool.submit_many(probe_frames)]
        assert served == live_monitor.warn_batch(probe_frames).tolist()
        assert pool.describe()["generation"] == 2  # one bump per swap

    def test_worker_crash_racing_the_promotion_still_converges(
        self, pool, pool_manager, candidate_monitor, probe_frames
    ):
        """Kill a worker, then promote immediately.

        The crash replacement boots from the already-swapped artefacts and
        acknowledges the new generation via its ready message — promotion
        must succeed, and every worker must serve the new version.
        """
        pool_manager.stage("mon", candidate_monitor, shadow=False)
        victim = next(iter(pool._workers.values()))
        victim.terminate()
        assert pool_manager.promote("mon", guard=False, timeout=120.0) == 2
        results = [f.result(120) for f in pool.submit_many(probe_frames)]
        served = [r.warns["mon"] for r in results]
        assert served == candidate_monitor.warn_batch(probe_frames).tolist()
        assert pool.num_workers == 2  # the replacement is back in rotation

    def test_pool_front_end_rejects_shadow_staging(self, pool_manager, candidate_monitor):
        with pytest.raises(LifecycleStateError):
            pool_manager.stage("mon", candidate_monitor, shadow=True)


@pytest.fixture
def one_worker(pool_deployment, tmp_path, tiny_network, live_monitor):
    """Factory: a started 1-worker pool plus a manager with v1 deployed."""
    pools = []

    def start(policy):
        pool = WorkerPool(pool_deployment, num_workers=1, policy=policy).start()
        pools.append(pool)
        store = MonitorStore(tmp_path / "store")
        manager = LifecycleManager(pool, store, network=tiny_network)
        manager.deploy("mon", live_monitor)
        return pool, manager

    yield start
    for pool in pools:
        pool.close(drain=False, timeout=60)


class TestPoolPromotionBoundary:
    """Frames submitted before ``promote`` score the old version on a pool.

    One worker, so there is no sibling to absorb a crashed batch: its
    re-queue waits for the replacement process, which boots from whatever
    the bundle holds at that moment.
    """

    def test_crashed_dispatched_batch_scores_the_old_version(
        self, one_worker, live_monitor, candidate_monitor, probe_frames
    ):
        pool, manager = one_worker(
            BatchPolicy(max_batch=len(probe_frames), max_latency=0.002)
        )
        manager.stage("mon", candidate_monitor, shadow=False)
        pool.inject_worker_crash()
        futures = pool.submit_many(probe_frames)  # one full batch: dispatched
        deadline = time.monotonic() + 30.0
        while not pool._outstanding and time.monotonic() < deadline:
            time.sleep(0.001)
        assert pool._outstanding or all(f.done() for f in futures)
        assert manager.promote("mon", guard=False, timeout=120.0) == 2
        served = [f.result(120).warns["mon"] for f in futures]
        assert served == live_monitor.warn_batch(probe_frames).tolist()
        assert pool.restarts == 1
        after = [f.result(120).warns["mon"] for f in pool.submit_many(probe_frames)]
        assert after == candidate_monitor.warn_batch(probe_frames).tolist()

    def test_held_partial_batch_scores_the_old_version(
        self, one_worker, live_monitor, candidate_monitor, probe_frames
    ):
        # A latency bound far above the test's lifetime: only the promotion
        # barrier can flush the partial batch before the swap.
        pool, manager = one_worker(BatchPolicy(max_batch=64, max_latency=60.0))
        manager.stage("mon", candidate_monitor, shadow=False)
        futures = pool.submit_many(probe_frames[:10])
        assert manager.promote("mon", guard=False, timeout=60.0) == 2
        served = [f.result(30).warns["mon"] for f in futures]
        assert served == live_monitor.warn_batch(probe_frames[:10]).tolist()


class TestWireLifecycleControl:
    @pytest.fixture
    def served(self, tmp_path):
        workload = build_track_workload(num_samples=100, epochs=2, seed=3)
        pipeline = MonitorPipeline(workload, family="minmax")
        server = pipeline.serve(
            remote=True,
            lifecycle=True,
            num_workers=2,
            max_batch=16,
            max_latency=0.002,
            log_path=str(tmp_path / "lifecycle-e2e.log"),
        )
        yield server, workload
        server.close(drain=False)

    def test_lifecycle_frames_end_to_end(self, served):
        server, workload = served
        manager = server.lifecycle
        assert manager is not None
        probe = workload.in_odd_eval.inputs[:12]

        with ScoringClient(server.address, timeout=120) as client:
            status = client.lifecycle_status()
            assert status["front_end"] == "worker_pool"
            assert set(status["monitors"]) == {"robust", "standard"}
            assert status["monitors"]["standard"]["live"] == 1

            old = manager.store.load("standard", network=workload.network)
            from repro.lifecycle import incremental_refit

            candidate = incremental_refit(old, workload.in_odd_eval.inputs)
            manager.stage("standard", candidate, shadow=False)

            promoted = client.promote("standard", guard=False, timeout=120)
            assert promoted == {"name": "standard", "version": 2}
            np.testing.assert_array_equal(
                client.score(probe)["standard"], candidate.warn_batch(probe)
            )

            rolled = client.rollback("standard", timeout=120)
            assert rolled == {"name": "standard", "version": 1}
            np.testing.assert_array_equal(
                client.score(probe)["standard"], old.warn_batch(probe)
            )

            # Pool front-ends cannot shadow: the error crosses the wire typed.
            with pytest.raises(LifecycleStateError):
                client.shadow_report()
