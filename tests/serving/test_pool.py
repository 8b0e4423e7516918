"""Worker pool tests: supervision bookkeeping (fast) and real process pools (slow).

:class:`TestWorkerPoolReap` drives the collector's reap path on a pool that
was never started, with stand-in process objects and real pipes, so it runs
in tier-1, as does :class:`TestWorkerPoolDeploy`.
The ``slow``-marked classes spawn actual worker processes from the session
deployment bundle — verdict bit-parity with the offline monitors, crash
recovery without frame loss, and fully clean shutdown are the acceptance
criteria of the CI ``service-e2e`` leg.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    LifecycleStateError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)
from repro.lifecycle import LifecycleManager, MonitorStore
from repro.monitors.builder import MonitorBuilder
from repro.service import BatchPolicy
from repro.service.streaming import FrameRequest
from repro.serving import WorkerPool
from repro.serving.pool import _Task


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _StandInProcess:
    """A worker process as the reaper sees it: alive or exited."""

    def __init__(self, alive):
        self.alive = alive
        self.exitcode = None if alive else -9

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


@pytest.fixture
def idle_pool(deployment_bundle):
    # Never started: no flush thread, collector or worker processes, and
    # no restart budget, so a reap spawns nothing.
    pool = WorkerPool(deployment_bundle, num_workers=1, max_restarts=0)
    yield pool
    pool._outstanding.clear()
    pool._workers.clear()
    pool.close()


class TestWorkerPoolReap:
    """Reaping a dead worker re-sends exactly the batches it still held."""

    def worker(self, pool, worker_id, alive):
        """Book a stand-in worker with real pipes; return its two ends."""
        task_reader, task_writer = multiprocessing.Pipe(duplex=False)
        result_reader, result_writer = multiprocessing.Pipe(duplex=False)
        pool._workers[worker_id] = _StandInProcess(alive)
        pool._tasks[worker_id] = task_writer
        pool._results[worker_id] = result_reader
        pool._held[worker_id] = []
        return task_reader, result_writer

    def task(self, pool, task_id, slot, worker_id, rows=3):
        requests = [
            FrameRequest(frame=np.zeros(6), enqueued_at=0.0) for _ in range(rows)
        ]
        pool._outstanding[task_id] = _Task(requests, slot, "size")
        pool._held[worker_id].append(task_id)
        return [request.future for request in requests]

    def sent(self, task_reader):
        messages = []
        while task_reader.poll(0.2):
            messages.append(task_reader.recv())
        return messages

    def test_dead_workers_batches_and_only_those_are_resent_in_order(self, idle_pool):
        pool = idle_pool
        self.worker(pool, 0, alive=False)
        sibling, _ = self.worker(pool, 1, alive=True)
        # A replacement still booting (no ready message yet) holds nothing
        # but takes nothing while a booted sibling lives.
        booting, _ = self.worker(pool, 2, alive=True)
        pool._reload_acks[1] = 0
        self.task(pool, 7, slot=0, worker_id=0)
        self.task(pool, 9, slot=1, worker_id=1)
        self.task(pool, 5, slot=2, worker_id=0)
        pool._check_workers()
        assert self.sent(sibling) == [("batch", 7, 0, 3, None), ("batch", 5, 2, 3, None)]
        assert self.sent(booting) == []
        assert pool._held == {1: [9, 7, 5], 2: []}
        assert list(pool._workers) == list(pool._tasks) == [1, 2]
        assert pool._broken is None

    def test_batch_answered_before_death_resolves_and_is_not_resent(self, idle_pool):
        pool = idle_pool
        _, dying = self.worker(pool, 0, alive=False)
        sibling, _ = self.worker(pool, 1, alive=True)
        answered = self.task(pool, 8, slot=1, worker_id=0)
        unanswered = self.task(pool, 7, slot=0, worker_id=0)
        # The worker answered batch 8, then died before the collector read it.
        dying.send(("done", 8, 0, {"minmax": bytes([1, 0, 1])}))
        dying.close()
        reader = pool._results[0]
        pool._check_workers()
        assert [f.result(0).warns["minmax"] for f in answered] == [True, False, True]
        assert self.sent(sibling) == [("batch", 7, 0, 3, None)]
        assert not any(f.done() for f in unanswered)
        assert 8 not in pool._outstanding and 1 in pool._free_slots
        assert 0 not in pool._results and reader.closed

    def test_last_worker_dead_with_no_budget_fails_everything_it_held(self, idle_pool):
        pool = idle_pool
        self.worker(pool, 0, alive=False)
        dispatched = self.task(pool, 7, slot=0, worker_id=0)
        queued = FrameRequest(frame=np.zeros(6), enqueued_at=0.0)
        pool._batcher.append(queued)
        pool._check_workers()
        for future in dispatched:
            with pytest.raises(WorkerCrashError):
                future.result(0)
        assert queued.future.cancelled()
        assert not pool._outstanding and not len(pool._batcher)
        assert not pool._held
        with pytest.raises(WorkerCrashError):
            pool.submit_many(np.zeros((1, 6)))


class TestWorkerPoolDeploy:
    """A pool deploys only the monitor its workers loaded from the bundle."""

    def test_deploy_checks_the_bundle_artefact(
        self, idle_pool, serving_monitors, tiny_network, tiny_inputs, tmp_path
    ):
        idle_pool.deploy("minmax", serving_monitors["minmax"])
        refit = MonitorBuilder("minmax", 4).build_and_fit(tiny_network, tiny_inputs[:8])
        with pytest.raises(LifecycleStateError):
            idle_pool.deploy("minmax", refit)
        manager = LifecycleManager(
            idle_pool, MonitorStore(tmp_path / "store"), network=tiny_network
        )
        with pytest.raises(LifecycleStateError):
            manager.deploy("minmax", refit)
        assert manager.store.live_version("minmax") is None


@pytest.mark.slow
class TestWorkerPoolScoring:
    @pytest.fixture(scope="class")
    def pool(self, deployment_bundle):
        with WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
        ) as running:
            yield running

    def test_two_workers_boot(self, pool):
        assert wait_for(lambda: pool.num_workers == 2)
        assert pool.monitor_names == ("boolean", "minmax")

    def test_verdicts_bit_identical_to_offline(
        self, pool, serving_monitors, probe_frames
    ):
        results = [future.result(60) for future in pool.submit_many(probe_frames)]
        for name, monitor in serving_monitors.items():
            remote = np.array([result.warns[name] for result in results])
            np.testing.assert_array_equal(remote, monitor.warn_batch(probe_frames))

    def test_single_frame_submit(self, pool, serving_monitors, rng):
        frame = rng.normal(size=6)
        result = pool.submit(frame).result(60)
        for name, monitor in serving_monitors.items():
            assert result.warns[name] == bool(monitor.warn_batch(frame[None, :])[0])

    def test_interleaved_bursts_from_threads(self, pool, serving_monitors, rng):
        import threading

        errors = []

        def producer(seed):
            try:
                local = np.random.default_rng(seed).normal(size=(17, 6))
                expected = serving_monitors["minmax"].warn_batch(local)
                for _ in range(3):
                    results = [f.result(60) for f in pool.submit_many(local)]
                    got = np.array([r.warns["minmax"] for r in results])
                    np.testing.assert_array_equal(got, expected)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=producer, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_shape_mismatch_rejected_before_dispatch(self, pool):
        with pytest.raises(ShapeError):
            pool.submit_many(np.ones((3, 5)))

    def test_stats_ledger_counts_scored_frames(self, pool, rng):
        before = pool.stats.snapshot()["frames_scored"]
        [f.result(60) for f in pool.submit_many(rng.normal(size=(9, 6)))]
        snapshot = pool.stats.snapshot()
        assert snapshot["frames_scored"] >= before + 9
        assert sum(snapshot["flush_reasons"].values()) == snapshot["batches"]

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), rows=st.integers(1, 24))
    def test_parity_property(self, pool, serving_monitors, seed, rows):
        frames = np.random.default_rng(seed).normal(size=(rows, 6))
        results = [future.result(60) for future in pool.submit_many(frames)]
        for name, monitor in serving_monitors.items():
            remote = np.array([result.warns[name] for result in results])
            np.testing.assert_array_equal(remote, monitor.warn_batch(frames))


@pytest.mark.slow
class TestWorkerPoolBoot:
    def test_each_boot_is_a_worker_ready_event(self, deployment_bundle):
        def ready_events():
            return [
                event
                for event in pool.stats.snapshot()["events"]
                if event["kind"] == "worker_ready"
            ]

        pool = WorkerPool(deployment_bundle, num_workers=2).start()
        try:
            assert wait_for(lambda: len(ready_events()) == 2)
            events = ready_events()
            assert sorted(event["name"] for event in events) == ["worker-0", "worker-1"]
            # spawn → ready: an interpreter start, imports and a bundle load
            assert all(0 < event["boot_s"] < 60 for event in events)
        finally:
            pool.close(drain=False, timeout=30)


@pytest.mark.slow
class TestWorkerPoolRecovery:
    def test_injected_crash_loses_no_accepted_frames(
        self, deployment_bundle, serving_monitors, rng
    ):
        with WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
        ) as pool:
            assert wait_for(lambda: pool.num_workers == 2)
            probe = rng.normal(size=(24, 6))
            pool.inject_worker_crash()
            futures = pool.submit_many(probe)
            results = [future.result(120) for future in futures]
            # every accepted frame resolved, with correct verdicts
            remote = np.array([result.warns["minmax"] for result in results])
            np.testing.assert_array_equal(
                remote, serving_monitors["minmax"].warn_batch(probe)
            )
            assert pool.restarts >= 1
            assert wait_for(lambda: pool.num_workers == 2)
            # the pool keeps scoring normally after the restart
            again = [f.result(60) for f in pool.submit_many(probe[:5])]
            assert len(again) == 5

    def test_idle_worker_killed_twenty_times_never_hangs_the_pool(
        self, deployment_bundle, serving_monitors, rng
    ):
        def idle():
            # Every worker booted and nothing in flight: both pipes quiet.
            with pool._lock:
                return (
                    len(pool._workers) == 2
                    and all(worker in pool._reload_acks for worker in pool._workers)
                    and not pool._outstanding
                )

        pool = WorkerPool(
            deployment_bundle,
            num_workers=2,
            max_restarts=20,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
        ).start()
        try:
            for _ in range(20):
                assert wait_for(idle, timeout=60)
                os.kill(pool._workers[min(pool._workers)].pid, signal.SIGKILL)
                probe = rng.normal(size=(16, 6))
                results = [future.result(30) for future in pool.submit_many(probe)]
                remote = np.array([result.warns["minmax"] for result in results])
                np.testing.assert_array_equal(
                    remote, serving_monitors["minmax"].warn_batch(probe)
                )
            assert wait_for(idle, timeout=60)
            assert pool.restarts == 20
        finally:
            # Bounded: a hung pool fails the test instead of stalling it.
            pool.close(drain=False, timeout=30)

    def test_restart_budget_exhaustion_breaks_the_pool(
        self, deployment_bundle, rng
    ):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            max_restarts=0,
            policy=BatchPolicy(max_batch=8, max_latency=0.002),
        )
        pool.start()
        try:
            assert wait_for(lambda: pool.num_workers == 1)
            pool.inject_worker_crash()
            futures = pool.submit_many(rng.normal(size=(4, 6)))
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(120)
            with pytest.raises(WorkerCrashError):
                pool.submit_many(rng.normal(size=(2, 6)))
        finally:
            pool.close(drain=False)

    def test_configuration_validation(self, deployment_bundle):
        with pytest.raises(ConfigurationError):
            WorkerPool(deployment_bundle, num_workers=0)
        with pytest.raises(ConfigurationError):
            WorkerPool(deployment_bundle, num_workers=2, max_restarts=-1)


@pytest.mark.slow
class TestWorkerPoolShutdown:
    def test_drain_close_scores_everything_and_reaps_children(
        self, deployment_bundle, serving_monitors, rng
    ):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.05),
        )
        pool.start()
        assert wait_for(lambda: pool.num_workers == 2)
        probe = rng.normal(size=(20, 6))
        futures = pool.submit_many(probe)
        ring_name = pool._ring.name
        pool.close(drain=True, timeout=120)
        # drain resolved every accepted future with correct verdicts
        results = [future.result(0) for future in futures]
        remote = np.array([result.warns["boolean"] for result in results])
        np.testing.assert_array_equal(
            remote, serving_monitors["boolean"].warn_batch(probe)
        )
        # no child processes survive close() — the CI leg's hard assertion
        assert wait_for(lambda: not multiprocessing.active_children(), timeout=10)
        # and the shared-memory segment is gone
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ring_name)

    def test_close_without_drain_cancels_queued_frames(self, deployment_bundle, rng):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            # A latency bound far above the test's lifetime keeps the queued
            # frames pending until close() decides their fate.
            policy=BatchPolicy(max_batch=64, max_latency=60.0),
        )
        pool.start()
        assert wait_for(lambda: pool.num_workers == 1)
        futures = pool.submit_many(rng.normal(size=(6, 6)))
        pool.close(drain=False, timeout=120)
        assert all(future.cancelled() for future in futures)
        assert pool.stats.snapshot()["frames_cancelled"] >= 6

    def test_submit_after_close_raises(self, deployment_bundle, rng):
        pool = WorkerPool(deployment_bundle, num_workers=1)
        pool.start()
        assert wait_for(lambda: pool.num_workers == 1)
        pool.close(drain=True, timeout=120)
        with pytest.raises(ServiceClosedError):
            pool.submit_many(rng.normal(size=(2, 6)))

    def test_backpressure_overload(self, deployment_bundle, rng):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            # A 60 s latency bound parks a below-max_batch burst in the
            # queue, so the second burst must trip the max_pending bound.
            policy=BatchPolicy(max_batch=8, max_latency=60.0, max_pending=8),
        )
        pool.start()
        try:
            assert wait_for(lambda: pool.num_workers == 1)
            pool.submit_many(rng.normal(size=(7, 6)))
            with pytest.raises(ServiceOverloadedError):
                pool.submit_many(rng.normal(size=(2, 6)))
        finally:
            pool.close(drain=False)
