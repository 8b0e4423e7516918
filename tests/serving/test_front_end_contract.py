"""One contract, two front-ends: the in-process scorer and the worker pool.

Both front-ends are executors of the same :class:`~repro.service.FrontEnd`
core, so admission, coalescing, cancellation, ``close`` and ``quiesce``
must behave the same on either.  Every test here runs against both; the
pool parameter spawns a real worker process and is marked ``slow``.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ServiceClosedError, ServiceOverloadedError, ShapeError
from repro.service import BatchPolicy, StreamingScorer
from repro.serving import WorkerPool

#: A latency bound far above any test's lifetime: a partial batch stays
#: queued until the test (close, quiesce) decides its fate.
HOLD = 60.0


@pytest.fixture(
    params=["streaming_scorer", pytest.param("worker_pool", marks=pytest.mark.slow)]
)
def make_front_end(request, tiny_network, serving_monitors, deployment_bundle):
    """Factory of unstarted front-ends serving the session monitors."""
    made = []

    def make(**policy):
        policy = BatchPolicy(**policy)
        if request.param == "streaming_scorer":
            front_end = StreamingScorer(tiny_network, policy=policy)
            for name, monitor in serving_monitors.items():
                front_end.register(name, monitor)
        else:
            front_end = WorkerPool(deployment_bundle, num_workers=1, policy=policy)
        made.append(front_end)
        return front_end

    yield make
    for front_end in made:
        front_end.close(drain=False, timeout=60)


def assert_offline_verdicts(futures, frames, monitors):
    results = [future.result(60) for future in futures]
    for name, monitor in monitors.items():
        served = np.array([result.warns[name] for result in results])
        np.testing.assert_array_equal(served, monitor.warn_batch(frames))


def test_kind_is_reported(make_front_end):
    front_end = make_front_end()
    assert front_end.describe()["kind"] in ("streaming_scorer", "worker_pool")


def test_shape_errors(make_front_end, rng):
    front_end = make_front_end().start()
    with pytest.raises(ShapeError):
        front_end.submit_many(rng.normal(size=(3, 5)))  # wrong width
    with pytest.raises(ShapeError):
        front_end.submit(rng.normal(size=(2, 6)))  # two frames to submit()
    with pytest.raises(ShapeError):
        front_end.submit_many(rng.normal(size=(2, 3, 6)))  # not a burst
    assert front_end.stats.snapshot()["frames_submitted"] == 0


def test_empty_burst_is_a_no_op(make_front_end):
    front_end = make_front_end().start()
    assert front_end.submit_many(np.empty((0, 6))) == []
    assert front_end.stats.snapshot()["frames_submitted"] == 0


def test_submit_before_start_and_after_close(make_front_end, rng):
    front_end = make_front_end()
    with pytest.raises(ServiceClosedError):
        front_end.submit(rng.normal(size=6))
    front_end.start()
    front_end.close(drain=True, timeout=60)
    with pytest.raises(ServiceClosedError):
        front_end.submit_many(rng.normal(size=(2, 6)))
    with pytest.raises(ServiceClosedError):
        front_end.start()


def test_max_pending_overload(make_front_end, rng):
    front_end = make_front_end(max_batch=4, max_latency=HOLD, max_pending=4).start()
    front_end.submit_many(rng.normal(size=(3, 6)))
    with pytest.raises(ServiceOverloadedError):
        front_end.submit_many(rng.normal(size=(2, 6)))
    # The rejected burst was refused whole: nothing of it was queued.
    assert front_end.stats.snapshot()["frames_submitted"] == 3


def test_close_with_drain_scores_everything(make_front_end, serving_monitors, rng):
    front_end = make_front_end(max_batch=64, max_latency=HOLD).start()
    frames = rng.normal(size=(20, 6))
    futures = front_end.submit_many(frames)
    front_end.close(drain=True, timeout=120)
    assert all(future.done() for future in futures)
    assert_offline_verdicts(futures, frames, serving_monitors)
    snapshot = front_end.stats.snapshot()
    assert snapshot["frames_scored"] == 20
    assert snapshot["flush_reasons"]["drain"] >= 1


def test_close_without_drain_cancels_queued_frames(make_front_end, rng):
    front_end = make_front_end(max_batch=64, max_latency=HOLD).start()
    futures = front_end.submit_many(rng.normal(size=(6, 6)))
    front_end.close(drain=False, timeout=120)
    assert all(future.cancelled() for future in futures)
    assert front_end.stats.snapshot()["frames_cancelled"] == 6


def test_quiesce_flushes_a_held_partial_batch(make_front_end, serving_monitors, rng):
    front_end = make_front_end(max_batch=64, max_latency=HOLD).start()
    assert front_end.quiesce(timeout=5)  # nothing submitted: already quiet
    frames = rng.normal(size=(5, 6))
    futures = front_end.submit_many(frames)
    # The batch would wait HOLD seconds for company; quiesce flushes it now.
    assert front_end.quiesce(timeout=60)
    assert all(future.done() for future in futures)
    assert_offline_verdicts(futures, frames, serving_monitors)
    assert front_end.stats.snapshot()["frames_scored"] == 5


def test_quiesce_is_a_barrier_under_concurrent_submission(make_front_end):
    """When quiesce() returns True, every frame submitted before it began
    has resolved, while producers keep submitting throughout."""
    front_end = make_front_end(max_batch=16, max_latency=HOLD).start()
    stop = threading.Event()
    bursts = []  # list.append is atomic: producers share it without a lock

    def produce(seed):
        local = np.random.default_rng(seed)
        while not stop.is_set():
            rows = int(local.integers(1, 4))
            bursts.append(front_end.submit_many(local.normal(size=(rows, 6))))
            time.sleep(0.002)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    producers = [threading.Thread(target=produce, args=(seed,)) for seed in range(4)]
    try:
        for producer in producers:
            producer.start()
        for _ in range(10):
            before = [future for burst in list(bursts) for future in burst]
            assert front_end.quiesce(timeout=60)
            assert all(future.done() for future in before)
    finally:
        stop.set()
        for producer in producers:
            producer.join(30)
        sys.setswitchinterval(interval)
    assert not any(producer.is_alive() for producer in producers)
    assert len(bursts) > 0


def test_flush_reason_totals(make_front_end, rng):
    front_end = make_front_end(max_batch=4, max_latency=0.002).start()
    for rows in (4, 1, 4, 1):  # full bursts flush on size, singles on deadline
        for future in front_end.submit_many(rng.normal(size=(rows, 6))):
            future.result(60)
    snapshot = front_end.stats.snapshot()
    reasons = snapshot["flush_reasons"]
    assert set(reasons) == {"size", "adaptive", "deadline", "drain"}
    assert sum(reasons.values()) == snapshot["batches"] == 4
    assert reasons["size"] == 2
    assert reasons["deadline"] == 2
    assert reasons["adaptive"] == 0
