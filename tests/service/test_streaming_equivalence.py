"""Streaming-vs-offline equivalence, including property-based interleavings.

The acceptance bar of the streaming service: for *any* way of chopping a
frame stream into submit/submit_many calls, under *any* batching policy, the
resolved verdicts are identical to one offline ``warn_batch`` over the same
frames.  Hypothesis drives random frame sets, random burst boundaries and
random policies; the deterministic tests below pin the fixed corner cases.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monitors.boolean import BooleanPatternMonitor
from repro.monitors.builder import ClassConditionalMonitor, MonitorBuilder
from repro.monitors.minmax import MinMaxMonitor
from repro.service import BatchPolicy, StreamingScorer

TIMEOUT = 10.0


def _stream(scorer, frames, burst_sizes):
    """Submit ``frames`` chopped into the given burst sizes; return warns."""
    futures = []
    cursor = 0
    for burst in burst_sizes:
        chunk = frames[cursor : cursor + burst]
        cursor += burst
        if burst == 1:
            futures.append(scorer.submit(chunk[0]))
        else:
            futures.extend(scorer.submit_many(chunk))
    assert cursor == frames.shape[0]
    return [future.result(timeout=TIMEOUT) for future in futures]


@st.composite
def interleavings(draw):
    """Random frame count, burst boundaries and batching policy."""
    num_frames = draw(st.integers(min_value=1, max_value=24))
    bursts = []
    remaining = num_frames
    while remaining > 0:
        burst = draw(st.integers(min_value=1, max_value=remaining))
        bursts.append(burst)
        remaining -= burst
    policy = BatchPolicy(
        max_batch=draw(st.integers(min_value=1, max_value=8)),
        max_latency=draw(st.sampled_from([0.0, 0.001, 0.01])),
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return num_frames, bursts, policy, seed


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=interleavings())
def test_streaming_equals_offline_for_random_interleavings(
    tiny_network, fitted_monitors, case
):
    num_frames, bursts, policy, seed = case
    frames = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(num_frames, 6))
    with StreamingScorer(tiny_network, policy=policy) as scorer:
        for name, monitor in fitted_monitors.items():
            scorer.register(name, monitor)
        results = _stream(scorer, frames, bursts)
    assert len(results) == num_frames
    for name, monitor in fitted_monitors.items():
        streamed = np.array([result.warns[name] for result in results])
        offline = monitor.warn_batch(frames)
        np.testing.assert_array_equal(streamed, offline)


def test_single_frame_stream(tiny_network, fitted_monitors, probe_frames):
    """A lone frame resolves correctly (deadline flush of a 1-frame batch)."""
    with StreamingScorer(
        tiny_network, policy=BatchPolicy(max_batch=64, max_latency=0.01)
    ) as scorer:
        for name, monitor in fitted_monitors.items():
            scorer.register(name, monitor)
        result = scorer.submit(probe_frames[0]).result(timeout=TIMEOUT)
    for name, monitor in fitted_monitors.items():
        assert result.warns[name] == bool(monitor.warn_batch(probe_frames[:1])[0])


def test_empty_burst_is_a_no_op(tiny_network, fitted_monitors):
    with StreamingScorer(tiny_network) as scorer:
        for name, monitor in fitted_monitors.items():
            scorer.register(name, monitor)
        futures = scorer.submit_many(np.zeros((0, 6)))
    assert futures == []
    assert scorer.stats.snapshot()["frames_submitted"] == 0


def test_class_conditional_and_layer_vote_members(trained_digits):
    """A class-conditional member and a two-layer vote stream correctly."""
    network, train, test = trained_digits
    layers = {
        "minmax@2": MinMaxMonitor(network, 2).fit(train.inputs),
        "boolean@4": BooleanPatternMonitor(network, 4, thresholds="mean").fit(train.inputs),
    }
    conditional = ClassConditionalMonitor(
        MonitorBuilder("minmax", 4), num_classes=4
    ).fit(network, train.inputs)
    frames = test.inputs
    with StreamingScorer(
        network, policy=BatchPolicy(max_batch=16, max_latency=0.002)
    ) as scorer:
        for name, monitor in layers.items():
            scorer.register(name, monitor)
        scorer.register("conditional", conditional)
        futures = scorer.submit_many(frames)
        results = [future.result(timeout=TIMEOUT) for future in futures]
    # An any-vote over the layers: at least one layer's monitor warns.
    streamed = [[result.warns[name] for result in results] for name in layers]
    offline = [monitor.warn_batch(frames) for monitor in layers.values()]
    np.testing.assert_array_equal(
        np.sum(streamed, axis=0) >= 1, np.sum(offline, axis=0) >= 1
    )
    np.testing.assert_array_equal(np.array(streamed), np.array(offline))
    np.testing.assert_array_equal(
        np.array([result.warns["conditional"] for result in results]),
        conditional.warn_batch(frames),
    )


def test_streaming_matches_engine_score_batch(
    tiny_network, fitted_monitors, probe_frames
):
    """The service path is the engine path: identical to one score_batch."""
    from repro.runtime.engine import BatchScoringEngine

    engine = BatchScoringEngine(tiny_network)
    offline = engine.score_batch(fitted_monitors, probe_frames)
    with StreamingScorer(
        tiny_network, policy=BatchPolicy(max_batch=len(probe_frames), max_latency=1.0)
    ) as scorer:
        for name, monitor in fitted_monitors.items():
            scorer.register(name, monitor)
        results = [
            future.result(timeout=TIMEOUT)
            for future in scorer.submit_many(probe_frames)
        ]
    for name in fitted_monitors:
        np.testing.assert_array_equal(
            np.array([result.warns[name] for result in results]),
            offline.warns[name],
        )
