"""LifecycleManager: the shadow → candidate → live → retired state machine."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, LifecycleStateError
from repro.lifecycle import (
    STATE_CANDIDATE,
    STATE_LIVE,
    STATE_RETIRED,
    STATE_SHADOW,
    LifecycleManager,
)

from .conftest import drain


def test_deploy_registers_and_sets_live(manager, scorer, store, live_monitor):
    assert store.live_version("mon") == 1
    assert manager.state("mon", 1) == STATE_LIVE
    assert manager.live_version("mon") == 1
    assert scorer.registry.get("mon") is live_monitor
    assert scorer.describe()["registry"]["monitors"]["mon"]["version"] == 1


def test_deploy_twice_is_an_invalid_transition(manager, live_monitor):
    with pytest.raises(LifecycleStateError):
        manager.deploy("mon", live_monitor)


def test_stage_requires_a_live_version(scorer, store, candidate_monitor):
    manager = LifecycleManager(scorer, store)
    with pytest.raises(LifecycleStateError):
        manager.stage("mon", candidate_monitor)


def test_stage_attaches_a_shadow(manager, scorer, candidate_monitor):
    version = manager.stage("mon", candidate_monitor, min_frames=4)
    assert version == 2
    assert manager.state("mon", 2) == STATE_SHADOW
    assert manager.staged_version("mon") == 2
    assert scorer.shadow_names() == ["mon@shadow-v2"]
    with pytest.raises(LifecycleStateError):
        manager.stage("mon", candidate_monitor)  # one staged version per name


def test_guarded_promote_needs_shadow_evidence(manager, scorer, candidate_monitor, probe_frames):
    manager.stage("mon", candidate_monitor, min_frames=8)
    with pytest.raises(LifecycleStateError):
        manager.promote("mon")  # zero shadow frames observed
    drain(scorer, probe_frames)
    assert manager.promote("mon") == 2  # evidence collected, guard passes
    assert manager.live_version("mon") == 2
    assert manager.state("mon", 1) == STATE_RETIRED
    assert manager.state("mon", 2) == STATE_LIVE
    assert scorer.shadow_names() == []


def test_promote_flips_served_verdicts(
    manager, scorer, live_monitor, candidate_monitor, probe_frames
):
    manager.stage("mon", candidate_monitor, shadow=False)
    before = [r.warns["mon"] for r in drain(scorer, probe_frames)]
    assert before == live_monitor.warn_batch(probe_frames).tolist()
    manager.promote("mon", guard=False)
    after = [r.warns["mon"] for r in drain(scorer, probe_frames)]
    assert after == candidate_monitor.warn_batch(probe_frames).tolist()


def test_clear_moves_shadow_to_candidate(manager, scorer, candidate_monitor, probe_frames):
    manager.stage("mon", candidate_monitor, min_frames=4)
    drain(scorer, probe_frames)
    assert manager.clear("mon") == 2
    assert manager.state("mon", 2) == STATE_CANDIDATE
    assert scorer.shadow_names() == []  # the shadow detached on clearing


def test_discard_retires_without_serving(manager, scorer, candidate_monitor):
    manager.stage("mon", candidate_monitor)
    assert manager.discard("mon") == 2
    assert manager.state("mon", 2) == STATE_RETIRED
    assert manager.staged_version("mon") is None
    assert scorer.shadow_names() == []
    assert manager.live_version("mon") == 1  # live never changed


def test_rollback_returns_to_the_previous_version(
    manager, scorer, live_monitor, candidate_monitor, probe_frames
):
    manager.stage("mon", candidate_monitor, shadow=False)
    manager.promote("mon", guard=False)
    assert manager.rollback("mon") == 1
    assert manager.live_version("mon") == 1
    assert manager.state("mon", 2) == STATE_RETIRED
    served = [r.warns["mon"] for r in drain(scorer, probe_frames)]
    assert served == live_monitor.warn_batch(probe_frames).tolist()


def test_staged_breach_auto_retires_the_candidate(manager, scorer, candidate_monitor, probe_frames):
    manager.stage(
        "mon", candidate_monitor, disagreement_budget=0.01, min_frames=4
    )
    drain(scorer, probe_frames)  # wide probes: live and candidate disagree
    assert manager.staged_version("mon") is None
    assert manager.state("mon", 2) == STATE_RETIRED
    assert scorer.shadow_names() == []
    assert manager.live_version("mon") == 1  # the candidate never served
    kinds = [e["kind"] for e in scorer.stats.snapshot()["events"]]
    assert "shadow_breach" in kinds


def test_watch_breach_rolls_back_automatically(
    manager, scorer, live_monitor, candidate_monitor, probe_frames
):
    manager.stage("mon", candidate_monitor, shadow=False)
    manager.promote("mon", guard=False, watch_budget=0.01, watch_frames=4)
    assert manager.live_version("mon") == 2
    assert scorer.shadow_names() == ["mon@watch-v1"]
    # The old version trails the new live; wide probes make them disagree
    # beyond the budget, which must roll the promotion back mid-stream.
    drain(scorer, probe_frames)
    assert manager.live_version("mon") == 1
    assert scorer.shadow_names() == []  # the watch detached on rollback
    served = [r.warns["mon"] for r in drain(scorer, probe_frames)]
    assert served == live_monitor.warn_batch(probe_frames).tolist()
    kinds = [e["kind"] for e in scorer.stats.snapshot()["events"]]
    assert "watch_breach" in kinds and "rollback" in kinds


@pytest.mark.parametrize(
    "watch",
    [
        {"watch_budget": 1.5},
        {"watch_budget": -0.1},
        {"watch_budget": float("nan")},
        {"watch_budget": True},
        {"watch_budget": "0.5"},
        {"watch_budget": 0.2, "watch_frames": 0},
    ],
    ids=["above-one", "negative", "nan", "bool", "str", "no-frames"],
)
@pytest.mark.parametrize("shadow", [False, True])
def test_refused_watch_changes_nothing(
    manager, scorer, live_monitor, candidate_monitor, watch, shadow
):
    manager.stage("mon", candidate_monitor, shadow=shadow)
    shadows = scorer.shadow_names()
    with pytest.raises(ConfigurationError, match="watch_"):
        manager.promote("mon", guard=False, **watch)
    assert manager.live_version("mon") == 1
    assert manager.state("mon", 1) == STATE_LIVE
    assert scorer.registry.get("mon") is live_monitor
    assert manager.staged_version("mon") == 2
    assert manager.state("mon", 2) == (STATE_SHADOW if shadow else STATE_CANDIDATE)
    assert scorer.shadow_names() == shadows
    assert manager.promote("mon", guard=False) == 2  # still promotable


def test_refit_and_stage_archives_a_refit_version(
    manager, scorer, store, wide_inputs, probe_frames
):
    version = manager.refit_and_stage("mon", wide_inputs, min_frames=4)
    assert version == 2
    assert manager.state("mon", 2) == STATE_SHADOW
    metadata = store.describe()["monitors"]["mon"]["versions"][2]["metadata"]
    assert metadata["refit_of"] == 1
    assert metadata["refit_frames"] == wide_inputs.shape[0]
    drain(scorer, probe_frames)
    manager.promote("mon")
    assert manager.live_version("mon") == 2


def test_status_snapshot_is_json_able(manager, candidate_monitor):
    import json

    manager.stage("mon", candidate_monitor)
    status = manager.status()
    json.dumps(status)  # must survive the wire
    entry = status["monitors"]["mon"]
    assert entry["live"] == 1
    assert entry["staged"] == {"version": 2, "state": STATE_SHADOW}
    assert entry["versions"] == {1: STATE_LIVE, 2: STATE_SHADOW}
    assert status["front_end"] == "streaming_scorer"


def test_state_of_unmanaged_version_raises(manager):
    with pytest.raises(LifecycleStateError):
        manager.state("mon", 42)
    with pytest.raises(LifecycleStateError):
        manager.state("ghost", 1)


def test_shadow_report_filters_by_live_name(manager, scorer, candidate_monitor, probe_frames):
    manager.stage("mon", candidate_monitor, min_frames=4)
    drain(scorer, probe_frames)
    reports = manager.shadow_report()
    assert set(reports) == {"mon@shadow-v2"}
    assert reports["mon@shadow-v2"]["live"] == "mon"
    assert reports["mon@shadow-v2"]["ledger"]["frames"] == probe_frames.shape[0]
    assert manager.shadow_report("other") == {}
