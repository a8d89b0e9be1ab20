"""The golden matrix: vectorized engine vs the object ground truth.

Every cell runs one fixed workload through both engines and asserts
bit-identical results (full iteration records, full request
timelines).  A small slice of the matrix gates every PR; the full
schedulers × workloads × fault/no-fault × seeds matrix runs under
``--runslow`` (nightly in CI).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.api import ServingConfig, build_engine, clone_requests
from repro.cluster.fleet import (
    FaultSchedule,
    FleetConfig,
    FleetSimulator,
    simulate_fleet,
)
from repro.cluster.router import RoundRobinRouter, SloAwareRouter
from repro.types import Request

from tests.conftest import make_request
from tests.differential.conftest import (
    CONTROL_PLANE_SLO,
    WORKLOADS,
    assert_results_identical,
    control_plane_fleet,
    control_plane_trace,
    request_timelines,
    run_engine_pair,
)

pytestmark = pytest.mark.tier1

# The vectorized core supports every registered scheduler, including
# the dynamic-budget Sarathi variant; plug-in policies have their own
# cells in test_plugin_policies.py.
PR_SCHEDULERS = [
    "sarathi",
    "sarathi_dynamic",
    "vllm",
    "faster_transformer",
]
ALL_SCHEDULERS = PR_SCHEDULERS + [
    "orca",
    "chunked_prefills_only",
    "hybrid_batching_only",
]
SEEDS = [0, 1, 2]


def _config(kind: str, **extra) -> ServingConfig:
    return ServingConfig(scheduler=kind, token_budget=256, **extra)


# ----------------------------------------------------------------------
# Single replica
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_single_replica_small(tiny_deployment, kind, workload):
    """The every-PR slice: 3 schedulers × 3 workloads at small N."""
    trace = WORKLOADS[workload](14, 0)
    obj, vec = run_engine_pair(tiny_deployment, _config(kind), trace)
    assert_results_identical(obj, vec)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_single_replica_full_matrix(tiny_deployment, kind, workload, seed):
    trace = WORKLOADS[workload](20, seed)
    obj, vec = run_engine_pair(tiny_deployment, _config(kind), trace)
    assert_results_identical(obj, vec)


@pytest.mark.parametrize("mode", ["recompute", "swap"])
@pytest.mark.parametrize("kind", ["vllm", "sarathi"])
def test_preemption_and_swap_pressure(tiny_deployment, kind, mode):
    """Eviction, restart and swap paths must also match bit-for-bit."""
    trace = [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(10)
    ]
    config = _config(kind, preemption_mode=mode)
    obj, vec = run_engine_pair(
        tiny_deployment, config, trace, shrink_memory=True
    )
    # The cell must actually exercise the pressure path, not pass
    # vacuously on an unpressured run.
    assert obj.num_preemptions > 0
    assert_results_identical(obj, vec)


def test_max_time_cutoff_matches(tiny_deployment):
    """A capped run stops both engines at the same event horizon."""
    trace = WORKLOADS["decode_heavy"](30, 1)
    obj, vec = run_engine_pair(
        tiny_deployment, _config("sarathi"), trace, max_time=2.0
    )
    assert obj.unfinished  # the cap bit, or the test proves nothing
    assert_results_identical(obj, vec)


@pytest.mark.parametrize("deployment", ["tiny_deployment", "tiny_pp_deployment"])
def test_token_observer_once_per_iteration(request, deployment):
    """Both engines call the TBT observer once per committed iteration
    that produced samples, with the same samples in batch order."""
    deployment = request.getfixturevalue(deployment)
    trace = WORKLOADS["decode_heavy"](14, 0)
    calls = {}
    for kind in ("object", "vectorized"):
        built = build_engine(
            deployment, _config("sarathi", engine=kind)
        )
        calls[kind] = []
        built.token_observer = calls[kind].append
        result = built.run(clone_requests(trace))
        assert 0 < len(calls[kind]) <= result.engine_stats.num_batches
        assert all(calls[kind])
    assert calls["object"] == calls["vectorized"]
    # Together the calls carry every TBT sample of the run.
    assert sorted(x for call in calls["object"] for x in call) == sorted(
        x for r in result.requests for x in r.tbt_samples
    )


def test_engine_stats_agree_on_work_done(tiny_deployment):
    """Event and batch counts describe the same simulation."""
    trace = WORKLOADS["sharegpt"](14, 0)
    obj, vec = run_engine_pair(tiny_deployment, _config("sarathi"), trace)
    assert obj.engine_stats is not None and vec.engine_stats is not None
    assert obj.engine_stats.kind == "object"
    assert vec.engine_stats.kind == "vectorized"
    assert obj.engine_stats.num_events == vec.engine_stats.num_events
    assert obj.engine_stats.num_batches == vec.engine_stats.num_batches


# ----------------------------------------------------------------------
# Pipeline parallelism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_pipeline_small(tiny_pp_deployment, kind):
    """Every-PR pipeline slice: pp=2 stage overlap matches bit-for-bit."""
    trace = WORKLOADS["sharegpt"](14, 0)
    obj, vec = run_engine_pair(tiny_pp_deployment, _config(kind), trace)
    assert_results_identical(obj, vec)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ALL_SCHEDULERS)
def test_pipeline_full_matrix(tiny_pp_deployment, kind, workload, seed):
    trace = WORKLOADS[workload](20, seed)
    obj, vec = run_engine_pair(tiny_pp_deployment, _config(kind), trace)
    assert_results_identical(obj, vec)


@pytest.mark.parametrize("kind", ["sarathi", "sarathi_dynamic"])
def test_pipeline_preemption_pressure(tiny_pp_deployment, kind):
    """In-flight rows must be exempt from eviction in both engines."""
    trace = [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(10)
    ]
    config = _config(kind, preemption_mode="recompute")
    obj, vec = run_engine_pair(
        tiny_pp_deployment, config, trace, shrink_memory=True
    )
    assert obj.num_preemptions > 0
    assert_results_identical(obj, vec)


def test_policy_scheduler_runs_on_vectorized(tiny_deployment):
    """A freshly registered policy builds on the vectorized engine (the
    default) and matches its object-engine run bit-for-bit."""
    from repro.scheduling import registry as sched_registry
    from repro.scheduling.theory import SRPTOraclePolicy

    sched_registry.register_policy(
        "test_late_policy", lambda ctx: SRPTOraclePolicy()
    )
    try:
        config = _config("test_late_policy")
        assert build_engine(tiny_deployment, config).kind == "vectorized"
        trace = WORKLOADS["decode_heavy"](14, 0)
        obj, vec = run_engine_pair(tiny_deployment, config, trace)
        assert_results_identical(obj, vec)
    finally:
        sched_registry.unregister("test_late_policy")


# ----------------------------------------------------------------------
# Fleet: fault / no-fault
# ----------------------------------------------------------------------
def _fleet_events(result) -> list[dict]:
    return [dataclasses.asdict(event) for event in result.events]


FLEET_FAULTS = {
    "no_fault": FaultSchedule(),
    "crash": FaultSchedule.single(1, down_at=2.0, up_at=4.0),
    "slowdown": FaultSchedule.single(
        1, down_at=1.0, up_at=4.0, kind="slowdown", severity=3.0
    ),
    "capacity_loss": FaultSchedule.single(
        1, down_at=1.0, up_at=4.0, kind="capacity_loss", severity=0.6
    ),
}


def _run_fleet_pair(deployment, kind, trace, fault_mode: str):
    fleet_config = FleetConfig(
        num_replicas=3,
        faults=FLEET_FAULTS[fault_mode],
    )
    out = {}
    for engine in ("object", "vectorized"):
        config = _config(kind, engine=engine)
        out[engine] = simulate_fleet(
            deployment, config, clone_requests(trace), fleet_config
        )
    return out["object"], out["vectorized"]


@pytest.mark.parametrize("fault_mode", sorted(FLEET_FAULTS))
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_fleet_small(tiny_deployment, kind, fault_mode):
    """Every-PR fleet slice: routing, failover, restarts and the
    degraded-mode fault kinds (slowdown, capacity_loss) all match."""
    trace = WORKLOADS["sharegpt"](16, 0)
    (obj_result, obj_metrics), (vec_result, vec_metrics) = _run_fleet_pair(
        tiny_deployment, kind, trace, fault_mode
    )
    assert request_timelines(obj_result.merged()) == request_timelines(
        vec_result.merged()
    )
    assert _fleet_events(obj_result) == _fleet_events(vec_result)
    assert obj_result.assignments == vec_result.assignments
    assert [r.request_id for r in obj_result.shed] == [
        r.request_id for r in vec_result.shed
    ]
    assert obj_metrics == vec_metrics


@pytest.mark.parametrize("kind", ["sarathi", "vllm"])
def test_fleet_capacity_pressure(tiny_deployment, kind):
    """A near-total mid-run KV shrink must force preemptions on the
    degraded replica and still match bit-for-bit — the free pool goes
    negative and both engines work the deficit off identically."""
    trace = [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(12)
    ]
    fleet_config = FleetConfig(
        num_replicas=2,
        faults=FaultSchedule.single(
            0, down_at=0.05, up_at=5.0, kind="capacity_loss", severity=0.999
        ),
    )
    out = {}
    for engine in ("object", "vectorized"):
        config = _config(kind, engine=engine)
        out[engine] = simulate_fleet(
            tiny_deployment, config, clone_requests(trace), fleet_config
        )
    (obj_result, obj_metrics), (vec_result, vec_metrics) = (
        out["object"],
        out["vectorized"],
    )
    # The cell must actually exercise the pressure path.
    assert obj_result.merged().num_preemptions > 0
    assert request_timelines(obj_result.merged()) == request_timelines(
        vec_result.merged()
    )
    assert _fleet_events(obj_result) == _fleet_events(vec_result)
    assert obj_metrics == vec_metrics


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault_mode", sorted(FLEET_FAULTS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", PR_SCHEDULERS)
def test_fleet_full_matrix(tiny_deployment, kind, workload, fault_mode, seed):
    """The acceptance matrix: ≥3 schedulers × 3 workloads ×
    4 fault modes × 3 seeds, all bit-identical."""
    trace = WORKLOADS[workload](16, seed)
    (obj_result, obj_metrics), (vec_result, vec_metrics) = _run_fleet_pair(
        tiny_deployment, kind, trace, fault_mode
    )
    assert request_timelines(obj_result.merged()) == request_timelines(
        vec_result.merged()
    )
    assert _fleet_events(obj_result) == _fleet_events(vec_result)
    assert obj_metrics == vec_metrics


# ----------------------------------------------------------------------
# Fleet control plane: SLO-aware routing, health, brownout, admission
# ----------------------------------------------------------------------
def _run_control_plane(deployment, engine: str, trace: list[Request], router):
    simulator = FleetSimulator(
        deployment,
        ServingConfig(engine=engine, token_budget=256),
        control_plane_fleet(),
        router=router(),
    )
    result = simulator.run(trace)
    return trace, simulator, result


def _control_plane_digest(trace, simulator, result) -> str:
    """sha256 over the event stream and timelines, ids as trace positions."""
    position = {r.request_id: i for i, r in enumerate(trace)}

    def local(request_id):
        return None if request_id is None else position[request_id]

    events = [
        {**dataclasses.asdict(e), "request_id": local(e.request_id)}
        for e in result.events
    ]
    timelines = [
        (
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            r.token_times,
            r.num_restarts,
        )
        for r in result.requests
    ]
    payload = {
        "events": events,
        "assignments": sorted(
            (position[rid], replica) for rid, replica in result.assignments.items()
        ),
        "shed": [position[r.request_id] for r in result.shed],
        "timelines": timelines,
        "makespan": result.makespan,
        "recent_tbts": [slot.recent_tbts for slot in simulator.replicas],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# Golden digest of the cell: it moves only if simulated fleet behaviour
# does, so a performance change to the fleet simulator must leave it as is.
CONTROL_PLANE_DIGEST = (
    "07b01c9ea2dbf53912193e0b93bc360eec1a6b53d90a4ca24a43fa11ad37e36f"
)
# The same cell under round-robin, which ignores the snapshots: the
# crash and the health drain make it pick down replicas, so the
# driver's dead-pick failover decides where those arrivals go.
ROUND_ROBIN_DIGEST = (
    "23fcdd8695b180d3fa90b7abbbc757e25eb5f1617843d457e1b13a82e1082d3c"
)
# Every event kind the cell emits under either router; the cell must
# exercise every control loop, or it proves nothing.
CONTROL_PLANE_KINDS = {
    "brownout_enter",
    "brownout_exit",
    "drain_start",
    "failover",
    "fault_degrade",
    "fault_down",
    "fault_recover",
    "fault_up",
    "health_restart",
    "reject",
    "route",
    "shed",
}


def _check_control_plane(deployment, router, digest):
    """Routing, health drains, brownout and bounded reject admission on
    top of all three fault kinds: both engines emit the same event
    stream, assignments and per-slot TBT windows, and the stream
    matches the golden digest."""
    trace = control_plane_trace()
    obj = _run_control_plane(deployment, "object", trace, router)
    vec = _run_control_plane(deployment, "vectorized", trace, router)
    _, obj_sim, obj_result = obj
    _, vec_sim, vec_result = vec
    assert {e.kind for e in obj_result.events} == CONTROL_PLANE_KINDS
    assert any(e.kind == "reject" and e.retry_at is not None for e in obj_result.events)
    assert _fleet_events(obj_result) == _fleet_events(vec_result)
    assert obj_result.assignments == vec_result.assignments
    assert [s.recent_tbts for s in obj_sim.replicas] == [
        s.recent_tbts for s in vec_sim.replicas
    ]
    assert request_timelines(obj_result.merged()) == request_timelines(
        vec_result.merged()
    )
    assert _control_plane_digest(*obj) == digest
    assert _control_plane_digest(*vec) == digest


def test_fleet_control_plane(tiny_deployment):
    _check_control_plane(
        tiny_deployment,
        lambda: SloAwareRouter(4, tbt_slo=CONTROL_PLANE_SLO),
        CONTROL_PLANE_DIGEST,
    )


def test_fleet_control_plane_round_robin(tiny_deployment):
    _check_control_plane(
        tiny_deployment, lambda: RoundRobinRouter(4), ROUND_ROBIN_DIGEST
    )
