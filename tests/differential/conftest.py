"""Canonicalization helpers shared by the differential tests.

Comparisons are exact — full ``IterationRecord`` fields (including the
float time breakdown) and full per-request timelines.  Two things are
deliberately excluded:

* ``batch_id`` absolute values: they come from a process-global
  counter, so both traces are relabelled in insertion order and the
  *pattern* of ids is compared instead.
* ``cache_stats`` / ``engine_stats``: they describe the machinery that
  produced the result (cache hit counts, wall time), not the simulated
  system, and legitimately differ between the two engines.
"""

from __future__ import annotations

import dataclasses
import random

from repro.api import build_engine, clone_requests
from repro.cluster.degradation import BrownoutConfig, DegradationLevel
from repro.cluster.fleet import (
    FaultSchedule,
    FleetConfig,
    HealthConfig,
    ReplicaFault,
)
from repro.types import Request
from repro.workload.datasets import (
    ARXIV_SUMMARIZATION,
    SHAREGPT4,
    generate_requests,
)

from tests.conftest import shrink_kv_memory


def golden_trace(result) -> list[dict]:
    """Iteration records as comparable rows, batch ids relabelled."""
    records = sorted(result.records, key=lambda r: (r.start, r.stage))
    id_order: dict[int, int] = {}
    rows = []
    for record in records:
        row = dataclasses.asdict(record)
        row["batch_id"] = id_order.setdefault(record.batch_id, len(id_order))
        rows.append(row)
    return rows


def request_timelines(result) -> list[tuple]:
    """Every externally visible per-request timestamp, by request id."""
    return [
        (
            r.request_id,
            r.arrival_time,
            r.prompt_len,
            r.output_len,
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            tuple(r.token_times),
            r.num_emitted,
            r.num_restarts,
            r.is_finished,
        )
        for r in sorted(result.requests, key=lambda r: r.request_id)
    ]


def assert_results_identical(golden, candidate) -> None:
    """Bit-exact equivalence of two ``SimulationResult``s."""
    assert request_timelines(golden) == request_timelines(candidate)
    assert golden_trace(golden) == golden_trace(candidate)
    assert golden.makespan == candidate.makespan
    assert golden.num_preemptions == candidate.num_preemptions
    assert sorted(r.request_id for r in golden.unfinished) == sorted(
        r.request_id for r in candidate.unfinished
    )


def run_engine_pair(
    deployment,
    config,
    trace,
    *,
    shrink_memory: bool = False,
    max_time: float | None = None,
):
    """Run one trace through both engines; returns (object, vectorized).

    Each engine gets its own clone of the trace so the mutation of
    ``Request`` state by one run cannot leak into the other.
    """
    results = {}
    for kind in ("object", "vectorized"):
        built = build_engine(deployment, dataclasses.replace(config, engine=kind))
        if shrink_memory:
            shrink_kv_memory(built)
        results[kind] = built.run(clone_requests(trace), max_time=max_time)
    return results["object"], results["vectorized"]


def _decode_heavy(num_requests: int, seed: int) -> list[Request]:
    """Short prompts, long generations: stresses decode batching,
    KV growth at schedule time, and the preemption machinery."""
    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(num_requests):
        now += rng.expovariate(4.0)
        trace.append(
            Request(
                prompt_len=rng.randint(32, 96),
                output_len=rng.randint(16, 64),
                arrival_time=now,
            )
        )
    return trace


# The three workload shapes of the golden matrix: a chat-style mixed
# trace, a long-prompt summarization trace, and a synthetic
# decode-heavy trace.
WORKLOADS = {
    "sharegpt": lambda n, seed: generate_requests(
        SHAREGPT4, num_requests=n, qps=2.0, seed=seed
    ),
    "arxiv": lambda n, seed: generate_requests(
        ARXIV_SUMMARIZATION, num_requests=n, qps=1.0, seed=seed
    ),
    "decode_heavy": _decode_heavy,
}


# The fleet control-plane cell: an SLO tight enough that brownout and
# the SLO-aware router both act.
CONTROL_PLANE_SLO = 0.01


def control_plane_trace() -> list[Request]:
    """Three tenants, Poisson arrivals with a same-instant cohort every
    tenth request (the cohorts overflow the bounded queues)."""
    rng = random.Random(11)
    now = 0.0
    trace = []
    for i in range(100):
        if i % 10:
            now += rng.expovariate(60.0)
        trace.append(
            Request(
                prompt_len=rng.randint(32, 400),
                output_len=rng.randint(20, 120),
                arrival_time=now,
                client_id=i % 3,
            )
        )
    return trace


def control_plane_fleet() -> FleetConfig:
    """Four replicas under all three fault kinds, the health monitor, a
    two-level brownout ladder and depth-1 reject admission."""
    return FleetConfig(
        num_replicas=4,
        faults=FaultSchedule(
            (
                ReplicaFault(2, 0.05, 3.0, "slowdown", 6.0),
                ReplicaFault(1, 1.0, 1.6),
                ReplicaFault(0, 0.5, 2.5, "capacity_loss", 0.7),
            )
        ),
        max_queue_depth=1,
        admission="reject",
        # No jitter: the cell's golden digest must not depend on how
        # retry jitter is keyed.
        retry_jitter=0.0,
        max_retries=3,
        health=HealthConfig(check_interval=0.1, min_samples=8, inflation_factor=2.0),
        brownout=BrownoutConfig(
            levels=(
                DegradationLevel(token_budget=128),
                DegradationLevel(
                    token_budget=128, max_context=300, shed_client_ids=(2,)
                ),
            ),
            tbt_slo=CONTROL_PLANE_SLO,
            enter_margin=0.5,
            exit_margin=0.1,
            min_dwell=0.3,
            check_interval=0.1,
            min_samples=8,
        ),
    )
