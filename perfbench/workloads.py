"""The benchmark's three workloads, each a pinned call into the public API.

A workload is built once per process by ``build(name, seed)`` (the set-up
the benchmark times as ``setup_s``) and then run as many times as the run
length allows through ``Workload.op()``: one op is one timed public call
(``simulate``, ``simulate_fleet`` or ``measure_capacity``).  Every
simulator setting the workloads depend on is written out here rather than
taken from a library default or a ``REPRO_*`` variable, and is recorded in
each result through ``Workload.settings``.

``Workload.outputs(raw)`` turns an op's return value into the simulated
outputs the benchmark checks: a sha256 digest over every simulated
statistic (per-request timelines in trace order, makespan, iteration
count, ``RunMetrics``, capacity and probes) plus the ``sim.*`` values it
prints.  They are outputs, not metrics: a change may not move them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import Deployment, ServingConfig, simulate
from repro.cluster.fleet import FaultSchedule, FleetConfig, simulate_fleet
from repro.cluster.router import SloAwareRouter
from repro.experiments.capacity_runner import measure_capacity
from repro.experiments.common import Scale
from repro.hardware.catalog import A100_80G
from repro.metrics.slo import derived_slo
from repro.metrics.summary import RunMetrics
from repro.models.catalog import MISTRAL_7B, TINY_1B
from repro.types import Request
from repro.workload.datasets import (
    ARXIV_SUMMARIZATION,
    DatasetSpec,
    generate_requests,
)
from repro.workload.distributions import UniformLengths

NAMES = ("replica_decode", "fleet_route", "capacity_prefill")

# Sizes are chosen so one op takes about a second or a few seconds on a
# 2-core x86 host: a run then holds enough ops for its median to ride
# out the bursts of slowdown a shared host shows.
REPLICA_DECODE = {
    "num_requests": 10_000,
    "qps": 2000.0,
    "prompt_len": (32, 96),
    "output_len": (32, 96),
}
FLEET_ROUTE = {
    "num_replicas": 32,
    "num_requests": 6_000,
    "qps": 20_000.0,
    "prompt_len": (32, 96),
    "output_len": (4, 16),
}
CAPACITY_PREFILL = {
    "dataset": ARXIV_SUMMARIZATION.name,
    "slo": "strict",
    "num_requests": 128,
    "capacity_rel_tol": 0.15,
    "capacity_max_probes": 12,
    "qps_hint": 0.5,
    "min_load_duration": 60.0,
}


def serving_config(token_budget: int, max_batch_size: int, reserve_len: int) -> ServingConfig:
    """A sarathi config with every field written out (no env defaults)."""
    return ServingConfig(
        scheduler="sarathi",
        token_budget=token_budget,
        max_batch_size=max_batch_size,
        block_size=16,
        reserve_len=reserve_len,
        max_inflight_batches=None,
        tbt_slo=None,
        preemption_mode="recompute",
        perf_cache=True,
        perf_cache_max_entries=1 << 17,
        engine="vectorized",
        prefix_cache=False,
    )


def fleet_config(num_replicas: int) -> FleetConfig:
    """Unbounded admission, no faults, no control loops — all explicit."""
    return FleetConfig(
        num_replicas=num_replicas,
        faults=FaultSchedule(),
        domains=(),
        max_queue_depth=None,
        admission="reject",
        retry_backoff=0.25,
        retry_backoff_factor=2.0,
        retry_backoff_max=8.0,
        retry_jitter=0.25,
        retry_seed=0,
        max_retries=4,
        admission_timeout=None,
        tbt_window=128,
        health=None,
        brownout=None,
    )


def uniform_trace(spec: dict[str, Any], seed: int) -> list[Request]:
    """Open-loop Poisson trace with uniform prompt and output lengths."""
    dataset = DatasetSpec(
        name="uniform",
        prompt_lengths=UniformLengths(*spec["prompt_len"]),
        output_lengths=UniformLengths(*spec["output_len"]),
        max_total_len=spec["prompt_len"][1] + spec["output_len"][1],
    )
    return generate_requests(
        dataset, spec["num_requests"], qps=spec["qps"], seed=seed
    )


@dataclass
class Workload:
    name: str
    seed: int
    # The timed public call; returns whatever outputs() digests.
    op: Callable[[], Any]
    outputs: Callable[[Any], "Outputs"]
    settings: dict[str, Any]


@dataclass
class Outputs:
    digest: str
    sim: dict[str, Any]
    # Simulated output tokens, the numerator of sim_tokens_per_s.
    output_tokens: int
    # Invariant violations found in the op's result (empty when sound).
    problems: list[str]


def build(name: str, seed: int) -> Workload:
    """Set up one workload: deployment, config and input trace."""
    if name == "replica_decode":
        return _replica_decode(seed)
    if name == "fleet_route":
        return _fleet_route(seed)
    if name == "capacity_prefill":
        return _capacity_prefill(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


def _replica_decode(seed: int) -> Workload:
    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    config = serving_config(token_budget=512, max_batch_size=256, reserve_len=8192)
    trace = uniform_trace(REPLICA_DECODE, seed)

    def op():
        return simulate(deployment, config, trace)

    def outputs(raw) -> Outputs:
        result, metrics = raw
        h = hashlib.sha256()
        problems = _digest_requests(h, trace, result.requests)
        iterations = len(result.records)
        _digest_scalars(h, [result.makespan, iterations, result.num_preemptions])
        _digest_metrics(h, metrics)
        if result.unfinished:
            problems.append(f"{len(result.unfinished)} requests unfinished")
        sim = _sim_metrics(metrics)
        sim["sim.iterations"] = iterations
        return Outputs(h.hexdigest(), sim, metrics.output_tokens, problems)

    return Workload(
        "replica_decode",
        seed,
        op,
        outputs,
        {
            "workload": REPLICA_DECODE,
            "deployment": deployment.label,
            "entry": "repro.api.simulate",
            "serving_config": _fields(config),
            "fleet_config": "FleetConfig(num_replicas=1), built by simulate()",
        },
    )


def _fleet_route(seed: int) -> Workload:
    deployment = Deployment(model=TINY_1B, gpu=A100_80G)
    config = serving_config(token_budget=512, max_batch_size=256, reserve_len=8192)
    fleet = fleet_config(FLEET_ROUTE["num_replicas"])
    tbt_slo = derived_slo(deployment.execution_model(), strict=True).p99_tbt
    trace = uniform_trace(FLEET_ROUTE, seed)

    def op():
        router = SloAwareRouter(fleet.num_replicas, tbt_slo)
        return simulate_fleet(deployment, config, trace, fleet, router=router)

    def outputs(raw) -> Outputs:
        result, metrics = raw
        h = hashlib.sha256()
        problems = _digest_requests(h, trace, result.requests)
        index = {r.request_id: i for i, r in enumerate(trace)}
        replicas = np.full(len(trace), -1, dtype=np.int64)
        for request_id, replica in result.assignments.items():
            replicas[index[request_id]] = replica
        h.update(replicas.tobytes())
        merged = result.merged()
        iterations = len(merged.records)
        _digest_scalars(
            h,
            [result.makespan, iterations, merged.num_preemptions,
             result.num_rejections, result.num_failovers, result.num_shed],
        )
        _digest_metrics(h, metrics)
        lost = result.lost_requests()
        if lost:
            problems.append(f"{len(lost)} requests unfinished")
        if result.num_shed:
            problems.append(f"{result.num_shed} requests shed")
        sim = _sim_metrics(metrics)
        sim["sim.iterations"] = iterations
        sim["sim.replicas_used"] = int(len(np.unique(replicas)))
        return Outputs(h.hexdigest(), sim, metrics.output_tokens, problems)

    return Workload(
        "fleet_route",
        seed,
        op,
        outputs,
        {
            "workload": FLEET_ROUTE,
            "deployment": deployment.label,
            "entry": "repro.cluster.fleet.simulate_fleet",
            "router": f"SloAwareRouter(tbt_slo={tbt_slo!r})",
            "serving_config": _fields(config),
            "fleet_config": _fields(fleet),
        },
    )


def _capacity_prefill(seed: int) -> Workload:
    spec = CAPACITY_PREFILL
    deployment = Deployment(model=MISTRAL_7B, gpu=A100_80G)
    # The paper's strict-SLO regime (§5.1): budget 512, batch 128,
    # worst-case reservation over both datasets.
    config = serving_config(token_budget=512, max_batch_size=128, reserve_len=16384)
    slo = derived_slo(deployment.execution_model(), strict=True)
    scale = Scale(
        num_requests=spec["num_requests"],
        capacity_rel_tol=spec["capacity_rel_tol"],
        capacity_max_probes=spec["capacity_max_probes"],
        seed=seed,
    )

    def op():
        return measure_capacity(
            deployment,
            config.scheduler,
            ARXIV_SUMMARIZATION,
            slo,
            scale,
            config=config,
            qps_hint=spec["qps_hint"],
            min_load_duration=spec["min_load_duration"],
        )

    def outputs(result) -> Outputs:
        h = hashlib.sha256()
        _digest_scalars(
            h,
            [result.capacity_qps, result.num_bracket_probes, result.num_bisect_probes],
        )
        problems = []
        tokens = 0
        for qps, metrics, ok in result.probes:
            _digest_scalars(h, [qps, int(ok)])
            _digest_metrics(h, metrics)
            tokens += metrics.output_tokens
        if not result.probes:
            problems.append("capacity search ran no probes")
        sim = {
            "sim.capacity_qps": result.capacity_qps,
            "sim.probes": result.num_probes,
            "sim.probe_qps": [qps for qps, _, _ in result.probes],
            "sim.probe_feasible": [bool(ok) for _, _, ok in result.probes],
            "sim.probe_p99_tbt": [m.p99_tbt for _, m, _ in result.probes],
        }
        return Outputs(h.hexdigest(), sim, tokens, problems)

    return Workload(
        "capacity_prefill",
        seed,
        op,
        outputs,
        {
            "workload": spec,
            "deployment": deployment.label,
            "entry": "repro.experiments.capacity_runner.measure_capacity",
            "slo": _fields(slo),
            "scale": _fields(scale),
            "serving_config": _fields(config),
            "execution_model": "built by measure_capacity, shared across its probes",
        },
    )


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def _nan(value: float | None) -> float:
    return math.nan if value is None else value


def _digest_requests(h, trace: list[Request], results: list[Request]) -> list[str]:
    """Hash every request's timeline in trace order; return problems.

    Requests are matched to the input trace by position of their id in
    it, so the digest never depends on the process-global id counter.
    """
    problems: list[str] = []
    index = {r.request_id: i for i, r in enumerate(trace)}
    ordered: list[Request | None] = [None] * len(trace)
    for request in results:
        ordered[index[request.request_id]] = request
    if any(r is None for r in ordered):
        problems.append("result is missing requests of the trace")
        return problems
    times = np.array(
        [
            (_nan(r.first_scheduled_at), _nan(r.first_token_at), _nan(r.finished_at))
            for r in ordered
        ],
        dtype=np.float64,
    )
    counts = np.array([len(r.token_times) for r in ordered], dtype=np.int64)
    tokens = np.fromiter(
        (t for r in ordered for t in r.token_times),
        dtype=np.float64,
        count=int(counts.sum()),
    )
    h.update(times.tobytes())
    h.update(counts.tobytes())
    h.update(tokens.tobytes())

    arrival = np.array([r.arrival_time for r in trace], dtype=np.float64)
    output_len = np.array([r.output_len for r in trace], dtype=np.int64)
    if not np.array_equal(counts, output_len):
        problems.append("a request emitted a different number of tokens than asked")
    elif np.isnan(times).any():
        problems.append("a request has no schedule, first-token or finish time")
    else:
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        if (times[:, 0] < arrival).any():
            problems.append("a request was scheduled before it arrived")
        if not (np.array_equal(tokens[starts], times[:, 1])
                and np.array_equal(tokens[starts + counts - 1], times[:, 2])):
            problems.append("first-token or finish time disagrees with token times")
        steps = np.diff(tokens)
        steps[starts[1:] - 1] = 0.0  # boundaries between requests
        if (steps < 0).any():
            problems.append("a request's token times go backwards")
    return problems


def _digest_scalars(h, values: list[float | int]) -> None:
    h.update(np.array(values, dtype=np.float64).tobytes())


def _digest_metrics(h, metrics: RunMetrics) -> None:
    _digest_scalars(h, [float(v) for v in dataclasses.astuple(metrics)])


def _sim_metrics(metrics: RunMetrics) -> dict[str, Any]:
    return {
        "sim.makespan": metrics.makespan,
        "sim.median_ttft": metrics.median_ttft,
        "sim.p99_ttft": metrics.p99_ttft,
        "sim.median_tbt": metrics.median_tbt,
        "sim.p99_tbt": metrics.p99_tbt,
        "sim.preemptions": metrics.num_preemptions,
        "sim.output_tokens": metrics.output_tokens,
    }


def _fields(obj: Any) -> dict[str, Any]:
    """Every dataclass field as a JSON-friendly value (repr if needed)."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None or isinstance(value, (bool, int, float, str)):
            out[f.name] = value
        elif hasattr(value, "value") and isinstance(value.value, str):
            out[f.name] = value.value  # str enums
        else:
            out[f.name] = repr(value)
    return out
