"""Differential: plug-in policies on the vectorized adapter.

Policies written against the plug-in protocol (the theory baselines and
a toy third-party policy) run through ``VecPolicyScheduler`` on the
vectorized engine and through ``PolicyScheduler`` on the object engine;
every cell asserts bit-identical timelines, iteration records and
preemption counts.  SRPT ranks prefills and decodes together, so its
batches interleave the two — the cells check that such batches happen
and still price and commit in the object engine's item order.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import ServingConfig, build_engine, clone_requests
from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.scheduling import (
    BatchDirective,
    PoolView,
    SchedulingPolicy,
    register_policy,
    unregister,
)
from repro.types import Request
from repro.workload.distributions import UniformLengths

from tests.conftest import make_request
from tests.differential.conftest import (
    WORKLOADS,
    assert_results_identical,
    request_timelines,
    run_engine_pair,
)
from tests.differential.test_prefix_cache import (
    assert_conversation_identical,
    run_conversation_pair,
    small_spec,
)
from tests.test_scheduler_plugin import ToyShortestPromptPolicy

pytestmark = pytest.mark.tier1

PLUGINS = ["srpt_oracle", "srpt_predicted", "fcfs_aging"]


def _config(kind: str, **extra) -> ServingConfig:
    return ServingConfig(scheduler=kind, token_budget=256, **extra)


def _pressure_trace() -> list[Request]:
    """Long generations arriving together: a 4096-token pool must evict."""
    return [
        make_request(prompt_len=256, output_len=300, arrival_time=0.005 * i)
        for i in range(10)
    ]


@pytest.mark.parametrize("kind", PLUGINS)
def test_plugin_plain(tiny_deployment, kind):
    trace = WORKLOADS["sharegpt"](14, 0)
    obj, vec = run_engine_pair(tiny_deployment, _config(kind), trace)
    assert_results_identical(obj, vec)


@pytest.mark.parametrize("kind", PLUGINS)
def test_plugin_squeezed_memory(tiny_deployment, kind):
    """Recompute preemption: evicted decodes re-queue mid-round."""
    obj, vec = run_engine_pair(
        tiny_deployment, _config(kind), _pressure_trace(), shrink_memory=True
    )
    assert obj.num_preemptions > 0
    assert_results_identical(obj, vec)


def test_plugin_swap_preemption(tiny_deployment):
    obj, vec = run_engine_pair(
        tiny_deployment,
        _config("srpt_oracle", preemption_mode="swap"),
        _pressure_trace(),
        shrink_memory=True,
    )
    assert obj.num_preemptions > 0
    assert_results_identical(obj, vec)


def test_interleaved_batches_match(tiny_deployment):
    """Short prompts with long outputs: SRPT runs fresh prefills ahead
    of long-running decodes, so batches interleave the two kinds."""
    rng = random.Random(3)
    trace = [
        Request(
            prompt_len=rng.randint(8, 24),
            output_len=rng.randint(4, 120),
            arrival_time=0.01 * i,
        )
        for i in range(40)
    ]
    config = _config("srpt_oracle")
    obj = build_engine(
        tiny_deployment, dataclasses.replace(config, engine="object")
    ).run(clone_requests(trace))
    built = build_engine(tiny_deployment, config)
    orders = []
    schedule = built.scheduler.schedule

    def recording_schedule(now):
        batch = schedule(now)
        if batch is not None:
            orders.append(batch.order)
        return batch

    built.scheduler.schedule = recording_schedule
    vec = built.run(clone_requests(trace))
    assert sum(order is not None for order in orders) >= 10
    assert_results_identical(obj, vec)


def test_fleet_toy_plugin_defers(tiny_deployment):
    """Two replicas, a plug-in whose ``admit`` defers every request once:
    the deferral/retry stream and every timeline match."""
    trace = [
        make_request(prompt_len=32 + 24 * (i % 5), output_len=6, arrival_time=0.1 * i)
        for i in range(12)
    ]
    out = {}
    for engine in ("object", "vectorized"):
        deferred: set[int] = set()
        register_policy(
            "toy_differential",
            lambda ctx, deferred=deferred: ToyShortestPromptPolicy(deferred=deferred),
        )
        try:
            out[engine] = simulate_fleet(
                tiny_deployment,
                _config("toy_differential", engine=engine),
                clone_requests(trace),
                FleetConfig(num_replicas=2),
            )
        finally:
            unregister("toy_differential")
    (obj, obj_metrics), (vec, vec_metrics) = out["object"], out["vectorized"]
    deferrals = [e for e in obj.events if e.reason == "policy_deferred"]
    assert len(deferrals) == len(trace)
    assert [dataclasses.asdict(e) for e in obj.events] == [
        dataclasses.asdict(e) for e in vec.events
    ]
    assert obj.assignments == vec.assignments
    assert request_timelines(obj.merged()) == request_timelines(vec.merged())
    assert obj.merged().num_preemptions == vec.merged().num_preemptions
    assert obj_metrics == vec_metrics


class _PrefillFirstPolicy(SchedulingPolicy):
    """Prefills and admissions ahead of decodes, every iteration."""

    name = "prefill-first"

    def compose_batch(self, pool: PoolView):
        directives = [
            BatchDirective(r, chunk=pool.token_budget)
            for r in (*pool.prefills, *pool.waiting)
        ]
        directives.extend(BatchDirective(r) for r in pool.decodes)
        return directives


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefill_first_commit_order(tiny_deployment, seed):
    """One-token responses finish at their prefill, ahead of finishing
    decodes in the same batch: follow-up rounds and prefix-cache
    publications must come in the object engine's item order."""
    spec = small_spec(
        num_conversations=12,
        first_turn_lengths=UniformLengths(16, 64),
        followup_turn_lengths=UniformLengths(4, 16),
        response_lengths=UniformLengths(1, 4),
        mean_think_time=0.02,
        arrival_qps=40.0,
        mean_rounds=3.0,
    )
    register_policy("prefill_first_test", lambda ctx: _PrefillFirstPolicy())
    try:
        config = _config("prefill_first_test", prefix_cache=True)
        obj, vec = run_conversation_pair(tiny_deployment, config, spec, seed=seed)
    finally:
        unregister("prefill_first_test")
    assert obj.prefix_stats.hits > 0
    assert_conversation_identical(obj, vec)


class _MutatingPolicy(SchedulingPolicy):
    """Tries to write through its pool entries; composes nothing."""

    name = "mutating"

    def __init__(self) -> None:
        self.errors: list[str] = []

    def compose_batch(self, pool: PoolView):
        for entry in pool.runnable:
            for attr in ("prefill_done", "num_emitted", "output_len", "extra"):
                try:
                    setattr(entry, attr, 0)
                except AttributeError as err:
                    self.errors.append(str(err))
                else:
                    raise AssertionError(f"assigning {attr} succeeded")
        return []


def test_pool_entries_are_read_only(tiny_deployment):
    policy = _MutatingPolicy()
    register_policy("mutating_test", lambda ctx: policy)
    try:
        built = build_engine(tiny_deployment, _config("mutating_test"))
        built.run([make_request(prompt_len=40, output_len=4)], max_time=0.1)
    finally:
        unregister("mutating_test")
    assert policy.errors and all("read-only" in e for e in policy.errors)
