"""Differential: prefix caching and conversations across both engines.

Conversation workloads are closed-loop — each engine run drives its own
``ConversationWorkload`` instance (same spec, same seed), so the global
request-id counter assigns different ids to the two runs' requests.
Requests are therefore compared in creation order on every externally
visible field *except* ``request_id``; creation order itself matches
because follow-up injection happens at finish events, which the
bit-identity of the two engines keeps in lockstep.

Matrix dimensions: scheduler (all three paged families, covering every
post-admission chunk-recompute site), cache off / on-all-miss / on,
and memory pressure (eviction + preemption + registration interleaved).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ServingConfig, build_engine
from repro.workload.conversation import ConversationSpec, ConversationWorkload
from repro.workload.distributions import FixedLengths

from tests.conftest import shrink_kv_memory
from tests.differential.conftest import golden_trace

pytestmark = pytest.mark.tier1

SCHEDULERS = [
    "sarathi",
    "vllm",
    "chunked_prefills_only",
]


def conversation_timelines(result) -> list[tuple]:
    """Per-request timelines in creation order, request ids excluded."""
    return [
        (
            r.arrival_time,
            r.prompt_len,
            r.output_len,
            r.prefix_id,
            r.prefix_len,
            r.first_scheduled_at,
            r.first_token_at,
            r.finished_at,
            tuple(r.token_times),
            r.num_emitted,
            r.num_restarts,
            r.is_finished,
        )
        for r in result.requests
    ]


def assert_conversation_identical(golden, candidate) -> None:
    assert conversation_timelines(golden) == conversation_timelines(candidate)
    assert golden_trace(golden) == golden_trace(candidate)
    assert golden.makespan == candidate.makespan
    assert golden.num_preemptions == candidate.num_preemptions
    assert golden.prefix_stats == candidate.prefix_stats


def small_spec(prefix_mode: str = "conversation", **overrides) -> ConversationSpec:
    defaults = dict(
        num_conversations=8,
        first_turn_lengths=FixedLengths(120),
        followup_turn_lengths=FixedLengths(48),
        response_lengths=FixedLengths(12),
        mean_rounds=4.0,
        mean_think_time=0.3,
        arrival_qps=2.0,
        prefix_mode=prefix_mode,
    )
    defaults.update(overrides)
    return ConversationSpec(**defaults)


def run_conversation_pair(
    deployment,
    config: ServingConfig,
    spec: ConversationSpec,
    seed: int = 0,
    shrink_memory: bool = False,
):
    """One conversation workload through both engines, fresh state each."""
    results = {}
    for kind in ("object", "vectorized"):
        workload = ConversationWorkload(spec, seed=seed)
        built = build_engine(deployment, dataclasses.replace(config, engine=kind))
        if shrink_memory:
            shrink_kv_memory(built, prefix_cache=config.prefix_cache)
        results[kind] = built.run(
            workload.initial_requests(), followup_fn=workload.followup
        )
    return results["object"], results["vectorized"]


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("cache", [False, True], ids=["cache_off", "cache_on"])
def test_conversation_workload_matches(tiny_deployment, kind, cache):
    """Conversation matrix cell: engines bit-identical, cache off and on."""
    config = ServingConfig(scheduler=kind, token_budget=256, prefix_cache=cache)
    obj, vec = run_conversation_pair(tiny_deployment, config, small_spec())
    if cache:
        assert obj.prefix_stats is not None
        assert obj.prefix_stats.hits > 0  # the cell exercises the hit path
    assert_conversation_identical(obj, vec)


@pytest.mark.parametrize("kind", SCHEDULERS)
def test_all_miss_cache_equals_cache_off(tiny_deployment, kind):
    """With unique prefix ids (every lookup misses), enabling the cache
    must not perturb either engine: all four runs share one timeline."""
    spec = small_spec(prefix_mode="unique")
    config = ServingConfig(scheduler=kind, token_budget=256)
    obj_off, vec_off = run_conversation_pair(tiny_deployment, config, spec)
    obj_on, vec_on = run_conversation_pair(
        tiny_deployment, dataclasses.replace(config, prefix_cache=True), spec
    )
    assert obj_on.prefix_stats is not None
    assert obj_on.prefix_stats.hits == 0
    assert obj_on.prefix_stats.misses > 0
    assert_conversation_identical(obj_off, vec_off)
    assert_conversation_identical(obj_on, vec_on)
    # Cache-on all-miss ≡ cache-off, for both engines.
    assert conversation_timelines(obj_on) == conversation_timelines(obj_off)
    assert golden_trace(obj_on) == golden_trace(obj_off)
    assert conversation_timelines(vec_on) == conversation_timelines(vec_off)


@pytest.mark.parametrize("kind", ["sarathi", "vllm"])
def test_cache_under_memory_pressure(tiny_deployment, kind):
    """Eviction of retained entries, preemption of claimants and
    re-registration must interleave identically in both engines."""
    spec = small_spec(
        num_conversations=10,
        first_turn_lengths=FixedLengths(360),
        followup_turn_lengths=FixedLengths(60),
        response_lengths=FixedLengths(40),
        mean_think_time=0.05,
        arrival_qps=8.0,
        mean_rounds=3.0,
    )
    config = ServingConfig(scheduler=kind, token_budget=256, prefix_cache=True)
    obj, vec = run_conversation_pair(
        tiny_deployment, config, spec, shrink_memory=True
    )
    # The cell must exercise pressure *and* the cache, not pass vacuously.
    assert obj.num_preemptions > 0 or obj.prefix_stats.evictions > 0
    assert obj.prefix_stats.hits > 0
    assert_conversation_identical(obj, vec)
