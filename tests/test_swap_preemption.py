"""Tests for swap-based preemption (vLLM's alternative to recompute)."""

from __future__ import annotations

import pytest

from repro.api import ServingConfig, build_engine
from repro.memory.block_manager import PagedBlockManager
from repro.scheduling.vllm import VLLMScheduler
from repro.types import RequestPhase

from tests.conftest import make_request

KV_BYTES = 1024  # per token, arbitrary but nonzero


def swap_scheduler(capacity=160):
    memory = PagedBlockManager(capacity, block_size=16, watermark=0.0)
    return VLLMScheduler(
        memory,
        max_batch_size=8,
        preemption_mode="swap",
        kv_bytes_per_token=KV_BYTES,
    )


class TestConstruction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="preemption_mode"):
            VLLMScheduler(PagedBlockManager(1024), preemption_mode="magic")

    def test_swap_requires_kv_bytes(self):
        with pytest.raises(ValueError, match="kv_bytes_per_token"):
            VLLMScheduler(PagedBlockManager(1024), preemption_mode="swap")


class TestSwapLifecycle:
    def _two_decoders(self, scheduler):
        # Block geometry chosen so the EARLY request eventually needs a
        # block while the LATE one is running (early evicting late is
        # the swap path; a request evicting itself recomputes).
        early = make_request(prompt_len=60, output_len=40, arrival_time=0.0)
        late = make_request(prompt_len=80, output_len=40, arrival_time=0.1)
        scheduler.add_request(early, now=0.0)
        scheduler.on_batch_complete(scheduler.schedule(now=0.0), now=0.1)
        scheduler.add_request(late, now=0.1)
        scheduler.on_batch_complete(scheduler.schedule(now=0.1), now=0.2)
        return early, late

    def test_victim_is_swapped_not_restarted(self):
        scheduler = swap_scheduler()
        early, late = self._two_decoders(scheduler)
        now = 0.2
        while not scheduler.num_swap_outs and now < 50:
            batch = scheduler.schedule(now)
            if batch is None:
                break
            now += 0.1
            scheduler.on_batch_complete(batch, now)
        assert scheduler.num_swap_outs >= 1
        assert late in scheduler.swapped or late.num_restarts == 0
        # Swapped request keeps its computed state.
        if late in scheduler.swapped:
            assert late.phase is RequestPhase.PREEMPTED
            assert late.prefill_done == late.prefill_target

    def test_swap_bytes_charged_to_batches(self):
        scheduler = swap_scheduler()
        self._two_decoders(scheduler)
        now = 0.2
        swap_bytes_seen = 0
        for _ in range(300):
            batch = scheduler.schedule(now)
            if batch is None:
                if not scheduler.has_work:
                    break
                now += 0.1
                continue
            swap_bytes_seen += batch.swap_bytes
            now += 0.1
            scheduler.on_batch_complete(batch, now)
        assert scheduler.num_swap_outs >= 1
        assert scheduler.num_swap_ins >= 1
        # Out + in volumes both charged.
        assert swap_bytes_seen >= 2 * KV_BYTES * 64

    def test_all_requests_complete_under_swap(self):
        scheduler = swap_scheduler(capacity=320)
        requests = [
            make_request(prompt_len=64, output_len=30, arrival_time=0.0)
            for _ in range(4)
        ]
        for r in requests:
            scheduler.add_request(r, now=0.0)
        now = 0.0
        for _ in range(5000):
            batch = scheduler.schedule(now)
            if batch is None:
                if not scheduler.has_work:
                    break
                now += 0.1
                continue
            now += 0.1
            scheduler.on_batch_complete(batch, now)
        assert all(r.is_finished for r in requests)

    def test_self_preemption_falls_back_to_recompute(self):
        scheduler = swap_scheduler(capacity=48)
        only = make_request(prompt_len=48, output_len=10)
        scheduler.add_request(only, now=0.0)
        scheduler.on_batch_complete(scheduler.schedule(now=0.0), now=0.1)
        assert not scheduler._preempt_for_decode(only)
        # Recompute path: restarted and re-queued, not parked in swap.
        assert only.num_restarts == 1
        assert only not in scheduler.swapped


class TestEngineChargesSwapTime:
    def test_swap_traffic_extends_iterations(self, tiny_deployment):
        # Object engine: the memory swap below builds an object manager.
        config = ServingConfig(
            scheduler="vllm", preemption_mode="swap", engine="object"
        )
        engine = build_engine(tiny_deployment, config)
        # Shrink memory to force swapping.
        engine.scheduler.memory = PagedBlockManager(
            4096, block_size=16, watermark=0.0
        )
        trace = [
            make_request(prompt_len=600, output_len=120, arrival_time=0.0)
            for _ in range(8)
        ]
        result = engine.run(trace)
        assert all(r.is_finished for r in result.requests)
        assert engine.scheduler.num_swap_outs > 0
        # Swap transfers show up as communication time on stage 0.
        assert any(r.breakdown.communication > 0 for r in result.records)

    def test_swap_roundtrips_preserve_progress(self, tiny_deployment):
        """Every swap-out is matched by a swap-in, and swapping adds no
        re-prefill work: total recorded prefill equals the requests'
        prefill targets (which only self-preemption recomputes grow)."""
        config = ServingConfig(
            scheduler="vllm", preemption_mode="swap", engine="object"
        )
        engine = build_engine(tiny_deployment, config)
        engine.scheduler.memory = PagedBlockManager(
            4096, block_size=16, watermark=0.0
        )
        trace = [
            make_request(prompt_len=600, output_len=120, arrival_time=0.0)
            for _ in range(8)
        ]
        result = engine.run(trace)
        scheduler = engine.scheduler
        assert scheduler.num_swap_outs > 0
        assert scheduler.num_swap_ins == scheduler.num_swap_outs
        recorded_prefill = sum(r.num_prefill_tokens for r in result.records)
        base_prefill = sum(r.prompt_len for r in trace)
        # All extra prefill work is attributable to recompute restarts
        # (self-preemptions); swap round-trips themselves add none.
        total_restarts = sum(r.num_restarts for r in trace)
        max_restart_cost = max(r.prompt_len + r.output_len for r in trace)
        assert recorded_prefill >= base_prefill
        assert recorded_prefill <= base_prefill + total_restarts * max_restart_cost
