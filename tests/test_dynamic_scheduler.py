"""Tests for the dynamic-token-budget extension (future work, §5.1)."""

from __future__ import annotations

import pytest

from repro.api import Deployment, ServingConfig, build_scheduler, simulate
from repro.core.dynamic import DynamicSarathiScheduler
from repro.memory.block_manager import PagedBlockManager
from repro.perf.profiler import derive_slo, hybrid_iteration_time

from tests.conftest import make_request


def constant_cost(value: float):
    return lambda works: value


def token_proportional_cost(per_token: float):
    return lambda works: per_token * sum(w.num_tokens for w in works)


def dynamic(cost_fn, tbt_slo=1.0, **kwargs):
    memory = PagedBlockManager(65536, block_size=16, watermark=0.0)
    return DynamicSarathiScheduler(
        memory, tbt_slo=tbt_slo, iteration_cost=cost_fn, **kwargs
    )


class TestConstruction:
    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError):
            dynamic(constant_cost(0.1), tbt_slo=0.0)

    def test_invalid_budget_range_rejected(self):
        with pytest.raises(ValueError):
            dynamic(constant_cost(0.1), min_budget=512, max_budget=128)
        with pytest.raises(ValueError):
            dynamic(constant_cost(0.1), budget_step=0)


class TestBudgetSelection:
    def test_max_budget_when_everything_fits(self):
        s = dynamic(constant_cost(0.01), tbt_slo=1.0, max_budget=4096)
        s.add_request(make_request(prompt_len=10_000, output_len=2), now=0.0)
        batch = s.schedule(now=0.0)
        assert s.budget_history[-1] == 4096
        assert batch.num_tokens <= 4096

    def test_min_budget_when_nothing_fits(self):
        s = dynamic(constant_cost(10.0), tbt_slo=1.0, min_budget=128)
        s.add_request(make_request(prompt_len=10_000, output_len=2), now=0.0)
        s.schedule(now=0.0)
        assert s.budget_history[-1] == 128

    def test_budget_tracks_cost_threshold(self):
        # Cost = 1ms per token, SLO 0.5s -> 500 tokens -> grid lands at
        # the largest 128-step value that fits.
        s = dynamic(
            token_proportional_cost(1e-3),
            tbt_slo=0.5,
            min_budget=128,
            max_budget=4096,
            budget_step=128,
        )
        s.add_request(make_request(prompt_len=10_000, output_len=2), now=0.0)
        s.schedule(now=0.0)
        chosen = s.budget_history[-1]
        assert 256 <= chosen <= 512

    def test_budget_shrinks_as_decode_pool_grows(self):
        """With live decodes consuming SLO headroom, less prefill fits."""
        costs = token_proportional_cost(1e-3)
        s = dynamic(costs, tbt_slo=0.5, max_budget=4096)
        s.add_request(make_request(prompt_len=400, output_len=50), now=0.0)
        s.on_batch_complete(s.schedule(now=0.0), now=0.1)
        first_budget = s.budget_history[-1]
        # Grow the decode pool substantially.
        for _ in range(30):
            r = make_request(prompt_len=400, output_len=50)
            s.add_request(r, now=0.1)
        now = 0.1
        for _ in range(20):
            batch = s.schedule(now)
            if batch is None:
                break
            now += 0.1
            s.on_batch_complete(batch, now)
        assert min(s.budget_history[2:]) <= first_budget

    def test_budget_history_recorded_per_iteration(self):
        s = dynamic(constant_cost(0.01))
        s.add_request(make_request(prompt_len=1000, output_len=3), now=0.0)
        now = 0.0
        while s.has_work:
            batch = s.schedule(now)
            if batch is None:
                break
            now += 0.1
            s.on_batch_complete(batch, now)
        assert len(s.budget_history) == s.num_scheduled_batches


class TestEndToEnd:
    def test_via_api_and_meets_slo(self, tiny_deployment):
        trace = [
            make_request(prompt_len=500, output_len=20, arrival_time=0.02 * i)
            for i in range(30)
        ]
        config = ServingConfig(scheduler="sarathi_dynamic")
        result, metrics = simulate(tiny_deployment, config, trace)
        assert all(r.is_finished for r in result.requests)
        slo = derive_slo(tiny_deployment.execution_model(), strict=True)
        assert metrics.p99_tbt <= slo * 1.05

    def test_build_scheduler_wires_oracle(self, tiny_deployment):
        scheduler = build_scheduler(
            tiny_deployment, ServingConfig(scheduler="sarathi_dynamic")
        )
        assert isinstance(scheduler, DynamicSarathiScheduler)
        # The oracle prices more tokens as more time.
        from repro.types import TokenWork

        small = scheduler.iteration_cost([TokenWork.prefill_chunk(64)])
        large = scheduler.iteration_cost([TokenWork.prefill_chunk(2048)])
        assert large > small

    def test_explicit_slo_respected(self, tiny_deployment):
        config = ServingConfig(
            scheduler="sarathi_dynamic", tbt_slo=0.25
        )
        scheduler = build_scheduler(tiny_deployment, config)
        assert scheduler.tbt_slo == 0.25

    def test_dynamic_improves_ttft_over_static(self, tiny_deployment):
        """The point of the extension: unused SLO headroom becomes
        prefill progress."""
        trace = [
            make_request(prompt_len=2000, output_len=10, arrival_time=0.05 * i)
            for i in range(20)
        ]
        exec_model = tiny_deployment.execution_model()
        slo = derive_slo(exec_model, strict=True)
        static = ServingConfig(scheduler="sarathi", token_budget=256)
        dynamic_cfg = ServingConfig(
            scheduler="sarathi_dynamic", tbt_slo=slo
        )
        _, static_metrics = simulate(tiny_deployment, static, trace)
        _, dynamic_metrics = simulate(tiny_deployment, dynamic_cfg, trace)
        assert dynamic_metrics.median_ttft <= static_metrics.median_ttft
        assert dynamic_metrics.p99_tbt <= slo * 1.05
