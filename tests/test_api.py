"""Tests for the high-level Deployment / ServingConfig / simulate API."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.api import (
    Deployment,
    ServingConfig,
    build_memory,
    build_scheduler,
    clone_requests,
    simulate,
)
from repro.core.sarathi import SarathiScheduler
from repro.hardware.catalog import A100_80G
from repro.memory.block_manager import PagedBlockManager, ReservationManager
from repro.models.catalog import TINY_1B, YI_34B
from repro.parallel.config import ParallelConfig
from repro.scheduling.ablations import ChunkedPrefillsOnlyScheduler
from repro.scheduling.faster_transformer import FasterTransformerScheduler
from repro.scheduling.orca import OrcaScheduler
from repro.scheduling.vllm import VLLMScheduler
from repro.types import Request, RequestPhase

from tests.conftest import BUILTIN_SCHEDULERS, make_request


class TestDeployment:
    def test_label(self):
        d = Deployment(
            model=YI_34B, gpu=A100_80G, parallel=ParallelConfig(tensor_parallel=2)
        )
        assert d.label == "Yi-34B/A100-80GB/TP2-PP1"

    def test_execution_model_wiring(self, tiny_deployment):
        exec_model = tiny_deployment.execution_model()
        assert exec_model.model is TINY_1B
        assert exec_model.gpu is A100_80G

    def test_kv_capacity_reservation_smaller(self, tiny_deployment):
        paged = tiny_deployment.kv_capacity_tokens(reservation_style=False)
        reserved = tiny_deployment.kv_capacity_tokens(reservation_style=True)
        assert reserved < paged


class TestBuildScheduler:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("faster_transformer", FasterTransformerScheduler),
            ("orca", OrcaScheduler),
            ("vllm", VLLMScheduler),
            ("sarathi", SarathiScheduler),
            ("chunked_prefills_only", ChunkedPrefillsOnlyScheduler),
            ("hybrid_batching_only", SarathiScheduler),
        ],
    )
    def test_all_kinds_buildable(self, tiny_deployment, kind, cls):
        scheduler = build_scheduler(tiny_deployment, ServingConfig(scheduler=kind))
        assert isinstance(scheduler, cls)

    def test_memory_family_matches_scheduler(self, tiny_deployment):
        orca_mem = build_memory(
            tiny_deployment, ServingConfig(scheduler="orca")
        )
        vllm_mem = build_memory(
            tiny_deployment, ServingConfig(scheduler="vllm")
        )
        assert isinstance(orca_mem, ReservationManager)
        assert isinstance(vllm_mem, PagedBlockManager)

    def test_hybrid_only_has_chunking_disabled(self, tiny_deployment):
        s = build_scheduler(
            tiny_deployment, ServingConfig(scheduler="hybrid_batching_only")
        )
        assert not s.chunk_prefills

    def test_with_budget_helper(self):
        config = ServingConfig(token_budget=512)
        assert config.with_budget(2048).token_budget == 2048
        assert config.token_budget == 512  # original untouched


class TestCloneRequests:
    def test_clone_isolates_mutation(self):
        original = [make_request(prompt_len=50, output_len=3)]
        clones = clone_requests(original)
        clones[0].record_prefill(50, now=1.0)
        assert original[0].prefill_done == 0
        assert clones[0].prefill_done == 50

    def test_clone_preserves_fields(self):
        original = [make_request(prompt_len=50, output_len=3, arrival_time=2.0)]
        clone = clone_requests(original)[0]
        assert clone.prompt_len == 50
        assert clone.arrival_time == 2.0
        assert clone.request_id == original[0].request_id

    @staticmethod
    def _varied_trace() -> list[Request]:
        fresh = make_request(prompt_len=50, output_len=3, arrival_time=2.0)
        tagged = Request(
            prompt_len=80,
            output_len=4,
            arrival_time=1.5,
            client_id=2,
            prefix_id=7,
            prefix_len=32,
            prefix_publish_len=48,
        )
        # Partially run: prefilled, two tokens out, then preempted.
        partial = make_request(prompt_len=40, output_len=6, arrival_time=0.5)
        partial.record_prefill(40, now=1.0)
        partial.record_decode(now=1.1)
        partial.restart_after_preemption()
        return [fresh, tagged, partial]

    def test_clone_equals_deepcopy(self):
        original = self._varied_trace()
        clones = clone_requests(original)
        assert clones == [copy.deepcopy(r) for r in original]
        for clone, request in zip(clones, original):
            assert type(clone) is type(request)
            assert clone is not request
            assert clone.token_times is not request.token_times

    def test_mutating_clone_leaves_input_untouched(self):
        original = self._varied_trace()
        before = copy.deepcopy(original)
        clones = clone_requests(original)
        for clone in clones:
            clone.token_times.append(9.0)
            clone.num_restarts += 1
            clone.phase = RequestPhase.FINISHED
            clone.prefix_len = 0
            clone.first_token_at = 9.0
        clones[2].record_prefill(clones[2].remaining_prefill, now=3.0)
        assert original == before


class TestSimulate:
    def test_returns_result_and_metrics(self, tiny_deployment):
        trace = [make_request(prompt_len=64, output_len=3) for _ in range(5)]
        result, metrics = simulate(tiny_deployment, ServingConfig(), trace)
        assert metrics.num_requests == 5
        assert len(result.finished_requests) == 5

    def test_input_trace_not_mutated(self, tiny_deployment):
        trace = [make_request(prompt_len=64, output_len=3)]
        simulate(tiny_deployment, ServingConfig(), trace)
        assert trace[0].prefill_done == 0
        assert not trace[0].is_finished

    def test_same_trace_reusable_across_schedulers(self, tiny_deployment):
        trace = [
            make_request(prompt_len=64, output_len=3, arrival_time=0.01 * i)
            for i in range(6)
        ]
        for kind in BUILTIN_SCHEDULERS:
            _, metrics = simulate(
                tiny_deployment, ServingConfig(scheduler=kind), trace
            )
            assert metrics.num_requests == 6

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_engine_stats_report_wall_time(self, tiny_deployment, engine):
        """The public path drives engines through step/deliver; the
        fleet loop's host time still reaches the result."""
        trace = [
            make_request(prompt_len=64, output_len=8, arrival_time=0.01 * i)
            for i in range(6)
        ]
        config = ServingConfig(engine=engine)
        first, _ = simulate(tiny_deployment, config, trace)
        second, _ = simulate(tiny_deployment, config, trace)
        assert first.engine_stats.kind == engine
        assert first.engine_stats.wall_time_s > 0
        # Host time is not output: it never decides equality.
        assert first.engine_stats == dataclasses.replace(
            second.engine_stats, wall_time_s=first.engine_stats.wall_time_s + 1.0
        )
