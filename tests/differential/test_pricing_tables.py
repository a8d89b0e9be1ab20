"""The shared pricing tables (``ExecutionModel.pricing``) against the
scalar execution model.

Two contracts:

* ``AttentionModel.decode_times`` — the closed form that fills the
  decode-attention table — equals ``work_time(TokenWork.decode(c))``
  element by element under ``==``, on every catalog model and layout.
  Any edit to ``work_time`` that the closed form does not follow fails
  here.
* One model's tables are shared by every engine and dynamic scheduler
  built on it, and sharing never changes a result: a second run on a
  warm model replays the first without pricing anything anew.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ServingConfig, build_engine, clone_requests, simulate
from repro.cluster.fleet import FleetConfig, simulate_fleet
from repro.hardware.catalog import A40_48G, A100_80G
from repro.models.catalog import MISTRAL_7B, TINY_1B, get_model, list_models
from repro.parallel.config import ParallelConfig
from repro.perf.attention import AttentionModel
from repro.perf.calibration import Calibration
from repro.perf.iteration import ExecutionModel
from repro.types import TokenWork

from tests.differential.conftest import WORKLOADS, assert_results_identical

pytestmark = pytest.mark.tier1

MAX_CONTEXT = 20_000
LAYOUTS = list(itertools.product((1, 2, 4), (1, 2)))  # (TP, PP)


def _reference(attention: AttentionModel, contexts) -> list[float]:
    return [attention.work_time(TokenWork.decode(c)) for c in contexts]


@pytest.mark.parametrize("gpu", [A100_80G, A40_48G], ids=lambda g: g.name)
@pytest.mark.parametrize("model_name", list_models())
def test_decode_times_equal_work_time(model_name, gpu):
    model = get_model(model_name)
    for tp, pp in LAYOUTS:
        parallel = ParallelConfig(tensor_parallel=tp, pipeline_parallel=pp)
        attention = ExecutionModel(model, gpu, parallel).attention
        table = attention.decode_times(0, MAX_CONTEXT + 1)
        assert table.dtype == np.float64
        expected = _reference(attention, range(MAX_CONTEXT + 1))
        assert table.tolist() == expected, (model_name, gpu.name, tp, pp)


def test_decode_times_across_sliding_window():
    """Both sides of Mistral's window, from offsets that straddle it."""
    window = MISTRAL_7B.sliding_window
    assert window is not None
    attention = ExecutionModel(MISTRAL_7B, A100_80G).attention
    for lo, hi in [
        (window - 3, window + 3),
        (window, window + 1),
        (window + 1, 2 * window + 5),
        (0, 1),
        (7, 7),
    ]:
        assert attention.decode_times(lo, hi).tolist() == _reference(
            attention, range(lo, hi)
        )
    # Past the window the cost stops growing: every context reads it all.
    tail = attention.decode_times(window, window + 50)
    assert len(set(tail.tolist())) == 1


def test_decode_times_rejects_bad_ranges():
    attention = ExecutionModel(TINY_1B, A100_80G).attention
    with pytest.raises(ValueError):
        attention.decode_times(-1, 4)
    with pytest.raises(ValueError):
        attention.decode_times(5, 4)


efficiency = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    model_name=st.sampled_from(["mistral-7b", "tiny-1b", "falcon-180b"]),
    decode_eff=efficiency,
    memory_eff=efficiency,
    matmul_eff=efficiency,
    lo=st.integers(0, 9000),
    width=st.integers(0, 300),
    tp=st.sampled_from([1, 2, 4]),
)
def test_decode_times_follow_calibration(
    model_name, decode_eff, memory_eff, matmul_eff, lo, width, tp
):
    """The formula reads ``attention_decode_efficiency``; the other
    efficiencies vary too, to show it reads nothing else."""
    calibration = Calibration(
        attention_decode_efficiency=decode_eff,
        memory_efficiency=memory_eff,
        matmul_efficiency=matmul_eff,
    )
    model = get_model(model_name)
    attention = ExecutionModel(
        model, A100_80G, ParallelConfig(tensor_parallel=tp), calibration
    ).attention
    assert attention.decode_times(lo, lo + width).tolist() == _reference(
        attention, range(lo, lo + width)
    )


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, cls, name) -> list:
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _vectorized(kind="sarathi") -> ServingConfig:
    return ServingConfig(scheduler=kind, token_budget=256, engine="vectorized")


def test_warm_model_replays_without_pricing(tiny_deployment, monkeypatch):
    exec_model = tiny_deployment.execution_model()
    trace = WORKLOADS["sharegpt"](40, 3)
    config = _vectorized()
    first, first_metrics = simulate(tiny_deployment, config, trace, exec_model=exec_model)
    work_calls = _count_calls(monkeypatch, AttentionModel, "work_time")
    fills = _count_calls(monkeypatch, AttentionModel, "decode_times")
    second, second_metrics = simulate(
        tiny_deployment, config, trace, exec_model=exec_model
    )
    assert work_calls == [] and fills == []
    assert_results_identical(first, second)
    assert first_metrics == second_metrics


def test_fleet_prices_each_decode_context_once(tiny_deployment, monkeypatch):
    exec_model = tiny_deployment.execution_model()
    work_calls = _count_calls(monkeypatch, AttentionModel, "work_time")
    fills = _count_calls(monkeypatch, AttentionModel, "decode_times")
    result, _ = simulate_fleet(
        tiny_deployment,
        _vectorized(),
        WORKLOADS["decode_heavy"](60, 2),
        FleetConfig(num_replicas=4),
        exec_model=exec_model,
    )
    assert len(set(result.assignments.values())) == 4
    # The four replicas fill one table: contiguous, non-overlapping
    # ranges from context 0, each context priced once.
    assert fills and fills[0][0] == 0
    assert all(prev[1] == nxt[0] for prev, nxt in zip(fills, fills[1:]))
    # Decode contexts never reach the scalar path.
    assert work_calls
    assert all(work.is_prefill for (work,) in work_calls)


# TBT targets tight enough that the chosen budget moves on each layout.
@pytest.mark.parametrize(
    "deployment,tbt_slo", [("tiny_deployment", 0.01), ("tiny_pp_deployment", 0.0175)]
)
def test_dynamic_budgets_match_object_on_shared_model(request, deployment, tbt_slo):
    """``sarathi_dynamic`` prices its candidates from the tables the
    engine shares; its budget choices still equal the object engine's,
    cold and warm."""
    deployment = request.getfixturevalue(deployment)
    trace = WORKLOADS["arxiv"](8, 1)
    config = dataclasses.replace(
        _vectorized("sarathi_dynamic"), tbt_slo=tbt_slo
    )
    exec_model = deployment.execution_model()
    golden = build_engine(
        deployment, dataclasses.replace(config, engine="object"), exec_model=exec_model
    )
    golden_result = golden.run(clone_requests(trace))
    histories = set()
    for _ in range(2):
        engine = build_engine(deployment, config, exec_model=exec_model)
        assert engine.scheduler._pricing is engine._pricing is exec_model.pricing
        result = engine.run(clone_requests(trace))
        assert_results_identical(golden_result, result)
        assert engine.scheduler.budget_history == golden.scheduler.budget_history
        histories.add(tuple(engine.scheduler.budget_history))
    assert len(histories) == 1
    assert len(set(golden.scheduler.budget_history)) > 1  # budgets actually moved
