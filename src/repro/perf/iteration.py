"""Iteration-level execution model: batch composition → wall-clock.

``ExecutionModel`` composes the linear, attention and "others" operator
models with communication and fixed overheads into the per-iteration
time of one pipeline stage.  This is the simulator's substitute for
running kernels on a GPU; everything above it (schedulers, engines,
capacity search) consumes only this interface.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.comm import pp_send_time, tp_comm_time
from repro.parallel.config import ParallelConfig
from repro.perf.attention import AttentionModel
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.linear import LinearModel
from repro.perf.roofline import op_time
from repro.types import IterationTime, TokenWork


class ExecutionModel:
    """Analytical execution-time model for one replica's pipeline stage.

    Stages are symmetric (ceil-split layers), so a single instance
    models every stage of a deployment; the LM head is charged only
    when ``is_last_stage`` and per-iteration CPU overhead only when
    ``is_first_stage`` (where the scheduler runs).
    """

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        parallel: ParallelConfig | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.model = model
        self.gpu = gpu
        self.parallel = parallel or ParallelConfig()
        self.calibration = calibration
        self.linear = LinearModel(model, gpu, self.parallel, calibration)
        self.attention = AttentionModel(model, gpu, self.parallel, calibration)
        self.stage_layers = self.parallel.layers_per_stage(model)
        tp = self.parallel.tensor_parallel
        self._others_bytes_per_token = (
            calibration.others_bytes_factor
            * model.hidden_size
            * model.dtype_bytes
            / tp
        )

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    def stage_iteration_time(
        self,
        works: Sequence[TokenWork],
        is_first_stage: bool = True,
        is_last_stage: bool = True,
    ) -> IterationTime:
        """Wall-clock of one stage executing one batch iteration."""
        if not works:
            return IterationTime(0.0, 0.0, 0.0, 0.0, 0.0)

        num_tokens = sum(w.num_tokens for w in works)
        num_logit_tokens = sum(1 for w in works if w.emits_token)

        linear = self.linear.stage_time(
            num_tokens, num_logit_tokens if is_last_stage else 0
        )
        attention = sum(self.attention.work_time(w) for w in works)
        others = self._others_time(num_tokens)
        comm = tp_comm_time(self.model, self.parallel, num_tokens, self.stage_layers)
        overhead = self._fixed_overhead(is_first_stage)
        return IterationTime(linear, attention, others, comm, overhead)

    def iteration_time(self, works: Sequence[TokenWork]) -> IterationTime:
        """Convenience for single-stage (PP=1) deployments."""
        return self.stage_iteration_time(works)

    def pipeline_send_time(self, works: Sequence[TokenWork]) -> float:
        """Activation transfer time to the next pipeline stage."""
        num_tokens = sum(w.num_tokens for w in works)
        return pp_send_time(self.model, self.parallel, num_tokens)

    # ------------------------------------------------------------------
    # Derived helpers used throughout benches and schedulers
    # ------------------------------------------------------------------
    def decode_iteration_time(
        self, batch_size: int, context_len: int
    ) -> IterationTime:
        """Decode-only iteration with a uniform context length."""
        works = [TokenWork.decode(context_len) for _ in range(batch_size)]
        return self.iteration_time(works)

    def full_prefill_time(self, prompt_len: int) -> IterationTime:
        """A whole prompt prefilled in a single unchunked iteration."""
        return self.iteration_time([TokenWork.prefill_chunk(prompt_len)])

    def chunked_prefill_time(self, prompt_len: int, chunk_size: int) -> IterationTime:
        """Total time to prefill a prompt split into ``chunk_size`` chunks.

        Sums the per-iteration costs, including the KV re-reads and the
        repeated fixed overheads that make chunking slightly slower than
        a monolithic prefill (Fig. 14).
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        total = IterationTime(0.0, 0.0, 0.0, 0.0, 0.0)
        done = 0
        while done < prompt_len:
            chunk = min(chunk_size, prompt_len - done)
            is_last = done + chunk >= prompt_len
            work = TokenWork.prefill_chunk(chunk, past_len=done, is_last=is_last)
            total = total + self.iteration_time([work])
            done += chunk
        return total

    def per_replica_gpus(self) -> int:
        return self.parallel.world_size

    @cached_property
    def pricing(self) -> "PricingTables":
        """This model's component memo tables, built on first use.

        One set per model: every vectorized engine and dynamic
        scheduler built on the model (capacity-search probes, fleet
        replicas, sweep cells leasing it) reads and fills the same
        tables.
        """
        return PricingTables(self)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _others_time(self, num_tokens: int) -> float:
        num_bytes = self._others_bytes_per_token * num_tokens * self.stage_layers
        # Elementwise math is trivially memory-bound; count a nominal
        # handful of FLOPs per byte moved.
        return op_time(
            self.gpu,
            flops=num_bytes,
            num_bytes=num_bytes,
            compute_efficiency=self.calibration.matmul_efficiency,
            memory_efficiency=self.calibration.memory_efficiency,
        ).time

    def _fixed_overhead(self, is_first_stage: bool) -> float:
        calib = self.calibration
        launch = (
            calib.kernel_launch_overhead * calib.kernels_per_layer * self.stage_layers
        )
        scheduler = calib.iteration_overhead if is_first_stage else 0.0
        return launch + scheduler


class PricingTables:
    """Memoized pricing components of one :class:`ExecutionModel`.

    Each entry is exactly the float the model's own component call
    returns, so a caller that reassembles them in
    :meth:`ExecutionModel.stage_iteration_time`'s operation order gets
    bit-identical totals.  Keys fully determine their values and the
    model's inputs are immutable, so entries never go stale — which is
    what lets every engine and scheduler on the model share them.

    Decode attention, the one component priced per sequence every
    iteration, is a dense array by context length filled in bulk by
    :meth:`AttentionModel.decode_times` and grown by doubling; the rest
    are dicts filled on first use.
    """

    def __init__(self, exec_model: ExecutionModel) -> None:
        self._model = exec_model
        self.overhead_first = exec_model._fixed_overhead(True)
        self.overhead_rest = exec_model._fixed_overhead(False)
        self._linear: dict[tuple[int, int], float] = {}
        self._prefill: dict[tuple[int, int], float] = {}
        self._token: dict[int, tuple[float, float]] = {}
        self._send: dict[int, float] = {}
        # Decode attention by context length, valid below the mark.
        self._decode = np.empty(0)
        self._decode_mark = 0

    def linear(self, num_tokens: int, num_logit_tokens: int) -> float:
        key = (num_tokens, num_logit_tokens)
        value = self._linear.get(key)
        if value is None:
            value = self._model.linear.stage_time(num_tokens, num_logit_tokens)
            self._linear[key] = value
        return value

    def prefill_attention(self, chunk: int, past: int) -> float:
        """Attention of one prefill chunk (``work_time`` ignores whether
        the chunk emits a token, so final and non-final chunks share)."""
        key = (chunk, past)
        value = self._prefill.get(key)
        if value is None:
            value = self._model.attention.work_time(
                TokenWork(num_tokens=chunk, past_len=past, is_prefill=True)
            )
            self._prefill[key] = value
        return value

    def token_terms(self, num_tokens: int) -> tuple[float, float]:
        """``(others, TP communication)`` — both depend on tokens only."""
        value = self._token.get(num_tokens)
        if value is None:
            model = self._model
            value = (
                model._others_time(num_tokens),
                tp_comm_time(
                    model.model, model.parallel, num_tokens, model.stage_layers
                ),
            )
            self._token[num_tokens] = value
        return value

    def send(self, num_tokens: int) -> float:
        """Activation transfer to the next pipeline stage."""
        value = self._send.get(num_tokens)
        if value is None:
            value = pp_send_time(self._model.model, self._model.parallel, num_tokens)
            self._send[num_tokens] = value
        return value

    def decode_attention(self, ctx: np.ndarray) -> list[float]:
        """Per-sequence decode attention for a non-empty context array."""
        max_ctx = int(ctx.max())
        if max_ctx >= self._decode_mark:
            mark = self._decode_mark
            size = max(2 * mark, max_ctx + 1, 1024)
            table = np.empty(size)
            table[:mark] = self._decode[:mark]
            table[mark:] = self._model.attention.decode_times(mark, size)
            self._decode = table
            self._decode_mark = size
        return self._decode[ctx].tolist()
