"""Roofline timing of the attention operator of one pipeline stage.

Two regimes matter:

* **prefill attention** — compute-bound, cost quadratic in sequence
  length; when a prompt is chunked, every later chunk must *re-read*
  the KV cache of earlier chunks, which is the source of the chunking
  overhead the paper quantifies in Fig. 14 / §4.3;
* **decode attention** — memory-bound, cost proportional to the bytes
  of KV cache streamed from HBM for the request's full context.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.gpu import GPUSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig
from repro.perf.calibration import Calibration
from repro.perf.roofline import op_time
from repro.types import TokenWork


class AttentionModel:
    """Per-stage attention cost model (heads sharded across TP ranks)."""

    def __init__(
        self,
        model: ModelConfig,
        gpu: GPUSpec,
        parallel: ParallelConfig,
        calibration: Calibration,
    ) -> None:
        self.model = model
        self.gpu = gpu
        self.parallel = parallel
        self.calibration = calibration

        tp = parallel.tensor_parallel
        self.stage_layers = parallel.layers_per_stage(model)
        self._tp = tp
        # KV bytes one cached token costs per layer on one GPU.
        self._kv_bytes_per_token_layer = model.kv_bytes_per_token_per_layer / tp
        # Fresh Q/K/V activation traffic per processed token per layer.
        qkv_width = model.hidden_size + 2 * model.kv_dim
        self._qkv_bytes_per_token_layer = qkv_width * model.dtype_bytes / tp

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def flops(self, work: TokenWork) -> float:
        """Per-GPU attention FLOPs of this stage for one work segment."""
        per_model = self.model.attention_flops(work.num_tokens, work.past_len)
        per_layer = per_model / self.model.num_layers
        return per_layer * self.stage_layers / self._tp

    def kv_read_bytes(self, work: TokenWork) -> float:
        """Per-GPU bytes of cached KV streamed for one work segment."""
        return self._kv_read_bytes_layer(work) * self.stage_layers

    def _kv_read_bytes_layer(self, work: TokenWork) -> float:
        span = work.past_len
        if self.model.sliding_window is not None:
            span = min(span, self.model.sliding_window)
        return span * self._kv_bytes_per_token_layer

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def work_time(self, work: TokenWork) -> float:
        """Stage attention time for one request's segment of a batch.

        Attention kernels do not batch across sequences the way GEMMs
        do: each sequence's scores are computed independently, so the
        per-sequence costs add (modulo kernel-level parallelism folded
        into the efficiency factors).
        """
        calib = self.calibration
        flops = self.flops(work)
        num_bytes = (
            self._kv_read_bytes_layer(work)
            + work.num_tokens * self._qkv_bytes_per_token_layer
        ) * self.stage_layers
        if work.is_prefill:
            # Short chunks under-fill the attention kernel grid the
            # same way they under-fill GEMMs; reuse the saturating ramp.
            ramp = calib.gemm_efficiency(work.num_tokens) / calib.matmul_efficiency
            compute_eff = calib.attention_prefill_efficiency
            ramped_eff = compute_eff * ramp
            mem_eff = calib.memory_efficiency
        else:
            compute_eff = calib.attention_decode_efficiency
            ramped_eff = None
            mem_eff = calib.attention_decode_efficiency
        return op_time(
            self.gpu,
            flops,
            num_bytes,
            compute_eff,
            mem_eff,
            ramped_compute_efficiency=ramped_eff,
        ).time

    def decode_times(self, lo: int, hi: int) -> np.ndarray:
        """``work_time(TokenWork.decode(c))`` for every ``c`` in ``[lo, hi)``.

        A closed form of the decode branch above that replays its IEEE
        operations in the same order — exact integer FLOP counts, one
        true division, ``* stage_layers / tp``, the byte total and
        ``max(math, mem)`` — so every element equals the scalar call
        bit for bit while the per-model FLOP count stays below 2**53
        (a context of ~10**9 tokens on the largest catalog model), where
        its integer-to-float conversion is exact.
        """
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
        model = self.model
        ctx = np.arange(lo, hi, dtype=np.int64)
        # One decode token attends its context plus itself (window-clipped)
        # and streams the window-clipped context's KV.
        pairs = ctx + 1
        span = ctx
        if model.sliding_window is not None:
            pairs = np.minimum(pairs, model.sliding_window)
            span = np.minimum(span, model.sliding_window)
        per_pair = model.num_layers * model.num_heads * 4 * model.head_dim
        flops = (pairs * per_pair) / model.num_layers * self.stage_layers / self._tp
        num_bytes = (
            span * self._kv_bytes_per_token_layer + self._qkv_bytes_per_token_layer
        ) * self.stage_layers
        eff = self.calibration.attention_decode_efficiency
        math_time = flops / (self.gpu.peak_flops * eff)
        mem_time = num_bytes / (self.gpu.memory_bandwidth * eff)
        return np.maximum(math_time, mem_time)
