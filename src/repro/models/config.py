"""Transformer architecture description and static accounting.

``ModelConfig`` captures the handful of architectural quantities that
determine inference cost on the roofline model: layer count, hidden and
FFN widths, attention head layout (MHA / GQA / MQA, optional sliding
window), vocabulary size and datatype width.  All the derived
quantities — parameter counts, per-token FLOPs, KV-cache bytes — are
exposed as methods so the perf model and the memory manager share one
source of truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Activation(enum.Enum):
    """FFN activation family; gated activations add a third projection."""

    GELU = "gelu"
    RELU = "relu"
    SWIGLU = "swiglu"

    @property
    def is_gated(self) -> bool:
        return self is Activation.SWIGLU


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture description of a decoder-only transformer."""

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    ffn_size: int
    vocab_size: int
    activation: Activation = Activation.SWIGLU
    sliding_window: int | None = None
    dtype_bytes: int = 2  # fp16/bf16 weights and KV cache
    parallel_attn_mlp: bool = False  # Falcon-style parallel blocks
    max_position_embeddings: int = 32768

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"{self.name}: hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.num_heads % self.num_kv_heads:
            raise ValueError(
                f"{self.name}: num_heads {self.num_heads} not divisible by "
                f"num_kv_heads {self.num_kv_heads}"
            )
        if self.dtype_bytes not in (1, 2, 4):
            raise ValueError(f"{self.name}: unsupported dtype width {self.dtype_bytes}")

    # ------------------------------------------------------------------
    # Head geometry
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return self.num_kv_heads * self.head_dim

    @property
    def gqa_group_size(self) -> int:
        """Query heads sharing one KV head (1 = MHA, num_heads = MQA)."""
        return self.num_heads // self.num_kv_heads

    # ------------------------------------------------------------------
    # Parameter counts (full model, unsharded)
    # ------------------------------------------------------------------
    @property
    def attn_params_per_layer(self) -> int:
        """Q/K/V and output projection weights of one layer."""
        q_and_out = 2 * self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * self.kv_dim
        return q_and_out + kv

    @property
    def ffn_params_per_layer(self) -> int:
        matrices = 3 if self.activation.is_gated else 2
        return matrices * self.hidden_size * self.ffn_size

    @property
    def params_per_layer(self) -> int:
        return self.attn_params_per_layer + self.ffn_params_per_layer

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.hidden_size

    @property
    def lm_head_params(self) -> int:
        return self.vocab_size * self.hidden_size

    @property
    def total_params(self) -> int:
        return (
            self.num_layers * self.params_per_layer
            + self.embedding_params
            + self.lm_head_params
        )

    # ------------------------------------------------------------------
    # Byte footprints
    # ------------------------------------------------------------------
    @property
    def weight_bytes(self) -> int:
        return self.total_params * self.dtype_bytes

    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """K + V vectors for one token in one layer."""
        return 2 * self.kv_dim * self.dtype_bytes

    @property
    def kv_bytes_per_token(self) -> int:
        return self.num_layers * self.kv_bytes_per_token_per_layer

    def kv_bytes(self, num_tokens: int) -> int:
        return num_tokens * self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # FLOP accounting (per forward pass)
    # ------------------------------------------------------------------
    def linear_flops(self, num_tokens: int) -> int:
        """Matmul FLOPs of all linear layers for ``num_tokens`` tokens."""
        per_token = 2 * self.num_layers * self.params_per_layer
        return num_tokens * per_token + 2 * num_tokens * self.lm_head_params

    def attention_flops(self, num_tokens: int, past_len: int) -> int:
        """Score+value FLOPs for a causal segment of ``num_tokens``.

        The segment attends to ``past_len`` cached tokens plus itself
        causally, optionally clipped by a sliding window.  Counted over
        all layers and query heads: QK^T and PV each cost
        ``2 * head_dim`` FLOPs per (query, key) pair.
        """
        pairs = self._attention_pairs(num_tokens, past_len)
        per_pair = 4 * self.head_dim  # 2 for QK^T + 2 for PV
        return self.num_layers * self.num_heads * pairs * per_pair

    def _attention_pairs(self, num_tokens: int, past_len: int) -> int:
        """Number of (query, key) interactions in a causal segment."""
        # Query i attends min(past_len + i + 1, window) keys: the first
        # k queries are unclipped (an arithmetic series), the rest see
        # exactly ``window`` keys each.
        window = self.sliding_window
        if window is None:
            return num_tokens * past_len + num_tokens * (num_tokens + 1) // 2
        k = max(0, min(num_tokens, window - past_len))
        return k * past_len + k * (k + 1) // 2 + (num_tokens - k) * window

    def attention_kv_read_bytes(self, num_tokens: int, past_len: int) -> int:
        """Bytes of K/V fetched from HBM to attend the segment.

        Cached keys/values of ``past_len`` tokens (window-clipped) are
        read once per segment; the segment's own KV is produced on-chip.
        This is the term that makes chunked prefills re-read earlier
        chunks (§4.3).
        """
        span = past_len
        if self.sliding_window is not None:
            span = min(span, self.sliding_window)
        return span * self.kv_bytes_per_token

    def flops_per_token(self) -> int:
        """Classic ~2×params estimate used for MFU-style sanity checks."""
        return self.linear_flops(1)
