"""Tests for the model catalog and architecture accounting."""

from __future__ import annotations

import dataclasses

import pytest

from repro.models.catalog import (
    FALCON_180B,
    LLAMA2_70B,
    MISTRAL_7B,
    TINY_1B,
    YI_34B,
    get_model,
    list_models,
    register_model,
)
from repro.models.config import Activation, ModelConfig


class TestCatalog:
    def test_lookup_case_insensitive(self):
        assert get_model("mistral-7b") is MISTRAL_7B
        assert get_model("MISTRAL-7B") is MISTRAL_7B

    def test_unknown_model_raises_with_known_names(self):
        with pytest.raises(KeyError, match="Mistral-7B"):
            get_model("gpt-5")

    def test_list_models_contains_all_paper_models(self):
        names = list_models()
        for expected in ("Mistral-7B", "Yi-34B", "LLaMA2-70B", "Falcon-180B"):
            assert expected in names

    def test_register_custom_model(self):
        custom = ModelConfig(
            name="Custom-2B",
            num_layers=8,
            hidden_size=1024,
            num_heads=8,
            num_kv_heads=8,
            ffn_size=4096,
            vocab_size=1000,
        )
        register_model(custom)
        assert get_model("custom-2b") is custom


class TestParameterCounts:
    """Total parameter counts should land near the models' nameplates."""

    @pytest.mark.parametrize(
        "model,expected_billions,tolerance",
        [
            (MISTRAL_7B, 7.2, 0.08),
            (YI_34B, 34.4, 0.08),
            (LLAMA2_70B, 69.0, 0.08),
            (FALCON_180B, 179.0, 0.08),
        ],
    )
    def test_total_params_near_nameplate(self, model, expected_billions, tolerance):
        actual = model.total_params / 1e9
        assert abs(actual - expected_billions) / expected_billions < tolerance

    def test_weight_bytes_are_two_per_param(self):
        assert MISTRAL_7B.weight_bytes == 2 * MISTRAL_7B.total_params


class TestHeadGeometry:
    def test_mistral_gqa_layout(self):
        assert MISTRAL_7B.head_dim == 128
        assert MISTRAL_7B.kv_dim == 1024
        assert MISTRAL_7B.gqa_group_size == 4

    def test_falcon_extreme_gqa(self):
        assert FALCON_180B.head_dim == 64
        assert FALCON_180B.gqa_group_size == 29

    def test_invalid_head_divisibility_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad",
                num_layers=2,
                hidden_size=100,
                num_heads=3,
                num_kv_heads=1,
                ffn_size=400,
                vocab_size=10,
            )

    def test_invalid_kv_head_divisibility_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad",
                num_layers=2,
                hidden_size=128,
                num_heads=8,
                num_kv_heads=3,
                ffn_size=512,
                vocab_size=10,
            )


class TestKVAccounting:
    def test_kv_bytes_per_token_formula(self):
        # 2 (K,V) * kv_dim * dtype per layer.
        per_layer = 2 * MISTRAL_7B.kv_dim * 2
        assert MISTRAL_7B.kv_bytes_per_token_per_layer == per_layer
        assert MISTRAL_7B.kv_bytes_per_token == per_layer * MISTRAL_7B.num_layers

    def test_gqa_shrinks_kv_cache(self):
        mha_like = ModelConfig(
            name="mha",
            num_layers=32,
            hidden_size=4096,
            num_heads=32,
            num_kv_heads=32,
            ffn_size=14336,
            vocab_size=32000,
        )
        assert MISTRAL_7B.kv_bytes_per_token * 4 == mha_like.kv_bytes_per_token

    def test_kv_bytes_scales_linearly(self):
        assert YI_34B.kv_bytes(100) == 100 * YI_34B.kv_bytes_per_token


class TestFlopAccounting:
    def test_linear_flops_scale_with_tokens(self):
        assert MISTRAL_7B.linear_flops(200) == pytest.approx(
            2 * MISTRAL_7B.linear_flops(100), rel=1e-12
        )

    def test_flops_per_token_near_2x_params(self):
        # The classic 2·params estimate, within the LM-head correction.
        ratio = MISTRAL_7B.flops_per_token() / (2 * MISTRAL_7B.total_params)
        assert 0.9 < ratio < 1.1

    def test_attention_flops_quadratic_growth(self):
        short = MISTRAL_7B.attention_flops(512, past_len=0)
        long = MISTRAL_7B.attention_flops(1024, past_len=0)
        # Causal attention pairs grow ~quadratically: 4x for 2x tokens.
        assert 3.5 < long / short < 4.5

    def test_attention_flops_with_past(self):
        # A chunk attending to a cached past does strictly more work.
        without = MISTRAL_7B.attention_flops(256, past_len=0)
        with_past = MISTRAL_7B.attention_flops(256, past_len=1024)
        assert with_past > without

    def test_sliding_window_caps_attention(self):
        # Mistral's 4096-token window: at huge contexts the per-chunk
        # cost stops growing.
        a = MISTRAL_7B.attention_flops(1, past_len=4096)
        b = MISTRAL_7B.attention_flops(1, past_len=40960)
        assert a == b

    def test_sliding_window_caps_kv_reads(self):
        a = MISTRAL_7B.attention_kv_read_bytes(1, past_len=4096)
        b = MISTRAL_7B.attention_kv_read_bytes(1, past_len=40960)
        assert a == b

    def test_no_window_means_unbounded_growth(self):
        a = YI_34B.attention_flops(1, past_len=4096)
        b = YI_34B.attention_flops(1, past_len=8192)
        assert b > a

    @pytest.mark.parametrize("window", [None, 1, 7, 4096])
    def test_attention_pairs_closed_form_matches_loop(self, window):
        """The closed form equals the per-query sum it replaced."""
        model = dataclasses.replace(MISTRAL_7B, sliding_window=window)

        def loop(num_tokens, past_len):
            total = 0
            for i in range(num_tokens):
                span = past_len + i + 1
                if window is not None:
                    span = min(span, window)
                total += span
            return total

        sizes = [0, 1, 2, 3, 6, 7, 8, 15, 511, 4095, 4096, 4097, 5000]
        for num_tokens in sizes:
            # past_len spans below, at and beyond every window.
            for past_len in sizes + [9000]:
                assert model._attention_pairs(num_tokens, past_len) == loop(
                    num_tokens, past_len
                ), (num_tokens, past_len)


class TestActivation:
    def test_swiglu_is_gated(self):
        assert Activation.SWIGLU.is_gated
        assert not Activation.GELU.is_gated

    def test_gated_ffn_has_three_matrices(self):
        gated = TINY_1B.ffn_params_per_layer
        ungated = ModelConfig(
            name="ungated",
            num_layers=TINY_1B.num_layers,
            hidden_size=TINY_1B.hidden_size,
            num_heads=TINY_1B.num_heads,
            num_kv_heads=TINY_1B.num_kv_heads,
            ffn_size=TINY_1B.ffn_size,
            vocab_size=TINY_1B.vocab_size,
            activation=Activation.GELU,
        ).ffn_params_per_layer
        assert gated == pytest.approx(1.5 * ungated)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad-dtype",
                num_layers=2,
                hidden_size=128,
                num_heads=8,
                num_kv_heads=8,
                ffn_size=512,
                vocab_size=10,
                dtype_bytes=3,
            )
