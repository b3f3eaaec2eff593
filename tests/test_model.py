import math

import numpy as np
import pytest

import modse.moe
import modse.tensor as tt
from modse.model import ModelConfig, attention_tables, init_weights, rope_tables, spec_hash, transformer_forward
from modse.rng import stream_rng


def reference_forward_single_sequence(cfg: ModelConfig, weights, tokens):
    """Independent per-token recomputation: explicit loops over positions/heads.

    Mirrors the block structure (pre-norm attention, pre-norm expert layer,
    final norm, output projection) but computes attention position by
    position and evaluates every expert densely per token.
    """
    w = {k: t.values.astype(np.float64) for k, t in weights.items()}
    s = len(tokens)
    d = cfg.dim
    hd = d // cfg.n_heads
    eps = 1e-6

    def rms(v, gamma):
        return gamma * v / math.sqrt(float(np.mean(v * v)) + eps)

    def rope_vec(v, pos):
        half = hd // 2
        out = np.empty_like(v)
        for i in range(half):
            ang = pos / (10000.0 ** (2.0 * i / hd))
            c, sn = math.cos(ang), math.sin(ang)
            out[i] = v[i] * c - v[i + half] * sn
            out[i + half] = v[i] * sn + v[i + half] * c
        return out

    x = np.stack([w["embed"][t] for t in tokens])
    for li in range(cfg.n_layers):
        p = f"layers.{li}"
        a_in = np.stack([rms(x[t], w[f"{p}.attn_norm.gamma"]) for t in range(s)])
        attn_out = np.zeros((s, d))
        for h in range(cfg.n_heads):
            lo, hi = h * hd, (h + 1) * hd
            q = np.stack([rope_vec(a_in[t] @ w[f"{p}.attn.wq"][:, lo:hi], t) for t in range(s)])
            k = np.stack([rope_vec(a_in[t] @ w[f"{p}.attn.wk"][:, lo:hi], t) for t in range(s)])
            v = np.stack([a_in[t] @ w[f"{p}.attn.wv"][:, lo:hi] for t in range(s)])
            for t in range(s):
                scores = np.array([q[t] @ k[j] / math.sqrt(hd) for j in range(t + 1)])
                e = np.exp(scores - scores.max())
                att = e / e.sum()
                attn_out[t, lo:hi] = sum(att[j] * v[j] for j in range(t + 1))
        x = x + attn_out @ w[f"{p}.attn.wo"]

        spec = cfg.expert_spec()
        y = np.zeros((s, d))
        for t in range(s):
            m = rms(x[t], w[f"{p}.ffn_norm.gamma"])
            raw = m @ w[f"{p}.gate.w_noise"]
            sp = np.log1p(np.exp(raw))
            noise = float(w[f"{p}.gate.gamma"]) * sp / math.sqrt(float(np.mean(sp * sp)) + eps)
            logits = m @ w[f"{p}.gate.w_gate"] + noise
            order = sorted(range(cfg.n_experts), key=lambda i: (-logits[i], i))
            kept = order[: cfg.top_k]
            exps = {i: math.exp(logits[i] - max(logits[j] for j in kept)) for i in kept}
            z = sum(exps.values())
            for i in kept:
                ep = f"{p}.experts.{i}"
                a = m @ w[f"{ep}.w_in"]
                hidden = (a / (1.0 + np.exp(-a))) * (m @ w[f"{ep}.w_gateproj"])
                y[t] += (exps[i] / z) * (hidden @ w[f"{ep}.w_out"])
        x = x + y

    x = np.stack([rms(x[t], w["final_norm.gamma"]) for t in range(s)])
    return x @ w["lm_head"]


def small_cfg(**kw):
    defaults = dict(
        dim=32,
        n_layers=2,
        n_heads=2,
        n_experts=4,
        top_k=2,
        vocab_size=17,
        h_base=16,
        expert_ratios=((0.75, 0.25), (0.5, 0.5)),
        seq_len=8,
        batch_size=2,
        seed=5,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestTransformerForward:
    def test_matches_per_token_recomputation(self):
        cfg = small_cfg()
        weights = init_weights(cfg, dtype=np.float64)
        tokens = stream_rng(0, "model-test").integers(0, cfg.vocab_size, size=(1, cfg.seq_len))
        logits, _ = transformer_forward(cfg, weights, tokens)
        ref = reference_forward_single_sequence(cfg, weights, tokens[0])
        assert np.abs(logits.values - ref).max() <= 1e-5

    def test_first_position_ignores_rest_of_sequence(self):
        cfg = small_cfg()
        weights = init_weights(cfg, dtype=np.float64)
        rng = stream_rng(1, "model-test")
        tokens = rng.integers(0, cfg.vocab_size, size=(1, cfg.seq_len))
        logits, _ = transformer_forward(cfg, weights, tokens)
        tokens2 = tokens.copy()
        tokens2[0, 1:] = rng.integers(0, cfg.vocab_size, size=cfg.seq_len - 1)
        logits2, _ = transformer_forward(cfg, weights, tokens2)
        np.testing.assert_array_equal(logits.values[0], logits2.values[0])

    def test_batch_permutation_permutes_logits(self):
        cfg = small_cfg(batch_size=3)
        weights = init_weights(cfg, dtype=np.float64)
        tokens = stream_rng(2, "model-test").integers(0, cfg.vocab_size, size=(3, cfg.seq_len))
        logits, _ = transformer_forward(cfg, weights, tokens)
        perm = [2, 0, 1]
        logits_p, _ = transformer_forward(cfg, weights, tokens[perm])
        s = cfg.seq_len
        for new_row, old_row in enumerate(perm):
            np.testing.assert_array_equal(
                logits_p.values[new_row * s : (new_row + 1) * s],
                logits.values[old_row * s : (old_row + 1) * s],
            )

    def test_out_of_range_token_rejected(self):
        cfg = small_cfg()
        weights = init_weights(cfg)
        bad = np.full((1, cfg.seq_len), cfg.vocab_size)
        with pytest.raises(ValueError, match="out of range"):
            transformer_forward(cfg, weights, bad)

    def test_gate_outputs_per_layer(self):
        cfg = small_cfg()
        weights = init_weights(cfg, dtype=np.float64)
        tokens = stream_rng(3, "model-test").integers(0, cfg.vocab_size, size=(2, cfg.seq_len))
        logits, gate_outs = transformer_forward(cfg, weights, tokens)
        assert len(gate_outs) == cfg.n_layers
        assert logits.shape == (2 * cfg.seq_len, cfg.vocab_size)
        for go in gate_outs:
            assert go.topk_indices.shape == (2 * cfg.seq_len, cfg.top_k)

    def test_records_one_matmul_node(self, monkeypatch):
        # the attention sublayers and the gates are fused ops: only the output projection is a matmul
        cfg = small_cfg()
        real = tt.matmul
        calls = []
        monkeypatch.setattr(tt, "matmul", lambda a, b: calls.append(b) or real(a, b))
        weights = init_weights(cfg)
        transformer_forward(cfg, weights, np.zeros((2, cfg.seq_len), dtype=np.int64))
        assert len(calls) == 1 and calls[0] is weights["lm_head"]

    def test_expert_forward_called_once_per_routed_expert(self, monkeypatch):
        # the benchmark's per-expert metrics wrap modse.moe.expert_forward(e, rows) and read
        # rows.shape[0] and e.hidden_size: every routed row must pass through that name
        cfg = small_cfg(batch_size=3)
        weights = init_weights(cfg)
        real = modse.moe.expert_forward
        calls = []

        def wrapped(e, rows):
            calls.append((e.w_in, e.hidden_size, rows.shape[0]))
            return real(e, rows)

        monkeypatch.setattr(modse.moe, "expert_forward", wrapped)
        tokens = stream_rng(4, "model-test").integers(0, cfg.vocab_size, size=(3, cfg.seq_len))
        _, gate_outs = transformer_forward(cfg, weights, tokens)
        for layer, go in enumerate(gate_outs):
            used, rows = np.unique(go.topk_indices, return_counts=True)
            layer_calls, calls = calls[: len(used)], calls[len(used) :]
            w_in = [weights[f"layers.{layer}.experts.{j}.w_in"] for j in used]
            assert [w for w, _, _ in layer_calls] == w_in  # Tensors compare by identity
            assert [(h, r) for _, h, r in layer_calls] == [(w.shape[1], r) for w, r in zip(w_in, rows)]
            assert sum(r for _, _, r in layer_calls) == go.topk_indices.size
        assert calls == []


def forward_tables(cfg, dtype):
    """The AttentionTables each causal_attention call of one forward received."""
    real = tt.causal_attention
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tt, "causal_attention", lambda *a, **kw: seen.append(a[6]) or real(*a, **kw))
        transformer_forward(cfg, init_weights(cfg, dtype=dtype), np.zeros((2, cfg.seq_len), dtype=np.int64))
    return seen


class TestAttentionTables:
    def test_cached_tables_are_read_only(self):
        for t in attention_tables(8, 16, 2, np.dtype(np.float32)):
            with pytest.raises(ValueError, match="read-only"):
                t.reshape(-1)[0] = 0.0

    def test_forwards_at_one_shape_share_the_arrays(self):
        cfg = small_cfg()
        first, second = (forward_tables(cfg, np.float32) for _ in range(2))
        assert len(first) == cfg.n_layers
        for tables in first[1:] + second:
            assert all(a is b for a, b in zip(tables, first[0]))

    def test_float32_and_float64_tables_are_separate_entries(self):
        cfg = small_cfg()
        t32, t64, t32_again = (forward_tables(cfg, dt)[0] for dt in (np.float32, np.float64, np.float32))
        assert {t.dtype for t in t32} == {np.dtype(np.float32)} and {t.dtype for t in t64} == {np.dtype(np.float64)}
        assert all(a is b for a, b in zip(t32, t32_again))
        cos, sin = rope_tables(cfg.seq_len, cfg.dim // cfg.n_heads, np.float64)
        expect = tt.build_attention_tables(cos, sin, cfg.n_heads)
        assert all(np.array_equal(a, b) for a, b in zip(t64, expect))


class TestModelConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divisible"):
            small_cfg(dim=30, n_heads=4)

    def test_ratio_pair_count_must_match_experts(self):
        with pytest.raises(ValueError, match="cover"):
            small_cfg(n_experts=6)

    def test_homogeneous_string_accepted(self):
        cfg = small_cfg(expert_ratios="homogeneous")
        assert cfg.expert_spec().expert_sizes == [16] * 4

    def test_dict_roundtrip(self):
        cfg = small_cfg()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert spec_hash(again) == spec_hash(cfg)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"dimension": 8})


class TestRopeTables:
    def test_unit_magnitude(self):
        cos, sin = rope_tables(6, 8, dtype=np.float64)
        np.testing.assert_allclose(cos**2 + sin**2, 1.0, atol=1e-12)

    def test_position_zero_identity(self):
        cos, sin = rope_tables(4, 8, dtype=np.float64)
        np.testing.assert_array_equal(cos[0], np.ones(4))
        np.testing.assert_array_equal(sin[0], np.zeros(4))
