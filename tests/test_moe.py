import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modse.tensor as tt
from modse.moe import (
    ExpertParams,
    GateParams,
    PairConstraintError,
    PairedExpertSpec,
    build_paired_spec,
    expert_forward,
    gate_forward,
    homogeneous_spec,
    moe_layer_forward,
)
from modse.rng import stream_rng
from modse.tensor import Tensor

PUBLISHED_RATIOS = [(4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5)]


class TestPairedSpec:
    def test_published_sizes_d1536(self):
        spec = build_paired_spec(1536, 3840, PUBLISHED_RATIOS)
        assert spec.pairs == ((6912, 768), (6144, 1536), (4608, 3072), (3840, 3840))
        assert all(a + b == 2 * 3840 for a, b in spec.pairs)

    def test_published_sizes_d2048(self):
        spec = build_paired_spec(2048, 5120, PUBLISHED_RATIOS)
        assert spec.pairs == ((9216, 1024), (8192, 2048), (6144, 4096), (5120, 5120))

    def test_homogeneous_ratios_degenerate_to_base(self):
        spec = build_paired_spec(64, 160, [(2.5, 2.5)] * 4)
        assert spec.expert_sizes == [160] * 8

    def test_bad_pair_sum_names_pair(self):
        with pytest.raises(PairConstraintError, match="pair 1"):
            build_paired_spec(64, 160, [(2.5, 2.5), (3.0, 1.0)])

    def test_non_integer_width_rejected(self):
        with pytest.raises(PairConstraintError, match="non-integer"):
            build_paired_spec(10, 10, [(1.55, 0.45)])

    def test_size_order_is_pair_major_large_first(self):
        spec = build_paired_spec(1536, 3840, PUBLISHED_RATIOS)
        assert spec.expert_sizes == [6912, 768, 6144, 1536, 4608, 3072, 3840, 3840]

    @given(st.integers(1, 6), st.integers(1, 50))
    @settings(max_examples=40)
    def test_parameter_parity_random_specs(self, n_pairs, h_base):
        d = 8
        rng = np.random.default_rng(n_pairs * 100 + h_base)
        ratios = []
        target = 2 * h_base / d
        for _ in range(n_pairs):
            delta = int(rng.integers(0, h_base)) / d
            ratios.append((target / 2 + delta, target / 2 - delta))
        spec = build_paired_spec(d, h_base, ratios)
        assert sum(spec.expert_sizes) == 2 * n_pairs * h_base


class TestCountParameters:
    def _experts(self, d, sizes, dtype=np.float32):
        rng = stream_rng(0, "test-experts")
        out = []
        for h in sizes:
            out.append(
                ExpertParams(
                    w_in=Tensor(rng.normal(size=(d, h)), dtype=dtype),
                    w_gateproj=Tensor(rng.normal(size=(d, h)), dtype=dtype),
                    w_out=Tensor(rng.normal(size=(h, d)), dtype=dtype),
                )
            )
        return out

    @staticmethod
    def _count(experts):
        return sum(t.size for e in experts for t in (e.w_in, e.w_gateproj, e.w_out))

    def test_empty(self):
        assert self._count([]) == 0

    def test_single_small_expert(self):
        assert self._count(self._experts(4, [6])) == 72

    def test_published_parity_with_uniform(self):
        diverse = build_paired_spec(1536, 3840, PUBLISHED_RATIOS)
        assert sum(3 * 1536 * h for h in diverse.expert_sizes) == 8 * 3 * 1536 * 3840
        experts = self._experts(2, diverse.expert_sizes)  # d=2 keeps the tensors tiny
        uniform = self._experts(2, [3840] * 8)
        assert self._count(experts) == self._count(uniform)


def softmax(v):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _gate(d, n, rng, dtype=np.float64, std=0.5):
    w_gate, w_noise = (Tensor(rng.normal(0.0, std, (d, n)), dtype=dtype) for _ in range(2))
    return GateParams(w_gate=w_gate, w_noise=w_noise, gamma=Tensor(np.asarray(1.0), dtype=dtype))


def _seeded_gate(d, n, seed=0, dtype=np.float64, std=0.5):
    return _gate(d, n, stream_rng(seed, "test-gate"), dtype=dtype, std=std)


class TestGateForward:
    def test_zero_noise_matrix_shifts_all_logits_equally(self):
        d, n, t = 6, 4, 5
        rng = stream_rng(1, "test-gate-x")
        x = Tensor(rng.normal(size=(t, d)), dtype=np.float64)
        gate = _seeded_gate(d, n, dtype=np.float64)
        zero_noise = GateParams(
            w_gate=gate.w_gate,
            w_noise=Tensor(np.zeros((d, n)), dtype=np.float64),
            gamma=Tensor(np.asarray(3.3), dtype=np.float64),
        )
        out = gate_forward(zero_noise, x, 2)
        pure = tt.matmul(x, gate.w_gate).values
        offsets = out.logits.values - pure
        np.testing.assert_allclose(offsets, offsets[0, 0], rtol=1e-12)
        expected_idx = np.argsort(-pure, axis=1, kind="stable")[:, :2]
        assert np.array_equal(out.topk_indices, expected_idx)

    def test_k_equals_n_weights_match_full_probs(self):
        # every expert chosen: the layer is the dense sum over experts weighted by the full softmax
        d, n, t = 8, 4, 3
        rng = stream_rng(2, "test-gate-x")
        x = Tensor(rng.normal(size=(t, d)), dtype=np.float64)
        experts = _seeded_experts(build_paired_spec(d, 8, [(1.5, 0.5), (1.25, 0.75)]), seed=2)
        y, out = moe_layer_forward(_seeded_gate(d, n), experts, x, n)
        full = softmax(out.logits.values)
        dense = sum(full[:, [i]] * expert_forward(e, x.values).out for i, e in enumerate(experts))
        np.testing.assert_allclose(y.values, dense, rtol=1e-12)

    def test_scalar_reimplementation_oracle(self):
        d, n, k, t = 4, 4, 2, 3
        rng = stream_rng(3, "test-gate-oracle")
        x = rng.normal(size=(t, d))
        gate = _seeded_gate(d, n, seed=3)
        wg, wn, gamma = gate.w_gate.values, gate.w_noise.values, float(gate.gamma.values)
        out = gate_forward(gate, Tensor(x, dtype=np.float64), k)

        for ti in range(t):
            raw = [sum(x[ti][j] * wn[j][i] for j in range(d)) for i in range(n)]
            sp = [math.log1p(math.exp(r)) for r in raw]
            ms = sum(s * s for s in sp) / n
            noise = [gamma * s / math.sqrt(ms + 1e-6) for s in sp]
            logits = [sum(x[ti][j] * wg[j][i] for j in range(d)) + noise[i] for i in range(n)]
            order = sorted(range(n), key=lambda i: (-logits[i], i))
            np.testing.assert_allclose(out.logits.values[ti], logits, rtol=1e-10)
            assert list(out.topk_indices[ti]) == order[:k]

    def test_weights_sum_to_one_and_sparsity(self):
        # identical experts: the layer returns the expert's output exactly when each token's
        # weights sum to one; each token routes to k distinct experts
        d, n, k, t = 6, 8, 2, 11
        rng = stream_rng(4, "test-gate-x")
        x = Tensor(rng.normal(size=(t, d)), dtype=np.float64)
        e = _seeded_experts(build_paired_spec(d, 6, [(1.0, 1.0)]), seed=4)[0]
        y, out = moe_layer_forward(_seeded_gate(d, n, seed=4), x=x, k=k, experts=[e] * n)
        np.testing.assert_allclose(y.values, expert_forward(e, x.values).out, rtol=1e-12, atol=1e-15)
        assert out.topk_indices.shape == (t, k)
        for ti in range(t):
            assert len(set(out.topk_indices[ti])) == k

    def test_shift_invariance_of_selection_and_weights(self):
        # with a zero noise matrix, gamma adds about gamma to every logit: the same experts,
        # with the same weights up to rounding
        d, n = 6, 5
        x = Tensor(stream_rng(5, "test-shift").normal(size=(7, d)), dtype=np.float64)
        experts = _seeded_experts(build_paired_spec(d, 6, [(1.5, 0.5), (1.0, 1.0)]), seed=5)[:4]
        experts.append(experts[0])
        gate = _seeded_gate(d, n, seed=5)
        outs = []
        for gamma in (0.0, 3.7):
            shifted = GateParams(gate.w_gate, Tensor(np.zeros((d, n))), Tensor(np.asarray(gamma)))
            outs.append(moe_layer_forward(shifted, experts, x, 2))
        (y_a, out_a), (y_b, out_b) = outs
        np.testing.assert_allclose(out_b.logits.values - out_a.logits.values, 3.7, rtol=1e-5)
        assert np.array_equal(out_a.topk_indices, out_b.topk_indices)
        np.testing.assert_allclose(y_a.values, y_b.values, rtol=1e-12)

    def test_k_out_of_range(self):
        gate = _seeded_gate(4, 4)
        x = Tensor(np.zeros((2, 4)), dtype=np.float64)
        with pytest.raises(ValueError, match="k=5"):
            gate_forward(gate, x, 5)


def _seeded_experts(spec, seed=0, dtype=np.float64):
    rng = stream_rng(seed, "test-experts")
    d = spec.d_model
    return [
        ExpertParams(*(Tensor(rng.normal(0.0, 0.5, shape), dtype=dtype) for shape in ((d, h), (d, h), (h, d))))
        for h in spec.expert_sizes
    ]


class TestExpertForward:
    def test_zero_weights_give_zero(self):
        e = ExpertParams(
            w_in=Tensor(np.zeros((4, 6))), w_gateproj=Tensor(np.zeros((4, 6))), w_out=Tensor(np.zeros((6, 4)))
        )
        out = expert_forward(e, np.ones((2, 4), dtype=np.float32))
        assert np.array_equal(out.out, np.zeros((2, 4)))

    def test_zero_input_gives_zero(self):
        spec = build_paired_spec(4, 6, [(2.0, 1.0)])
        e = _seeded_experts(spec)[0]
        out = expert_forward(e, np.zeros((3, 4)))
        assert np.array_equal(out.out, np.zeros((3, 4)))

    def test_scalar_loop_oracle(self):
        t, d, h = 2, 4, 6
        rng = stream_rng(6, "test-expert-oracle")
        x = rng.normal(size=(t, d))
        e = ExpertParams(
            w_in=Tensor(rng.normal(size=(d, h)), dtype=np.float64),
            w_gateproj=Tensor(rng.normal(size=(d, h)), dtype=np.float64),
            w_out=Tensor(rng.normal(size=(h, d)), dtype=np.float64),
        )
        got = expert_forward(e, x).out
        for ti in range(t):
            hidden = []
            for j in range(h):
                a = sum(x[ti][p] * e.w_in.values[p][j] for p in range(d))
                b = sum(x[ti][p] * e.w_gateproj.values[p][j] for p in range(d))
                sig = 1.0 / (1.0 + math.exp(-a))
                hidden.append(a * sig * b)
            for c in range(d):
                expect = sum(hidden[j] * e.w_out.values[j][c] for j in range(h))
                assert got[ti][c] == pytest.approx(expect, rel=1e-10)


class TestMoeLayerForward:
    def test_forced_single_expert(self):
        d, n = 4, 4
        spec = build_paired_spec(d, 6, [(2.0, 1.0), (1.5, 1.5)])
        experts = _seeded_experts(spec)
        forced = 2
        w_gate = np.zeros((d, n))
        w_gate[:, forced] = 1000.0
        gate = GateParams(
            w_gate=Tensor(w_gate, dtype=np.float64),
            w_noise=Tensor(np.zeros((d, n)), dtype=np.float64),
            gamma=Tensor(np.asarray(1.0), dtype=np.float64),
        )
        x = Tensor(np.abs(stream_rng(7, "t").normal(size=(3, d))) + 0.1, dtype=np.float64)
        y, out = moe_layer_forward(gate, experts, x, 1)
        assert (out.topk_indices[:, 0] == forced).all()
        assert np.array_equal(y.values, expert_forward(experts[forced], x.values).out)

    def test_two_identical_experts_k2(self):
        d = 4
        spec = build_paired_spec(d, 6, [(1.5, 1.5)])
        e = _seeded_experts(spec)[0]
        experts = [e, ExpertParams(e.w_in, e.w_gateproj, e.w_out)]
        gate = _seeded_gate(d, 2, seed=8)
        x = Tensor(stream_rng(8, "t").normal(size=(5, d)), dtype=np.float64)
        y, _ = moe_layer_forward(gate, experts, x, 2)
        np.testing.assert_allclose(y.values, expert_forward(e, x.values).out, rtol=1e-12)

    def test_matches_dense_evaluation_oracle(self):
        d, n, k, t = 8, 4, 2, 9
        spec = build_paired_spec(d, 8, [(1.5, 0.5), (1.25, 0.75)])
        experts = _seeded_experts(spec, seed=9)
        gate = _seeded_gate(d, n, seed=9)
        x = Tensor(stream_rng(9, "t").normal(size=(t, d)), dtype=np.float64)
        y, out = moe_layer_forward(gate, experts, x, k)
        topk = softmax(np.take_along_axis(out.logits.values, out.topk_indices, axis=1))
        dense = np.zeros((t, d))
        for i, e in enumerate(experts):
            # expert i's weight per token: its top-k weight, or zero when not chosen
            w = np.where(out.topk_indices == i, topk, 0.0).sum(axis=1, keepdims=True)
            dense += w * expert_forward(e, x.values).out
        np.testing.assert_allclose(y.values, dense, rtol=1e-12, atol=1e-15)

    def test_unrouted_experts_contribute_exact_zero(self):
        d, n, k, t = 8, 4, 1, 4
        spec = build_paired_spec(d, 8, [(1.5, 0.5), (1.25, 0.75)])
        experts = _seeded_experts(spec, seed=10)
        gate = _seeded_gate(d, n, seed=10)
        x = Tensor(stream_rng(10, "t").normal(size=(t, d)), dtype=np.float64)
        y, out = moe_layer_forward(gate, experts, x, k)
        # replacing an unrouted expert's weights must not change the output
        unused = next(i for i in range(n) if i not in set(out.topk_indices.reshape(-1)))
        experts2 = list(experts)
        experts2[unused] = ExpertParams(
            w_in=Tensor(np.full((d, experts[unused].hidden_size), 9.0), dtype=np.float64),
            w_gateproj=Tensor(np.full((d, experts[unused].hidden_size), 9.0), dtype=np.float64),
            w_out=Tensor(np.full((experts[unused].hidden_size, d), 9.0), dtype=np.float64),
        )
        y2, _ = moe_layer_forward(gate, experts2, x, k)
        assert np.array_equal(y.values, y2.values)

    def test_homogeneous_spec_bitwise_matches_uniform_baseline(self):
        d, n = 8, 4
        paired = build_paired_spec(d, 6, [(0.75, 0.75), (0.75, 0.75)])
        uniform = homogeneous_spec(d, 6, n)
        assert paired.expert_sizes == uniform.expert_sizes
        e1 = _seeded_experts(paired, seed=11, dtype=np.float32)
        e2 = _seeded_experts(uniform, seed=11, dtype=np.float32)
        g1 = _gate(d, n, stream_rng(11, "g"), dtype=np.float32, std=0.02)
        g2 = _gate(d, n, stream_rng(11, "g"), dtype=np.float32, std=0.02)
        x = Tensor(stream_rng(11, "t").normal(size=(7, d)), dtype=np.float32)
        y1, _ = moe_layer_forward(g1, e1, x, 2)
        y2, _ = moe_layer_forward(g2, e2, x, 2)
        assert np.array_equal(y1.values, y2.values)

    def test_empty_expert_list_rejected(self):
        gate = _seeded_gate(4, 4)
        with pytest.raises(ValueError, match="empty"):
            moe_layer_forward(gate, [], Tensor(np.zeros((1, 4)), dtype=np.float64), 1)

    @pytest.mark.parametrize("n_given", [3, 5])
    def test_expert_count_must_match_gate(self, n_given):
        # every token-rank routed past the end of a short list would be dropped silently
        spec = homogeneous_spec(4, 6, 6)
        experts = _seeded_experts(spec)[:n_given]
        gate = _seeded_gate(4, 4)
        with pytest.raises(ValueError, match=f"{n_given} experts for a gate over 4"):
            moe_layer_forward(gate, experts, Tensor(np.ones((2, 4)), dtype=np.float64), 2)
