import contextlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modse.tensor as tt
from modse.gradcheck import _proj
from modse.moe import GateParams, gate_forward
from modse.optim import AdamState, OptimizerConfig, adam_step
from modse.tensor import ShapeError, Tensor

# frozen oracle values, evaluated at 50-digit precision
LN2 = 0.6931471805599453
SOFTPLUS_M3 = 0.04858735157374206  # log(1 + exp(-3))
SOFTMAX_3_2 = (0.7310585786300049, 0.26894142136999512)  # e^3, e^2 over their sum
RMSNORM_34 = (1.697056274847714, 2.262741699796952)  # 2*[3,4]/sqrt(12.5)


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(tt.matmul(a, b).values, b.values)

    def test_hand_scalar_product(self):
        out = tt.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_random_vs_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        got = tt.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).values
        assert np.array_equal(got, triple_loop_matmul(a, b))

    @given(
        a=arrays(np.float64, (7, 6), elements=st.floats(-10, 10)),
        b=arrays(np.float64, (6, 4), elements=st.floats(-10, 10)),
    )
    @settings(max_examples=30)
    def test_matches_oracle_small_sizes(self, a, b):
        got = tt.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).values
        assert np.array_equal(got, triple_loop_matmul(a, b))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ShapeError, match="mixed dtypes"):
            tt.matmul(Tensor(np.zeros((2, 2)), dtype=np.float32), Tensor(np.zeros((2, 2)), dtype=np.float64))


class TestSoftplus:
    # the softplus inside `gate_logits`
    def test_at_zero_is_ln2(self):
        assert tt._softplus(np.array([0.0]))[0] == pytest.approx(LN2, abs=1e-15)

    def test_large_input_is_identity(self):
        assert abs(tt._softplus(np.array([100.0]))[0] - 100.0) < 1e-12

    def test_negative_matches_extended_precision(self):
        assert tt._softplus(np.array([-3.0]))[0] == pytest.approx(SOFTPLUS_M3, abs=1e-15)

    def test_no_overflow_far_negative(self):
        assert tt._softplus(np.array([-1000.0]))[0] == 0.0


class TestRmsnorm:
    def test_constant_vector_normalizes_to_ones(self):
        x = Tensor([2.5, 2.5, 2.5, 2.5], dtype=np.float64)
        out = tt.rmsnorm(x, Tensor(1.0, dtype=np.float64), eps=0.0)
        np.testing.assert_allclose(out.values, np.ones(4), rtol=1e-15)

    def test_zero_vector_fixed_point(self):
        out = tt.rmsnorm(Tensor([0.0, 0.0, 0.0]), Tensor(1.0), eps=1e-6)
        assert np.array_equal(out.values, np.zeros(3))

    def test_hand_formula(self):
        out = tt.rmsnorm(Tensor([3.0, 4.0], dtype=np.float64), Tensor(2.0, dtype=np.float64), eps=0.0)
        np.testing.assert_allclose(out.values, RMSNORM_34, rtol=1e-15)

    def test_vector_gamma_scales_per_feature(self):
        x = np.array([[3.0, 4.0]])
        gamma = np.array([1.0, 10.0])
        out = tt.rmsnorm(Tensor(x, dtype=np.float64), Tensor(gamma, dtype=np.float64), eps=0.0)
        np.testing.assert_allclose(out.values[0], [RMSNORM_34[0] / 2, RMSNORM_34[1] * 5], rtol=1e-13)


def row_softmax(v):
    """The probabilities `balance_penalty` takes of one [N] row of logits: for a single
    token, P is exactly that token's row softmax."""
    return tt.balance_penalty(Tensor(np.asarray(v)[None], dtype=np.float64), 1.0)[1]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(row_softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), rtol=1e-15)

    def test_masked_entry_exactly_zero(self):
        out = row_softmax([3.0, -np.inf, 2.0])
        assert out[1] == 0.0
        assert out[0] == pytest.approx(SOFTMAX_3_2[0], abs=1e-15)
        assert out[2] == pytest.approx(SOFTMAX_3_2[1], abs=1e-15)

    def test_large_logits_stable(self):
        out = row_softmax([1000.0, 999.0])
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
    @settings(max_examples=50)
    def test_rows_sum_to_one_nonnegative(self, x):
        for row in x:
            out = row_softmax(row)
            assert (out >= 0).all()
            assert out.sum() == pytest.approx(1.0, abs=1e-12)


def masked_softmax_chain(x, k, g):
    """Weights and d(loss)/d(x) of the keep-top-k then softmax chain the gate once used: every
    entry but a row's k largest set to -inf, then a row softmax over all N entries, with the
    top-k selection held constant in the backward. `g` is d(loss)/d(weights) as a [T, N] matrix."""
    idx = np.argsort(-x, axis=-1, kind="stable")[:, :k]
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=-1)
    v = np.where(mask, x, x.dtype.type(-np.inf))
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    dot = np.sum(g * out, axis=-1, keepdims=True)
    return out, np.where(mask, out * (g - dot), 0)


def topk_softmax(v, k, g=None):
    """The gate's top-k softmax of [T, N] logits v as the model computes it: the indices
    `gate_forward` picks for a gate whose logits are exactly v (identity scores, the noise term
    scaled by zero) and the [T, k] weights `routed_experts` gives them, read exactly through
    experts whose output rows are one-hot. With g, d(loss)/d(weights) as [T, k], also the
    logits' gradient (else None)."""
    dt, (t, n) = v.dtype, v.shape
    gate = GateParams(*(Tensor(a, dtype=dt) for a in (np.eye(n), np.zeros((n, n)), np.zeros(()))))
    idx = gate_forward(gate, Tensor(v, dtype=dt), k).topk_indices
    logits = Tensor(v, requires_grad=True, dtype=dt)
    zero = Tensor(np.zeros((1, 1)), dtype=dt)
    experts = [(zero, zero, Tensor(np.zeros((1, n)), dtype=dt))] * n

    def one_hot(i, rows):
        out, z = np.zeros((len(rows), n), dt), np.zeros((len(rows), 1), dt)
        out[:, i] = 1
        return tt.GluRows(out, z, z, z)

    y = tt.routed_experts(Tensor(np.zeros((t, 1)), dtype=dt), logits, idx, experts, one_hot)
    if g is not None:
        dense = np.zeros_like(v)
        np.put_along_axis(dense, idx, g, axis=-1)
        tt.backward(_proj(y, dense))
    return np.take_along_axis(y.values, idx, axis=-1), idx, logits.grad


class TestTopkSoftmax:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_matches_masked_softmax_chain_bit_for_bit(self, k, dtype):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(7, 6)).astype(dtype)
        g = rng.normal(size=(7, k)).astype(dtype)
        order = np.argsort(-x, axis=-1, kind="stable")
        if k == x.shape[1]:
            # the normaliser sums in rank order: the chain gives the same bits on rank-ordered rows
            x = np.take_along_axis(x, order, axis=-1)
        probs, idx, gx = topk_softmax(x, k, g)
        g_dense = np.zeros_like(x)
        np.put_along_axis(g_dense, idx, g, axis=-1)
        expect, expect_gx = masked_softmax_chain(x, k, g_dense)
        assert np.array_equal(idx, np.argsort(-x, axis=-1, kind="stable")[:, :k])
        assert probs.dtype == dtype and np.array_equal(probs, np.take_along_axis(expect, idx, axis=-1))
        assert gx.dtype == dtype and np.array_equal(gx, expect_gx)

    def test_basic(self):
        probs, idx, _ = topk_softmax(np.array([[3.0, 1.0, 2.0]]), 2)
        assert idx.tolist() == [[0, 2]]
        np.testing.assert_allclose(probs[0], SOFTMAX_3_2, rtol=0, atol=1e-15)

    def test_tie_lowest_index_wins(self):
        probs, idx, _ = topk_softmax(np.array([[5.0, 5.0, 1.0]]), 1)
        assert idx.tolist() == [[0]] and probs.tolist() == [[1.0]]
        assert topk_softmax(np.array([[1.0, 5.0, 5.0, 5.0]]), 2)[1].tolist() == [[1, 2]]

    def test_k_equals_n_is_full_softmax(self):
        x = np.array([[1.0, 4.0, 2.0, 3.0]])
        probs, idx, _ = topk_softmax(x, 4)
        assert idx.tolist() == [[1, 3, 2, 0]]
        np.testing.assert_allclose(probs[0], row_softmax(x[0])[[1, 3, 2, 0]], rtol=1e-15)

    def test_k_too_large_rejected(self):
        for k in (0, 3):
            with pytest.raises(ValueError, match="outside"):
                topk_softmax(np.array([[1.0, 2.0]]), k)
        x, experts = Tensor(np.ones((1, 1))), [(Tensor(np.ones((1, 1))),) * 3] * 2
        with pytest.raises(ShapeError, match="routed_experts"):
            tt.routed_experts(x, Tensor(np.ones((1, 2))), np.zeros((1, 3), dtype=np.int64), experts)
        with pytest.raises(ShapeError, match="routed_experts"):
            tt.routed_experts(x, Tensor([1.0, 2.0]), np.zeros((1, 1), dtype=np.int64), experts)

    @given(arrays(np.float64, (4, 6), elements=st.floats(-100, 100)), st.integers(1, 6))
    @settings(max_examples=50)
    def test_idempotent(self, v, k):
        # selecting again from the kept logits keeps all of them, in place, with the same weights
        once, idx, _ = topk_softmax(v, k)
        twice, idx2, _ = topk_softmax(np.take_along_axis(v, idx, axis=-1), k)
        assert np.array_equal(idx2, np.broadcast_to(np.arange(k), idx2.shape))
        assert np.array_equal(once, twice)

    @given(arrays(np.float64, (4, 6), elements=st.floats(-100, 100)), st.integers(1, 6))
    @settings(max_examples=50)
    def test_keeps_exactly_k(self, v, k):
        probs, idx, _ = topk_softmax(v, k)
        assert probs.shape == idx.shape == (4, k)
        assert all(len(set(row)) == k for row in idx.tolist())
        dropped = np.ones(v.shape, dtype=bool)
        np.put_along_axis(dropped, idx, False, axis=-1)
        for row, kept, off in zip(v, np.take_along_axis(v, idx, axis=-1), dropped):
            assert not off.any() or kept.min() >= row[off].max()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
        tt.backward(_proj(x, np.ones((2, 3))))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        w0 = rng.normal(size=(4, 2))
        w = Tensor(w0, requires_grad=True, dtype=np.float64)
        tt.backward(_proj(tt.matmul(Tensor(x, dtype=np.float64), w), np.ones((3, 2))))
        fd = tt.finite_diff_grad(
            lambda t: tt.matmul(Tensor(x, dtype=np.float64), t).values.sum(),
            Tensor(w0, dtype=np.float64),
        )
        rel = np.abs(w.grad - fd.values) / np.maximum(np.abs(fd.values), 1e-8)
        assert rel.max() <= 1e-4

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True, dtype=np.float64)
        loss = _proj(tt.rmsnorm(x, Tensor(1.0, dtype=np.float64)), np.arange(4.0))
        tt.backward(loss)
        once = x.grad.copy()
        tt.backward(loss)
        assert np.array_equal(x.grad, 2 * once)

    def test_only_leaves_keep_grad(self):
        x = Tensor(np.arange(4.0), requires_grad=True, dtype=np.float64)
        hidden = tt.rmsnorm(x, Tensor(1.0, dtype=np.float64))
        loss = _proj(hidden, np.ones(4))
        tt.backward(loss)
        assert x.grad is not None
        assert hidden.grad is None and loss.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            tt.backward(tt.add(x, x))

    def test_zero_grad_resets(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        tt.backward(_proj(x, np.ones(3)))
        x.zero_grad()
        assert x.grad is None

    def test_branching_graph_sums_paths(self):
        # loss = sum((x a + x) * p) -> grad p a^T + p
        rng = np.random.default_rng(2)
        a, p = rng.normal(size=(3, 3)), rng.normal(size=(2, 3))
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        tt.backward(_proj(tt.add(tt.matmul(x, Tensor(a, dtype=np.float64)), x), p))
        np.testing.assert_allclose(x.grad, p @ a.T + p, rtol=1e-15)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        fd = tt.finite_diff_grad(
            lambda t: float(np.sum(t.values * t.values)), Tensor([1.0, 2.0], dtype=np.float64)
        )
        np.testing.assert_allclose(fd.values, [2.0, 4.0], atol=1e-6)

    def test_softplus_sum_at_zero(self):
        fd = tt.finite_diff_grad(lambda t: float(tt._softplus(t.values).sum()), Tensor([0.0], dtype=np.float64))
        np.testing.assert_allclose(fd.values, [0.5], atol=1e-6)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            tt.finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


class TestStructuralOps:
    def test_gather_rows_repeated_index(self):
        x = np.arange(12.0).reshape(4, 3)
        idx = np.array([2, 0, 2])
        g = tt.gather_rows(Tensor(x, dtype=np.float64), idx)
        assert np.array_equal(g.values, x[idx])

    @pytest.mark.parametrize(
        "idx",
        [[0, 2, 3], [3, 0, 2], [2, 0, 2], [-1, 3], [], [1]],
        ids=["increasing", "unsorted", "repeated", "negative-alias", "empty", "single"],
    )
    def test_gather_rows_backward_matches_scatter_add(self, idx):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        idx = np.array(idx, dtype=np.int64)
        g = rng.normal(size=(len(idx), 3))
        tt.backward(_proj(tt.gather_rows(x, idx), g))
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, g)
        assert np.array_equal(x.grad, expected)

    def test_embedding_lookup_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            tt.embedding_lookup(Tensor(np.zeros((4, 2))), np.array([4]))


def routing(rng, t, k, n, unused):
    """[T, k] expert indices, each row k distinct experts other than `unused`, in random rank order."""
    experts = np.array([i for i in range(n) if i != unused])
    return np.stack([rng.permutation(experts)[:k] for _ in range(t)])


def expert_weights(rng, d, widths, dtype):
    return [[rng.normal(0.0, 0.5, s).astype(dtype) for s in ((d, h), (d, h), (h, d))] for h in widths]


def topk_weights(logits, idx):
    """Each row's softmax over its chosen logits, stabilised by their row max and normalised
    in rank order: the gate weights `routed_experts` computes."""
    top = np.take_along_axis(logits, idx, axis=-1)
    e = np.exp(top - top.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def topk_weights_backward(logits, idx, e, g):
    """d(loss)/d(logits) of `topk_weights` e given d(loss)/d(e) g, zero off each row's choice."""
    gx = np.zeros_like(logits)
    np.put_along_axis(gx, idx, e * (g - np.sum(g * e, axis=-1, keepdims=True)), axis=-1)
    return gx


class TestCombine:
    def test_matches_numpy_loop(self):
        # float64, a top-3 choice over four experts that is not the logits' top 3: the
        # gate-weighted merge equals a plain per-row loop over experts in index order, and the
        # weights' gradient a plain per-row sum, bit for bit
        rng = np.random.default_rng(5)
        t, d, k = 6, 4, 3
        idx = routing(rng, t, k, 4, unused=-1)
        logits = rng.normal(size=(t, 4))
        w = topk_weights(logits, idx)
        experts = expert_weights(rng, d, (5, 3, 6, 2), np.float64)
        x, g = rng.normal(size=(t, d)), rng.normal(size=(t, d))

        expect = np.zeros((t, d))
        expect_gw = np.zeros((t, k))
        for e, ws in enumerate(experts):
            rows, ranks = np.nonzero(idx == e)
            o = tt._glu_forward(x[rows], *ws).out
            for j, (i, c) in enumerate(zip(rows, ranks)):
                expect[i] = expect[i] + o[j] * w[i, c]
                expect_gw[i, c] = np.sum(g[i] * o[j])

        logits_t = Tensor(logits, requires_grad=True, dtype=np.float64)
        ts = [tuple(Tensor(a, dtype=np.float64) for a in ws) for ws in experts]
        y = tt.routed_experts(Tensor(x, dtype=np.float64), logits_t, idx, ts)
        assert np.array_equal(y.values, expect)
        tt.backward(_proj(y, g))
        assert np.array_equal(logits_t.grad, topk_weights_backward(logits, idx, w, expect_gw))

    def test_experts_run_widest_work_first(self, monkeypatch):
        # rows 4, 2, 0, 8, 3 over widths 8, 16, 32, 4, 16: costs 32, 32, -, 32, 48, so expert 4
        # runs first, the three ties follow by index and expert 2, with no rows, never runs;
        # the output keeps the bits of the index-order run
        monkeypatch.setattr(tt, "_workers", 1)
        rng = np.random.default_rng(19)
        widths, d = (8, 16, 32, 4, 16), 4
        idx = np.repeat(np.arange(5), (4, 2, 0, 8, 3)).reshape(-1, 1)
        rng.shuffle(idx)
        x = Tensor(rng.normal(size=(len(idx), d)), dtype=np.float64)
        logits = Tensor(rng.normal(size=(len(idx), 5)), dtype=np.float64)
        experts = [tuple(Tensor(a, dtype=np.float64) for a in ws) for ws in expert_weights(rng, d, widths, np.float64)]
        calls = []

        def forward(i, rows):
            calls.append((i, len(rows)))
            return tt._glu_forward(rows, *(w.values for w in experts[i]))

        y = tt.routed_experts(x, logits, idx, experts, forward)
        assert calls == [(4, 3), (0, 4), (1, 2), (3, 8)]
        assert np.array_equal(y.values, tt.routed_experts(x, logits, idx, experts).values)

    def test_shape_errors(self):
        x, logits = Tensor(np.ones((3, 4))), Tensor(np.ones((3, 3)))
        experts = [tuple(Tensor(np.ones(s)) for s in ((4, 5), (4, 5), (5, 4)))] * 3
        idx = np.array([[0, 1], [1, 2], [2, 0]])
        with pytest.raises(ShapeError):
            tt.routed_experts(x, logits, idx, [])
        with pytest.raises(ShapeError):
            tt.routed_experts(x, Tensor(np.ones((3, 2))), idx, experts)
        with pytest.raises(ShapeError):
            tt.routed_experts(x, logits, idx[:2], experts)
        with pytest.raises(ShapeError):
            tt.routed_experts(x, logits, idx[:, 0], experts)
        for bad in (3, -1):
            with pytest.raises(ValueError, match="expert index"):
                tt.routed_experts(x, logits, np.array([[0, 1], [1, 2], [2, bad]]), experts)
        with pytest.raises(ValueError, match="expert index"):
            tt.routed_experts(x, logits, idx.astype(np.float64), experts)
        with pytest.raises(ValueError, match="twice"):
            tt.routed_experts(x, logits, np.array([[0, 1], [2, 2], [2, 0]]), experts)
        with pytest.raises(ShapeError, match="mixed dtypes"):
            tt.routed_experts(x, Tensor(np.ones((3, 3)), dtype=np.float32), idx, experts)


def chain_matmul(a, b):
    """The forward of the matmul op: einsum up to 16 on every side, BLAS above."""
    return np.einsum("ik,kj->ij", a, b) if max(a.shape[0], a.shape[1], b.shape[1]) <= 16 else a @ b


def glu_chain(x, w_in, w_gate, w_out, g):
    """Output and gradients of the matmul, silu, matmul, mul, matmul chain, given d(loss)/d(output) g."""
    a = chain_matmul(x, w_in)
    s = 0.5 * (1.0 + np.tanh(0.5 * a)).astype(a.dtype)
    act = a * s
    b = chain_matmul(x, w_gate)
    hidden = act * b
    gh = g @ w_out.T
    g_act, gb = gh * b, gh * act
    ga = g_act * (s * (1.0 + a * (1.0 - s)))
    gx = gb @ w_gate.T
    gx = gx + ga @ w_in.T
    return chain_matmul(hidden, w_out), gx, x.T @ ga, x.T @ gb, hidden.T @ g


def penalty_chain(logits, c):
    """Loss, P, f and d(loss)/d(logits) of the chain balance_penalty replaces: the row softmax
    op, f from argmax and bincount of its probabilities, the matmul, div_scale, mul, sum_all,
    scale penalty chain, and the softmax op's backward."""
    (t, n), dt = logits.shape, logits.dtype
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    f = np.bincount(np.argmax(probs, axis=1), minlength=n).astype(np.float64) / t
    ones = np.ones((1, t), dt)
    p_row = chain_matmul(ones, probs) / dt.type(t)
    f_row = f.reshape(1, n).astype(dt)
    loss = np.asarray((p_row * f_row).sum(), dtype=dt) * dt.type(c)
    g = ones.T @ (np.full_like(p_row, np.ones((), dt) * dt.type(c)) * f_row / dt.type(t))
    return loss, p_row[0], f, probs * (g - np.sum(g * probs, axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows,d,h", [(5, 6, 7), (40, 24, 30)], ids=["einsum", "blas"])
class TestGluExpert:
    def test_matches_op_chain_bit_for_bit(self, dtype, rows, d, h):
        # the expert kernels of routed_experts: forward and backward equal the five-op chain
        rng = np.random.default_rng(11)
        x, w_in, w_gate, w_out = (rng.normal(size=s).astype(dtype) for s in ((rows, d), (d, h), (d, h), (h, d)))
        g = rng.normal(size=(rows, d)).astype(dtype)
        fwd = tt._glu_forward(x, w_in, w_gate, w_out)
        gx = np.empty_like(x)
        grads = tt._glu_backward(g, x, fwd[1:], (w_in, w_gate, w_out), gx)
        expect = glu_chain(x, w_in, w_gate, w_out, g)
        assert fwd.out.dtype == dtype and np.array_equal(fwd.out, expect[0])
        for got, eg in zip((gx, *grads), expect[1:]):
            assert got.dtype == dtype and np.array_equal(got, eg)

    def test_shape_and_dtype_errors(self, dtype, rows, d, h):
        x = Tensor(np.ones((rows, d)), dtype=dtype)
        logits = [Tensor(np.ones((rows, n)), dtype=dtype) for n in (1, 2)]
        idx = np.zeros((rows, 1), dtype=np.int64)
        w = Tensor(np.ones((d, h)), dtype=dtype)
        w_out = Tensor(np.ones((h, d)), dtype=dtype)
        with pytest.raises(ShapeError, match="routed_experts: expert 0"):
            tt.routed_experts(x, logits[0], idx, [(w, w, w)])
        with pytest.raises(ShapeError, match="routed_experts: expert 1"):
            tt.routed_experts(x, logits[1], idx, [(w, w, w_out), (w, w_out, w_out)])
        other = np.float32 if dtype == np.float64 else np.float64
        with pytest.raises(ShapeError, match="mixed dtypes"):
            tt.routed_experts(x, logits[0], idx, [(w, w, Tensor(np.ones((h, d)), dtype=other))])


def routed_chain(x, probs, idx, experts, g):
    """The per-expert chain routed_experts replaces, given d(loss)/d(output) g: each expert in
    index order gathers its rows, runs the five-op GLU chain, and one combine adds the
    gate-scaled outputs. Returns (output, x's partials in the order the tape added them,
    the gate weights' gradient, per expert its three weight gradients or None)."""
    y = np.zeros((x.shape[0], experts[0][2].shape[1]), x.dtype)
    g_probs = np.zeros_like(probs)
    x_parts, w_grads = [], []
    for e, ws in enumerate(experts):
        rows, ranks = np.nonzero(idx == e)
        if rows.size == 0:
            w_grads.append(None)
            continue
        w = probs[rows, ranks][:, None]
        out, gx, *gws = glu_chain(x[rows], *ws, g[rows] * w)
        y[rows] += out * w
        g_probs[rows, ranks] += np.sum(g[rows] * out, axis=1)
        full = np.zeros_like(x)
        full[rows] = gx
        x_parts.append(full)
        w_grads.append(gws)
    return y, x_parts[::-1], g_probs, w_grads


def topk_softmax_chain(logits, idx, g=None):
    """The weights, and given d(loss)/d(weights) g the logits' gradient, of the `topk_softmax`
    op the gate once recorded: each row's chosen logits, in rank order, softmaxed against
    rank 0's."""
    top = np.take_along_axis(logits, idx, axis=-1)
    e = np.exp(top - top[:, :1])
    e /= e.sum(axis=-1, keepdims=True)
    if g is None:
        return e, None
    gx = np.zeros_like(logits)
    np.put_along_axis(gx, idx, e * (g - np.sum(g * e, axis=-1, keepdims=True)), axis=-1)
    return e, gx


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shared", [False, True], ids=["once", "shared"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("t,d,widths", [(8, 6, (7, 5, 9, 6, 3)), (40, 24, (30, 18, 40, 12, 8))], ids=["einsum", "blas"])
class TestRoutedExperts:
    def test_matches_expert_chain_bit_for_bit(self, t, d, widths, k, shared, dtype):
        # the gate's top-k of the logits, with ties in every other row; below k = 5 expert 3
        # gets no rows; `shared` feeds x and the logits to later nodes too, so their gradients
        # pin the order of the op's partials
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(t, len(widths)))
        logits[::2] = np.round(logits[::2])
        logits[:, 3] = logits.min(axis=1) - 1.0
        logits = logits.astype(dtype)
        idx = np.argsort(-logits, axis=-1, kind="stable")[:, :k]
        x, g, p2 = (rng.normal(size=(t, d)).astype(dtype) for _ in range(3))
        p3 = rng.normal(size=logits.shape).astype(dtype)
        experts = expert_weights(rng, d, widths, dtype)
        x_t, logits_t = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, logits))
        ts = [tuple(Tensor(a, requires_grad=True, dtype=dtype) for a in ws) for ws in experts]
        y = tt.routed_experts(x_t, logits_t, idx, ts)
        probs = topk_softmax_chain(logits, idx)[0]
        expect_y, x_parts, expect_probs, expect_w = routed_chain(x, probs, idx, experts, g)
        expect_logits = topk_softmax_chain(logits, idx, expect_probs)[1]
        assert y.dtype == dtype and np.array_equal(y.values, expect_y)
        if shared:
            tt.backward(tt.add(_proj(y, g), tt.add(_proj(x_t, p2), _proj(logits_t, p3))))
            expect_x, expect_logits = accumulate(p2, *x_parts), p3 + expect_logits
        else:
            tt.backward(_proj(y, g))
            expect_x = accumulate(*x_parts)
        assert x_t.grad.dtype == dtype and np.array_equal(x_t.grad, expect_x)
        assert logits_t.grad.dtype == dtype and np.array_equal(logits_t.grad, expect_logits)
        for tensors, eg in zip(ts, expect_w):
            if eg is None:
                assert all(w.grad is None for w in tensors)
            else:
                for w, e in zip(tensors, eg):
                    assert w.grad.dtype == dtype and np.array_equal(w.grad, e)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t", [6, 300], ids=["einsum", "blas"])
class TestBalancePenalty:
    def test_matches_op_chain_bit_for_bit(self, dtype, t):
        # rows 0 and 1 tie every logit and their two largest, so f's tie rule shows
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(t, 5)).astype(dtype)
        logits[0] = 1.0
        logits[1, 3] = logits[1].max()
        x = Tensor(logits, requires_grad=True, dtype=dtype)
        loss, p, f = tt.balance_penalty(x, 0.05)
        expect_loss, expect_p, expect_f, expect_g = penalty_chain(logits, 0.05)
        assert loss.values.shape == () and loss.dtype == dtype and loss.values == expect_loss
        assert p.dtype == dtype and np.array_equal(p, expect_p)
        assert f.dtype == np.float64 and np.array_equal(f, expect_f)
        tt.backward(loss)
        assert x.grad.dtype == dtype and np.array_equal(x.grad, expect_g)

    def test_shape_errors(self, dtype, t):
        with pytest.raises(ShapeError, match="balance_penalty"):
            tt.balance_penalty(Tensor(np.ones(4), dtype=dtype), 1.0)
        with pytest.raises(ShapeError, match="balance_penalty"):
            tt.balance_penalty(Tensor(np.ones((t, 4, 1)), dtype=dtype), 1.0)


def test_balance_penalty_counts_f_on_probabilities():
    # in float32, exp(-1e-8) rounds to 1: the probabilities tie where the logits do not,
    # and f goes to the lowest index of the tie, not to the larger logit
    logits = Tensor(np.array([[0.0, 1e-8, -3.0]], dtype=np.float32))
    assert np.argmax(logits.values) == 1
    assert tt.balance_penalty(logits, 1.0)[2].tolist() == [1.0, 0.0, 0.0]


def reference_rotation(x, cos, sin):
    """Rotary mixing of one head's [S, hd] rows: each (x1, x2) half pair turned by its angle."""
    half = cos.shape[1]
    return np.hstack([x[:, :half] * cos - x[:, half:] * sin, x[:, :half] * sin + x[:, half:] * cos])


def reference_attention(q, k, v, n_heads, cos, sin):
    """Plain-numpy multi-head causal attention, one head and one sequence at a time."""
    seq_len, half = cos.shape
    hd = 2 * half
    out = np.zeros_like(v)
    for b in range(q.shape[0] // seq_len):
        rows = slice(b * seq_len, (b + 1) * seq_len)
        for h in range(n_heads):
            cols = slice(h * hd, (h + 1) * hd)
            qh, kh = (reference_rotation(x[rows, cols], cos, sin) for x in (q, k))
            vh = v[rows, cols]
            for i in range(seq_len):
                scores = kh[: i + 1] @ qh[i] / np.sqrt(hd)
                w = np.exp(scores - scores.max())
                out[b * seq_len + i, cols] = (w / w.sum()) @ vh[: i + 1]
    return out


def rope_angles(seq_len, hd, rng):
    theta = rng.normal(size=(seq_len, hd // 2))
    return np.cos(theta), np.sin(theta)


def rmsnorm_chain(v, gamma, eps=1e-6):
    """Output and 1/rms of the rmsnorm op before the fused ops took it over."""
    r = 1.0 / np.sqrt(np.mean(np.square(v), axis=-1, keepdims=True) + v.dtype.type(eps))
    return v * r * gamma, r


def rmsnorm_chain_grads(g, v, r, gamma):
    """The rmsnorm op's backward: the gradients of v and gamma."""
    n = v.shape[-1]
    xhat = v * r
    gg = g * gamma
    gx = (gg - xhat * (np.einsum("...i,...i->...", gg, xhat)[..., None] / n)) * r
    ggamma = g * xhat
    return gx, np.asarray(ggamma.sum(), dtype=v.dtype) if gamma.ndim == 0 else ggamma.reshape(-1, n).sum(axis=0)


def sublayer_reference(h, gamma, w, n_heads, cos, sin):
    """Plain-numpy pre-norm attention sublayer h + Attn(n Wq, n Wk, n Wv) Wo, n = rmsnorm(h, gamma)."""
    wq, wk, wv, wo = w
    n = rmsnorm_chain(h, gamma)[0]
    return h + reference_attention(n @ wq, n @ wk, n @ wv, n_heads, cos, sin) @ wo


def sublayer_inputs(rng, rows, d):
    """h, a [d] gamma and the four [d, d] weights, in float64."""
    return rng.normal(size=(rows, d)), rng.normal(size=d) + 1.5, [rng.normal(0.0, 0.5, (d, d)) for _ in range(4)]


def attend(h, gamma, w, n_heads, cos, sin):
    tables = tt.build_attention_tables(cos, sin, n_heads)
    ts = [Tensor(a, dtype=np.float64) for a in (h, gamma, *w)]
    return tt.causal_attention(*ts, tables).values


def rotate(x, n_heads, cos, sin):
    """The op's rotation of [B*S, n_heads*hd] rows by the [S, hd/2] angle tables."""
    tables = tt.build_attention_tables(cos, sin, n_heads)
    return tt._rotate(x, tables.cos_k, tables.sin_k)


class TestRope:
    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2 * 5, 3 * 8))
        cos, sin = rope_angles(5, 8, rng)
        out = rotate(x, 3, cos, sin)
        per_head = (2, 5, 3, 8)
        np.testing.assert_allclose(
            np.linalg.norm(out.reshape(per_head), axis=-1), np.linalg.norm(x.reshape(per_head), axis=-1), rtol=1e-12
        )

    def test_rotation_matches_per_head_reference(self):
        rng = np.random.default_rng(9)
        n_heads, hd, seq_len = 3, 8, 5
        x = rng.normal(size=(2 * seq_len, n_heads * hd))
        cos, sin = rope_angles(seq_len, hd, rng)
        out = rotate(x, n_heads, cos, sin)
        for b in range(2):
            rows = slice(b * seq_len, (b + 1) * seq_len)
            for h in range(n_heads):
                cols = slice(h * hd, (h + 1) * hd)
                assert np.array_equal(out[rows, cols], reference_rotation(x[rows, cols], cos, sin))

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(7)
        h, gamma, w = sublayer_inputs(rng, 6, 8)
        cos, sin = np.ones((3, 2)), np.zeros((3, 2))
        np.testing.assert_allclose(attend(h, gamma, w, 2, cos, sin), sublayer_reference(h, gamma, w, 2, cos, sin), rtol=1e-12)


class TestCausalAttention:
    def test_matches_per_head_reference(self):
        # S = 130 spans three row blocks, the last one partial
        rng = np.random.default_rng(8)
        n_heads, hd, seq_len = 3, 6, 130
        h, gamma, w = sublayer_inputs(rng, 2 * seq_len, n_heads * hd)
        cos, sin = rope_angles(seq_len, hd, rng)
        np.testing.assert_allclose(
            attend(h, gamma, w, n_heads, cos, sin), sublayer_reference(h, gamma, w, n_heads, cos, sin), rtol=1e-10
        )

    def test_single_token_attends_to_itself(self):
        # one position: the softmax weight is exactly 1, so the sublayer is h + (n Wv) Wo
        rng = np.random.default_rng(4)
        h, gamma, w = sublayer_inputs(rng, 1, 4)
        cos, sin = rope_angles(1, 2, rng)
        n, _ = rmsnorm_chain(h, gamma)
        expect = h + chain_matmul(chain_matmul(n, w[2]), w[3])
        np.testing.assert_allclose(attend(h, gamma, w, 2, cos, sin), expect, rtol=1e-15)

    def test_future_values_do_not_leak(self):
        rng = np.random.default_rng(5)
        h, gamma, w = sublayer_inputs(rng, 6, 8)
        cos, sin = rope_angles(6, 4, rng)
        base = attend(h, gamma, w, 2, cos, sin)
        h2 = h.copy()
        h2[4:] += 100.0  # positions 4,5 only
        out = attend(h2, gamma, w, 2, cos, sin)
        np.testing.assert_allclose(out[:4], base[:4], rtol=1e-15)

    def test_blocks_are_independent(self):
        rng = np.random.default_rng(6)
        h, gamma, w = sublayer_inputs(rng, 8, 8)
        cos, sin = rope_angles(4, 4, rng)
        whole = attend(h, gamma, w, 2, cos, sin)
        first = attend(h[:4], gamma, w, 2, cos, sin)
        np.testing.assert_allclose(whole[:4], first, rtol=1e-15)

    def test_gradients_across_blocks_match_central_differences(self):
        # S = 130: three query blocks, the last one partial; every block of h gets sampled coordinates
        rng = np.random.default_rng(13)
        n_heads, hd, seq_len, step = 2, 4, 130, 1e-6
        d = n_heads * hd
        h, gamma, w = sublayer_inputs(rng, seq_len, d)
        arrays_ = dict(zip(("h", "gamma", "wq", "wk", "wv", "wo"), (h, gamma, *w)))
        tables = tt.build_attention_tables(*rope_angles(seq_len, hd, rng), n_heads)
        proj = rng.normal(size=(seq_len, d))

        def loss(values):
            return _proj(tt.causal_attention(*values.values(), tables), proj)

        leaves = {name: Tensor(a, requires_grad=True, dtype=np.float64) for name, a in arrays_.items()}
        tt.backward(loss(leaves))
        blocks = [(r0, min(r0 + tt.ATTN_BLOCK, seq_len)) for r0 in range(0, seq_len, tt.ATTN_BLOCK)]
        assert len(blocks) == 3 and blocks[-1] == (128, 130)
        probes = [("h", (r0 * d + c,)) for r0, r1 in blocks for c in rng.choice((r1 - r0) * d, 10, replace=False)]
        probes += [(name, (c,)) for name in ("gamma", "wq", "wk", "wv", "wo") for c in rng.choice(arrays_[name].size, 5)]
        for name, (cell,) in probes:
            fd = {}
            for sign in (1, -1):
                a = arrays_[name].copy()
                a.reshape(-1)[cell] += sign * step
                fd[sign] = loss({n: Tensor(a if n == name else arrays_[n], dtype=np.float64) for n in arrays_}).item()
            grad = leaves[name].grad.reshape(-1)[cell]
            assert grad == pytest.approx((fd[1] - fd[-1]) / (2 * step), rel=1e-6, abs=1e-8), (name, cell)

    def test_shape_errors(self):
        ones = np.ones((3, 2))
        tables = tt.build_attention_tables(np.cos(ones), np.sin(ones), 2)
        h, w = Tensor(np.zeros((6, 8)), dtype=np.float64), Tensor(np.ones((8, 8)), dtype=np.float64)
        gamma = Tensor(np.ones(8), dtype=np.float64)
        three_heads = tt.build_attention_tables(np.cos(ones), np.sin(ones), 3)  # 8 columns do not split into 3 heads
        seq_4 = tt.build_attention_tables(np.ones((4, 2)), np.ones((4, 2)), 2)  # 6 rows, seq 4
        for bad in (three_heads, seq_4):
            with pytest.raises(ShapeError, match="causal_attention"):
                tt.causal_attention(h, gamma, w, w, w, w, bad)
        with pytest.raises(ShapeError, match="causal_attention"):
            tt.causal_attention(h, gamma, w, w, w, Tensor(np.ones((8, 4)), dtype=np.float64), tables)
        with pytest.raises(ShapeError, match="gamma"):
            tt.causal_attention(h, Tensor(np.ones(4), dtype=np.float64), w, w, w, w, tables)
        with pytest.raises(ShapeError, match="mixed dtypes"):
            tt.causal_attention(h, gamma, w, w, w, w, tt.build_attention_tables(*(ones.astype(np.float32),) * 2, 2))
        with pytest.raises(ShapeError, match="attention tables"):
            tt.build_attention_tables(ones, np.ones((3, 1)), 2)


def chain_rotate(x, cos, sin, n_heads):
    """The unfused attention op's rotation by [S, hd/2] tables; (cos, -sin) applies its transpose."""
    shape = (cos.shape[0], n_heads, 2, cos.shape[1])
    cos_t = np.broadcast_to(cos[:, None, None], shape).reshape(-1)
    sin_t = np.broadcast_to(np.stack([-sin, sin], axis=1)[:, None], shape).reshape(-1)
    seqs = (-1, cos_t.size)
    swapped = x.reshape(-1, 2, cos.shape[1])[:, ::-1].reshape(seqs) * sin_t
    return (x.reshape(seqs) * cos_t + swapped).reshape(x.shape)


def attention_chain(q, k, v, n_heads, cos, sin):
    """Output of the unfused attention op, and its backward: d(loss)/d(output) -> the q, k, v gradients."""
    (rows, d), (seq_len, half), dt = q.shape, cos.shape, q.dtype
    split = (rows // seq_len, seq_len, n_heads, d // n_heads)
    inv = dt.type(1.0 / np.sqrt(d // n_heads))

    def heads(x):
        return x.reshape(split).transpose(0, 2, 1, 3)

    qh = heads(chain_rotate(q, cos * inv, sin * inv, n_heads))
    kh = heads(chain_rotate(k, cos, sin, n_heads))
    vh = heads(v)
    mask = np.tril(np.full((tt.ATTN_BLOCK, tt.ATTN_BLOCK), -np.inf, dtype=dt), k=-1)
    out = np.empty(split, dt)
    blocks = []
    for r0 in range(0, seq_len, tt.ATTN_BLOCK):
        r1 = min(r0 + tt.ATTN_BLOCK, seq_len)
        p = kh[:, :, :r1] @ qh[:, :, r0:r1].swapaxes(-1, -2)
        p[..., r0:, :] += mask[: r1 - r0, : r1 - r0]
        p = np.exp(p - p.max(axis=-2, keepdims=True))
        p = p / p.sum(axis=-2, keepdims=True)
        out.transpose(0, 2, 1, 3)[:, :, r0:r1] = p.swapaxes(-1, -2) @ vh[:, :, :r1]
        blocks.append((r0, r1, p))

    def backward(g):
        gq, gk, gv = (np.zeros(split, dt) for _ in range(3))
        gh = heads(g)
        row_term = np.einsum("bshk,bshk->bhs", g.reshape(split), out)[:, :, None, :]
        gq_h, gk_h, gv_h = (x.transpose(0, 2, 1, 3) for x in (gq, gk, gv))
        for r0, r1, p in blocks:
            go = gh[:, :, r0:r1]
            pv = p @ go
            gv_h[:, :, :r0] += pv[:, :, :r0]
            gv_h[:, :, r0:r1] = pv[:, :, r0:]
            ds = (vh[:, :, :r1] @ go.swapaxes(-1, -2) - row_term[..., r0:r1]) * p
            gq_h[:, :, r0:r1] = ds.swapaxes(-1, -2) @ kh[:, :, :r1]
            dk = ds @ qh[:, :, r0:r1]
            gk_h[:, :, :r0] += dk[:, :, :r0]
            gk_h[:, :, r0:r1] = dk[:, :, r0:]
        gq = chain_rotate(gq.reshape(rows, d), cos * inv, -(sin * inv), n_heads)
        gk = chain_rotate(gk.reshape(rows, d), cos, -sin, n_heads)
        return gq, gk, gv.reshape(rows, d)

    return out.reshape(rows, d), backward


def sublayer_chain(h, gamma, wq, wk, wv, wo, n_heads, cos, sin, g):
    """Output and partial gradients of the rmsnorm, three matmuls, attention, matmul, add chain:
    (out, g_residual, g_norm, g_gamma, g_wq, g_wk, g_wv, g_wo)."""
    n, r = rmsnorm_chain(h, gamma)
    q, k, v = (chain_matmul(n, w) for w in (wq, wk, wv))
    att, attention_backward = attention_chain(q, k, v, n_heads, cos, sin)
    out = h + chain_matmul(att, wo)
    gq, gk, gv = attention_backward(g @ wo.T)
    gn = gv @ wv.T + gk @ wk.T + gq @ wq.T  # the tape visits the v, k and q matmuls in that order
    gx, ggamma = rmsnorm_chain_grads(gn, h, r, gamma)
    return out, g, gx, ggamma, n.T @ gq, n.T @ gk, n.T @ gv, att.T @ g


def gate_chain(x, w_gate, w_noise, gamma, g):
    """Logits and partial gradients of the matmul, softplus, rmsnorm, matmul, add chain:
    (logits, g_x via w_gate, g_x via w_noise, g_w_gate, g_w_noise, g_gamma)."""
    a = chain_matmul(x, w_noise)
    s = (np.maximum(a, 0) + np.log1p(np.exp(-np.abs(a)))).astype(x.dtype)
    noise, r = rmsnorm_chain(s, gamma)
    logits = chain_matmul(x, w_gate) + noise
    gs, ggamma = rmsnorm_chain_grads(g, s, r, gamma)
    ga = gs * (0.5 * (1.0 + np.tanh(0.5 * a)))
    return logits, g @ w_gate.T, ga @ w_noise.T, x.T @ g, x.T @ ga, ggamma


def accumulate(first, *partials):
    """A tensor's gradient as the tape sums it: the partials of later nodes first, left to right."""
    acc = first
    for p in partials:
        acc = acc + p
    return acc


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shared", [False, True], ids=["once", "shared"])
@pytest.mark.parametrize("batch,seq_len,n_heads,hd", [(2, 5, 2, 4), (2, 130, 3, 6)], ids=["einsum", "blas"])
class TestAttentionSublayer:
    def test_matches_op_chain_bit_for_bit(self, batch, seq_len, n_heads, hd, shared, dtype):
        # `shared` feeds h to a later node too, so h's gradient pins the order of the op's two partials
        rng = np.random.default_rng(15)
        rows, d = batch * seq_len, n_heads * hd
        h, gamma, w = sublayer_inputs(rng, rows, d)
        arrays_ = [a.astype(dtype) for a in (h, gamma, *w)]
        cos, sin = (t.astype(dtype) for t in rope_angles(seq_len, hd, rng))
        g, p2 = (rng.normal(size=(rows, d)).astype(dtype) for _ in range(2))
        ts = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays_]
        y = tt.causal_attention(*ts, tt.build_attention_tables(cos, sin, n_heads))
        expect = sublayer_chain(*arrays_, n_heads, cos, sin, g)
        assert y.dtype == dtype and np.array_equal(y.values, expect[0])
        tt.backward(tt.add(_proj(y, g), _proj(ts[0], p2)) if shared else _proj(y, g))
        expect_h = accumulate(p2, *expect[1:3]) if shared else accumulate(*expect[1:3])
        for t, eg in zip(ts, (expect_h, *expect[3:])):
            assert t.grad.dtype == dtype and np.array_equal(t.grad, eg)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shared", [False, True], ids=["once", "shared"])
@pytest.mark.parametrize("t,d,n", [(5, 6, 4), (40, 24, 8)], ids=["einsum", "blas"])
class TestGateLogits:
    def test_matches_op_chain_bit_for_bit(self, t, d, n, shared, dtype):
        # `shared` feeds x to a later node too, so x's gradient pins the order of the op's two partials
        rng = np.random.default_rng(16)
        arrays_ = [rng.normal(size=s).astype(dtype) for s in ((t, d), (d, n), (d, n))]
        arrays_.append(np.asarray(rng.normal() + 1.5, dtype=dtype))
        g, p2 = rng.normal(size=(t, n)).astype(dtype), rng.normal(size=(t, d)).astype(dtype)
        ts = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays_]
        y = tt.gate_logits(*ts)
        expect = gate_chain(*arrays_, g)
        assert y.dtype == dtype and np.array_equal(y.values, expect[0])
        tt.backward(tt.add(_proj(y, g), _proj(ts[0], p2)) if shared else _proj(y, g))
        expect_x = accumulate(p2, *expect[1:3]) if shared else accumulate(*expect[1:3])
        for tensor, eg in zip(ts, (expect_x, *expect[3:])):
            assert tensor.grad.dtype == dtype and np.array_equal(tensor.grad, eg)

    def test_shape_and_dtype_errors(self, t, d, n, shared, dtype):
        x, w, gamma = (Tensor(np.ones(s), dtype=dtype) for s in ((t, d), (d, n), ()))
        with pytest.raises(ShapeError, match="gate_logits"):
            tt.gate_logits(x, w, Tensor(np.ones((d, n + 1)), dtype=dtype), gamma)
        with pytest.raises(ShapeError, match="gate_logits"):
            tt.gate_logits(Tensor(np.ones((t, d + 1)), dtype=dtype), w, w, gamma)
        with pytest.raises(ShapeError, match="gamma"):
            tt.gate_logits(x, w, w, Tensor(np.ones(n + 1), dtype=dtype))
        other = np.float32 if dtype == np.float64 else np.float64
        with pytest.raises(ShapeError, match="mixed dtypes"):
            tt.gate_logits(x, w, w, Tensor(1.0, dtype=other))


class TestCrossEntropy:
    def test_matches_scalar_formula(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        targets = np.array([1, 2])
        out = tt.cross_entropy(Tensor(logits, dtype=np.float64), targets)
        expect = 0.0
        for row, t in zip(logits, targets):
            e = np.exp(row - row.max())
            expect += -np.log(e[t] / e.sum())
        assert out.item() == pytest.approx(expect / 2, rel=1e-14)

    def test_per_token_consistent_with_mean(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(9, 5))
        targets = rng.integers(0, 5, size=9)
        mean = tt.cross_entropy(Tensor(logits, dtype=np.float64), targets).item()
        per = tt.per_token_cross_entropy(logits, targets)
        assert per.mean() == pytest.approx(mean, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tt.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# worker pool


@contextlib.contextmanager
def short_switch_interval():
    """A 1 us thread switch interval, so pooled pieces interleave at many more points."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool of this test's own, shut down after it."""
    monkeypatch.setattr(tt, "_pool", None)
    yield
    if tt._pool is not None:
        tt._pool[1].shutdown()


def routed_at_gate(dtype, idle=()):
    """The toy layer's experts on 512 tokens, k = 2, d = 64: T*k*d is exactly PARALLEL_WORK.
    The experts in `idle` get no rows."""
    rng = np.random.default_rng(23)
    t, d, widths = 512, 64, (288, 32, 256, 64, 192, 128, 160, 160)
    logits = rng.normal(size=(t, len(widths))).astype(dtype)
    logits[:, list(idle)] -= 100
    idx = np.argsort(-logits, axis=-1, kind="stable")[:, :2]
    weights = [w for ws in expert_weights(rng, d, widths, dtype) for w in ws]

    def op(x, lg, *ws):
        return tt.routed_experts(x, lg, idx, [ws[i : i + 3] for i in range(0, len(ws), 3)])

    assert t * 2 * d >= tt.PARALLEL_WORK
    return op, [rng.normal(size=(t, d)).astype(dtype), logits, *weights]


def routed_with_an_idle_expert(dtype):
    """routed_at_gate with expert 2 idle: the queue's cost order, rows * h_i, is not the index order."""
    op, inputs = routed_at_gate(dtype, idle=(2,))
    rows = np.bincount(np.argsort(-inputs[1], axis=-1, kind="stable")[:, :2].ravel(), minlength=8)
    cost = rows * np.array([w.shape[1] for w in inputs[2::3]])
    assert rows[2] == 0 and (np.argsort(-cost, kind="stable") != np.arange(8)).any()
    return op, inputs


def attention_at_gate(dtype):
    """Three sequences of 80 over 4 heads of 72, two query blocks each: B*H*S^2 = 76,800 for
    the core, B*S*d = 69,120 for the norm, projections, rotations and gradient GEMMs."""
    rng = np.random.default_rng(29)
    batch, seq_len, n_heads, hd = 3, 80, 4, 72
    h, gamma, w = sublayer_inputs(rng, batch * seq_len, n_heads * hd)
    tables = tt.build_attention_tables(*(a.astype(dtype) for a in rope_angles(seq_len, hd, rng)), n_heads)
    assert min(batch * n_heads * seq_len**2, batch * seq_len * n_heads * hd) >= tt.PARALLEL_WORK
    return (lambda *ts: tt.causal_attention(*ts, tables)), [a.astype(dtype) for a in (h, gamma, *w)]


def matmul_at_gate(dtype):
    """[512, 48] @ [48, 130]: the output gradient's 66,560 elements reach PARALLEL_WORK."""
    rng = np.random.default_rng(31)
    assert 512 * 130 >= tt.PARALLEL_WORK
    return tt.matmul, [rng.normal(size=s).astype(dtype) for s in ((512, 48), (48, 130))]


def rmsnorm_at_gate(dtype):
    """515 rows of 128 with a [128] gamma: 65,920 elements, split 257/258 by 2 workers."""
    rng = np.random.default_rng(37)
    assert 515 * 128 >= tt.PARALLEL_WORK
    return tt.rmsnorm, [rng.normal(size=(515, 128)).astype(dtype), (rng.normal(size=128) + 1.5).astype(dtype)]


def cross_entropy_at_gate(dtype):
    """300 rows of 258 logits: 77,400 elements."""
    rng = np.random.default_rng(41)
    targets = rng.integers(0, 258, 300)
    assert 300 * 258 >= tt.PARALLEL_WORK
    return (lambda logits: tt.cross_entropy(logits, targets)), [rng.normal(size=(300, 258)).astype(dtype)]


def values_and_grads(op, inputs):
    """op's output values and every input's gradient, under a fixed projection of the output."""
    ts = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in inputs]
    y = op(*ts)
    tt.backward(_proj(y, np.random.default_rng(5).normal(size=y.shape).astype(y.dtype)))
    return [y.values, *(t.grad for t in ts)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "make",
    [
        routed_at_gate,
        routed_with_an_idle_expert,
        attention_at_gate,
        matmul_at_gate,
        rmsnorm_at_gate,
        cross_entropy_at_gate,
    ],
    ids=["routed_experts", "routed_experts_idle", "causal_attention", "matmul", "rmsnorm", "cross_entropy"],
)
def test_bits_do_not_depend_on_the_worker_count(monkeypatch, fresh_pool, make, dtype):
    # 3 workers split attention's 3 sequences 1/1/1, 2 workers split them 1/2
    op, inputs = make(dtype)
    results = {}
    with short_switch_interval():
        for workers in (1, 2, 3):
            monkeypatch.setattr(tt, "_workers", workers)
            results[workers] = values_and_grads(op, inputs)
            assert workers == 1 or tt._pool[0] == workers - 1  # pieces went to a pool beside the caller
    for workers in (2, 3):
        for got, expect in zip(results[workers], results[1]):
            if expect is None:  # an idle expert's weights get no gradient
                assert got is None
            else:
                assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_bits_do_not_depend_on_the_worker_count(monkeypatch, fresh_pool, dtype):
    # the middle parameter gets no gradient, so the update makes two runs of 70,000 and
    # 75,000 elements, each split into contiguous ranges over the workers
    shapes = ((70_000,), (300,), (300, 250))
    rng = np.random.default_rng(43)
    inits = [rng.normal(size=s).astype(dtype) for s in shapes]
    grads = [[rng.normal(size=s).astype(dtype) for s in shapes] for _ in range(3)]
    cfg = OptimizerConfig(warmup_steps=1, total_steps=10)
    results = {}
    with short_switch_interval():
        for workers in (1, 2, 3):
            monkeypatch.setattr(tt, "_workers", workers)
            params = [(f"p{i}", Tensor(a.copy(), requires_grad=True, dtype=dtype)) for i, a in enumerate(inits)]
            state = AdamState(params)
            for step, step_grads in enumerate(grads, 1):
                for (i, (_, p)), g in zip(enumerate(params), step_grads):
                    p.grad = None if i == 1 else g
                state.gather_grads()
                assert len(state.runs) == 2
                adam_step(state, cfg, step)
            assert workers == 1 or tt._pool[0] == workers - 1
            results[workers] = (state.flat, state.m, state.v)
    for workers in (2, 3):
        for got, expect in zip(results[workers], results[1]):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)


def test_forked_child_runs_a_pooled_op(monkeypatch, fresh_pool):
    # a fork copies the parent's executor but none of its threads; the child must build its own
    import multiprocessing

    monkeypatch.setattr(tt, "_workers", 2)
    op, inputs = routed_at_gate(np.float32)
    expect = values_and_grads(op, inputs)
    assert tt._pool is not None

    def child():
        got = values_and_grads(op, inputs)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


@pytest.mark.parametrize("workers", [2, 3])
def test_map_runs_each_piece_once_on_the_caller_and_the_pool(monkeypatch, fresh_pool, workers):
    # the calling thread drains the queue beside a pool of workers - 1 threads; whether a pool
    # thread gets a piece is up to the scheduler, so only the caller's share is pinned
    monkeypatch.setattr(tt, "_workers", workers)
    ran = []

    def piece(i):
        ran.append((i, threading.get_ident()))
        time.sleep(0.002)
        return i * i

    with short_switch_interval():
        assert tt._map(piece, list(range(40)), tt.PARALLEL_WORK) == [i * i for i in range(40)]
    assert sorted(i for i, _ in ran) == list(range(40))
    threads = {thread for _, thread in ran}
    assert threading.get_ident() in threads and len(threads) <= workers
    assert tt._pool[0] == workers - 1 and tt._pool[1]._max_workers == workers - 1


def test_map_raises_only_once_every_started_piece_returned(monkeypatch, fresh_pool):
    # the failing piece waits until its slow sibling has started, so the two run at once
    monkeypatch.setattr(tt, "_workers", 2)
    started, done = threading.Event(), threading.Event()

    def piece(i):
        if i == 0:
            started.wait(timeout=10)
            raise RuntimeError("piece 0")
        started.set()
        time.sleep(0.2)
        done.set()

    with pytest.raises(RuntimeError, match="piece 0"):
        tt._map(piece, [0, 1], tt.PARALLEL_WORK)
    assert done.is_set()


def test_map_inside_a_piece_finishes(monkeypatch):
    # every pool thread may be busy running an outer piece: an inner map's drains that no
    # thread started are cancelled, and its caller drains the inner queue alone
    monkeypatch.setattr(tt, "_workers", 2)
    monkeypatch.setattr(tt, "_pool", None)

    def outer(i):
        return sum(tt._map(lambda j: i * j, [1, 2, 3], tt.PARALLEL_WORK))

    results = []
    work = tt.PARALLEL_WORK
    caller = threading.Thread(target=lambda: results.append(tt._map(outer, [1, 2, 3, 4], work)), daemon=True)
    caller.start()
    caller.join(timeout=30)
    finished = not caller.is_alive()
    tt._pool[1].shutdown(wait=finished)  # a deadlocked pool thread would never end
    assert finished and results == [[6, 12, 18, 24]]
