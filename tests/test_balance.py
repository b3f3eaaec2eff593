import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modse.tensor as tt
from modse.moe import GateOutput
from modse.rng import stream_rng
from modse.tensor import ShapeError, Tensor
from modse.train import balance_loss


def gate_output_from_probs(probs: np.ndarray) -> GateOutput:
    """Wrap a row-stochastic matrix as a routing decision (top-2 bookkeeping) whose logits'
    softmax is that matrix, up to rounding."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = np.argsort(-probs, axis=1, kind="stable")[:, :2]
    return GateOutput(topk_indices=idx, logits=Tensor(np.log(np.maximum(probs, 1e-300)), dtype=np.float64))


def brute_force_loss(probs: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    t, n = probs.shape
    f = np.zeros(n)
    for row in probs:
        best, best_i = -1.0, 0
        for i, p in enumerate(row):
            if p > best:
                best, best_i = p, i
        f[best_i] += 1.0 / t
    P = np.zeros(n)
    for row in probs:
        for i, p in enumerate(row):
            P[i] += p / t
    loss = alpha * n * sum(f[i] * P[i] for i in range(n))
    return f, P, loss


def cyclic_peaked_probs(n: int, reps: int) -> np.ndarray:
    """Each expert is argmax for exactly `reps` tokens; column means are uniform."""
    base = np.full(n, (1.0 - 0.4) / (n - 1))
    base[0] = 0.4
    rows = [np.roll(base, s) for s in range(n) for _ in range(reps)]
    return np.stack(rows)


class TestBalanceLoss:
    def test_uniform_routing_gives_alpha(self):
        probs = cyclic_peaked_probs(4, reps=3)
        stats = balance_loss(gate_output_from_probs(probs), alpha=0.01)
        np.testing.assert_allclose(stats.f, 0.25)
        np.testing.assert_allclose(stats.P, 0.25, atol=1e-15)
        assert abs(stats.loss.item() - 0.01) <= 1e-12

    def test_total_collapse_gives_alpha_times_n(self):
        n, t = 4, 6
        probs = np.zeros((t, n))
        probs[:, 0] = 1.0
        stats = balance_loss(gate_output_from_probs(probs), alpha=0.01)
        assert stats.loss.item() == 0.01 * n
        assert stats.f.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_matches_brute_force_oracle(self):
        rng = stream_rng(0, "balance-oracle")
        t, n = 100, 8
        raw = rng.random((t, n)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        stats = balance_loss(gate_output_from_probs(probs), alpha=0.37)
        f, P, loss = brute_force_loss(probs, 0.37)
        np.testing.assert_allclose(stats.f, f, atol=1e-12)
        np.testing.assert_allclose(stats.P, P, atol=1e-12)
        assert abs(stats.loss.item() - loss) <= 1e-10

    def test_argmax_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.5, 0.5, 0.0]])
        stats = balance_loss(gate_output_from_probs(probs), alpha=1.0)
        assert stats.f.tolist() == [1.0, 0.0, 0.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            balance_loss(gate_output_from_probs(np.zeros((0, 4))), alpha=0.01)

    def test_gradient_flows_through_P_only(self):
        # moving probability mass without changing any argmax changes the loss
        # via P; f is constant by construction
        probs = cyclic_peaked_probs(4, reps=2)
        out = gate_output_from_probs(probs)
        out.logits.requires_grad = True
        stats = balance_loss(out, alpha=0.01)
        tt.backward(stats.loss)
        # dL/dprobs[t, i] = alpha * N * f_i / T for every token t, taken through the softmax:
        # dL/dlogits[t] = probs[t] * (v - probs[t] . v) with v = alpha * N * f / T
        v = 0.01 * 4 * stats.f / 8
        expect = probs * (v - (probs @ v)[:, None])
        np.testing.assert_allclose(out.logits.grad, expect, rtol=1e-12, atol=1e-18)


class TestBalanceProperties:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=24))
    @settings(max_examples=60)
    def test_one_hot_routing_loss_at_least_alpha(self, assignments):
        # one-hot rows make f == P exactly; then L >= alpha, equal iff uniform
        n = 4
        probs = np.zeros((len(assignments), n))
        probs[np.arange(len(assignments)), assignments] = 1.0
        stats = balance_loss(gate_output_from_probs(probs), alpha=0.01)
        np.testing.assert_allclose(stats.f, stats.P, atol=1e-12)
        assert stats.loss.item() >= 0.01 - 1e-12
        counts = np.bincount(assignments, minlength=n)
        if len(assignments) % n == 0 and (counts == len(assignments) // n).all():
            assert stats.loss.item() == pytest.approx(0.01, abs=1e-12)
        elif not (counts == counts[0]).all():
            assert stats.loss.item() > 0.01

    @given(
        arrays_t=st.integers(1, 40),
        n=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 1000),
        alpha=st.floats(1e-4, 1.0),
    )
    @settings(max_examples=60)
    def test_bounds_and_permutation_invariance(self, arrays_t, n, seed, alpha):
        rng = np.random.default_rng(seed)
        raw = rng.random((arrays_t, n)) + 1e-9
        probs = raw / raw.sum(axis=1, keepdims=True)
        stats = balance_loss(gate_output_from_probs(probs), alpha=alpha)
        assert 0.0 < stats.loss.item() <= alpha * n + 1e-12
        assert abs(stats.f.sum() - 1.0) <= 1e-9
        assert abs(stats.P.sum() - 1.0) <= 1e-6

        perm = rng.permutation(n)
        permuted = balance_loss(gate_output_from_probs(probs[:, perm]), alpha=alpha)
        assert permuted.loss.item() == pytest.approx(stats.loss.item(), rel=1e-12)
