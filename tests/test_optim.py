import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse.optim import AdamState, OptimizerConfig, adam_step, clip_global_norm, lr_at
from modse.tensor import Tensor


def cfg(**kw):
    defaults = dict(warmup_steps=100, lr_init=2e-7, lr_peak=3e-4, lr_min=3e-5, total_steps=1000)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestLrSchedule:
    def test_step_zero_is_lr_init(self):
        assert lr_at(0, cfg()) == 2e-7

    def test_warmup_end_is_peak(self):
        assert lr_at(100, cfg()) == pytest.approx(3e-4, rel=1e-12)

    def test_cosine_midpoint_formula(self):
        c = cfg()
        mid = (100 + 1000) // 2
        expect = 3e-5 + (3e-4 - 3e-5) * 0.5 * (1 + math.cos(math.pi * (mid - 100) / 900))
        assert lr_at(mid, c) == pytest.approx(expect, rel=1e-15)

    def test_constant_after_total(self):
        assert lr_at(1000, cfg()) == 3e-5
        assert lr_at(5000, cfg()) == 3e-5

    def test_continuous_at_warmup_boundary(self):
        c = cfg()
        ramp_end = c.lr_init + (c.lr_peak - c.lr_init) * 1.0
        cos_start = c.lr_min + (c.lr_peak - c.lr_min) * 0.5 * (1 + math.cos(0.0))
        assert ramp_end == pytest.approx(cos_start, rel=1e-12)
        assert abs(lr_at(100, c) - lr_at(99, c)) < (c.lr_peak - c.lr_init) / 50

    @given(st.integers(0, 5000))
    @settings(max_examples=100)
    def test_nonnegative_and_within_bounds(self, step):
        c = cfg()
        lr = lr_at(step, c)
        assert lr >= 0.0
        assert min(c.lr_init, c.lr_min) - 1e-18 <= lr <= c.lr_peak + 1e-18

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, cfg())

    def test_warmup_longer_than_total_rejected(self):
        with pytest.raises(ValueError):
            cfg(warmup_steps=2000, total_steps=100)


class TestConfigRanges:
    @pytest.mark.parametrize("field", ["beta1", "eps", "weight_decay", "grad_clip_norm", "lr_peak", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cfg(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "weight_decay"])
    def test_negative_weight_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            cfg(**{field: -1e-9})
        assert getattr(cfg(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field", ["lr_init", "lr_peak", "lr_min", "eps", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            cfg(**{field: value})

    def test_huge_integer_is_finite(self):
        assert cfg(alpha=10**400).alpha == 10**400


class TestAdam:
    def test_zero_grad_zero_decay_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.zeros(2)
        before = p.values.copy()
        adam_step([("p", p)], AdamState(), cfg(weight_decay=0.0), step=1)
        assert np.array_equal(p.values, before)

    def test_single_scalar_hand_computed(self):
        c = cfg(weight_decay=0.0, warmup_steps=1, lr_init=1e-3, lr_peak=1e-3, lr_min=1e-3, total_steps=2)
        p = Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([1.0])
        adam_step([("p", p)], AdamState(), c, step=1)
        # bias-corrected m_hat = v_hat = 1 after one step with g=1
        expect = 0.5 - 1e-3 * 1.0 / (1.0 + c.eps)
        assert p.values[0] == pytest.approx(expect, rel=1e-12)

    def test_weight_decay_only_shrinks_by_factor(self):
        c = cfg(weight_decay=0.1, warmup_steps=1, lr_init=1e-2, lr_peak=1e-2, lr_min=1e-2, total_steps=2)
        p = Tensor(np.array([2.0, -4.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.zeros(2)
        adam_step([("p", p)], AdamState(), c, step=1)
        np.testing.assert_allclose(p.values, np.array([2.0, -4.0]) * (1 - 1e-2 * 0.1), rtol=1e-14)

    def test_moments_persist_across_steps(self):
        c = cfg(weight_decay=0.0, warmup_steps=1, lr_init=1e-3, lr_peak=1e-3, lr_min=1e-3, total_steps=10)
        p = Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        state = AdamState()
        for step in (1, 2):
            p.grad = np.array([1.0])
            adam_step([("p", p)], state, c, step=step)
        assert state.m["p"][0] == pytest.approx(1 - c.beta1**2, rel=1e-12)

    def test_grad_none_skipped(self):
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        adam_step([("p", p)], AdamState(), cfg(), step=1)
        assert p.values[0] == 1.0


class TestClip:
    def _param(self, g):
        p = Tensor(np.zeros_like(np.asarray(g, dtype=np.float64)), requires_grad=True, dtype=np.float64)
        p.grad = np.asarray(g, dtype=np.float64)
        return p

    def test_below_threshold_unchanged(self):
        p = self._param([0.3, 0.4])
        assert clip_global_norm([("p", p)], 1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(p.grad, [0.3, 0.4])

    def test_three_four_five(self):
        p = self._param([3.0, 4.0])
        assert clip_global_norm([("p", p)], 1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-12)

    def test_norm_spans_parameters(self):
        a, b = self._param([3.0]), self._param([4.0])
        assert clip_global_norm([("a", a), ("b", b)], 1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(np.r_[a.grad, b.grad], [0.6, 0.8], rtol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_post_clip_norm_bounded(self, seed):
        rng = np.random.default_rng(seed)
        params = [self._param(rng.normal(size=rng.integers(1, 8)) * 3) for _ in range(3)]
        clip_global_norm([(str(i), p) for i, p in enumerate(params)], 1.0)
        total = math.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
        assert total <= 1.0 + 1e-6
