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

    @pytest.mark.parametrize("field", ["lr_init", "lr_min"])
    def test_schedule_endpoint_above_peak_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be <= lr_peak"):
            cfg(**{field: 3.1e-4})
        assert getattr(cfg(**{field: 3e-4}), field) == 3e-4  # equal to the peak is a flat schedule


def one_param(values, grad):
    p = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True, dtype=np.float64)
    state = AdamState([("p", p)])
    p.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
    state.gather_grads()
    return p, state


class TestAdam:
    def test_zero_grad_zero_decay_no_change(self):
        p, state = one_param([1.0, -2.0], np.zeros(2))
        before = p.values.copy()
        adam_step(state, cfg(weight_decay=0.0), step=1)
        assert np.array_equal(p.values, before)

    def test_single_scalar_hand_computed(self):
        c = cfg(weight_decay=0.0, warmup_steps=1, lr_init=1e-3, lr_peak=1e-3, lr_min=1e-3, total_steps=2)
        p, state = one_param([0.5], [1.0])
        adam_step(state, c, step=1)
        # bias-corrected m_hat = v_hat = 1 after one step with g=1
        expect = 0.5 - 1e-3 * 1.0 / (1.0 + c.eps)
        assert p.values[0] == pytest.approx(expect, rel=1e-12)

    def test_weight_decay_only_shrinks_by_factor(self):
        c = cfg(weight_decay=0.1, warmup_steps=1, lr_init=1e-2, lr_peak=1e-2, lr_min=1e-2, total_steps=2)
        p, state = one_param([2.0, -4.0], np.zeros(2))
        adam_step(state, c, step=1)
        np.testing.assert_allclose(p.values, np.array([2.0, -4.0]) * (1 - 1e-2 * 0.1), rtol=1e-14)

    def test_moments_persist_across_steps(self):
        c = cfg(weight_decay=0.0, warmup_steps=1, lr_init=1e-3, lr_peak=1e-3, lr_min=1e-3, total_steps=10)
        p, state = one_param([0.0], None)
        for step in (1, 2):
            p.grad = np.array([1.0])
            state.gather_grads()
            adam_step(state, c, step=step)
        assert state.m[0] == pytest.approx(1 - c.beta1**2, rel=1e-12)

    def test_grad_none_skipped(self):
        p, state = one_param([1.0], None)
        adam_step(state, cfg(), step=1)
        assert p.values[0] == 1.0


class TestClip:
    def _params(self, *grads):
        params = [
            (str(i), Tensor(np.zeros_like(np.asarray(g, dtype=np.float64)), requires_grad=True, dtype=np.float64))
            for i, g in enumerate(grads)
        ]
        state = AdamState(params)
        for (_, p), g in zip(params, grads):
            p.grad = np.asarray(g, dtype=np.float64)
        return state

    def test_below_threshold_unchanged(self):
        state = self._params([0.3, 0.4])
        assert clip_global_norm(state, 1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(state.grad, [0.3, 0.4])

    def test_three_four_five(self):
        state = self._params([3.0, 4.0])
        assert clip_global_norm(state, 1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(state.grad, [0.6, 0.8], rtol=1e-12)

    def test_norm_spans_parameters(self):
        state = self._params([3.0], [4.0])
        assert clip_global_norm(state, 1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(state.grad, [0.6, 0.8], rtol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_post_clip_norm_bounded(self, seed):
        rng = np.random.default_rng(seed)
        state = self._params(*(rng.normal(size=rng.integers(1, 8)) * 3 for _ in range(3)))
        clip_global_norm(state, 1.0)
        total = math.sqrt(float(np.sum(state.grad**2)))
        assert total <= 1.0 + 1e-6


# The per-parameter clipping and Adam that the flat buffers replaced, kept as
# the reference the flat form must match bit for bit.
def reference_clip(params, max_norm):
    sq = 0.0
    for _, p in params:
        if p.grad is not None:
            sq += float(np.sum(np.square(p.grad.astype(np.float64))))
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad *= p.values.dtype.type(factor)
    return norm


def reference_adam(params, m_by_name, v_by_name, c, step):
    lr = lr_at(step - 1, c)
    bc1 = 1.0 - c.beta1**step
    bc2 = 1.0 - c.beta2**step
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        dt = p.values.dtype
        m = m_by_name.get(name)
        if m is None:
            m = m_by_name[name] = np.zeros_like(p.values)
            v_by_name[name] = np.zeros_like(p.values)
        v = v_by_name[name]
        m *= dt.type(c.beta1)
        m += dt.type(1.0 - c.beta1) * g
        v *= dt.type(c.beta2)
        v += dt.type(1.0 - c.beta2) * np.square(g)
        update = (m / dt.type(bc1)) / (np.sqrt(v / dt.type(bc2)) + dt.type(c.eps))
        if c.weight_decay:
            update = update + dt.type(c.weight_decay) * p.values
        p.values -= dt.type(lr) * update


class TestFlatMatchesPerParameter:
    SHAPES = [(7, 5), (), (16,), (3, 4), (33, 9), (1,), (12, 12)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad_scale", [1e-3, 10.0], ids=["clip-inactive", "clip-active"])
    def test_bit_for_bit(self, dtype, grad_scale):
        rng = np.random.default_rng(11)
        c = cfg(warmup_steps=2, total_steps=8, weight_decay=0.1)
        init = [rng.normal(size=s) for s in self.SHAPES]
        ref = [(f"p{i}", Tensor(w, requires_grad=True, dtype=dtype)) for i, w in enumerate(init)]
        flat = [(f"p{i}", Tensor(w, requires_grad=True, dtype=dtype)) for i, w in enumerate(init)]
        state = AdamState(flat)
        ref_m, ref_v = {}, {}
        last = len(self.SHAPES) - 1
        # None gradients on the first, a middle and the last parameter on some steps
        missing = {1: {0}, 2: {3, last}, 3: set(), 4: {0, 3, last}, 5: set()}
        clipped = []
        for step in range(1, 6):
            grads = [None if i in missing[step] else rng.normal(size=s) * grad_scale for i, s in enumerate(self.SHAPES)]
            for (_, rp), (_, fp), g in zip(ref, flat, grads):
                rp.grad = None if g is None else g.astype(dtype)
                fp.grad = None if g is None else g.astype(dtype)
            norm_ref = reference_clip(ref, c.grad_clip_norm)
            norm = clip_global_norm(state, c.grad_clip_norm)
            assert norm == norm_ref
            clipped.append(norm > c.grad_clip_norm)
            reference_adam(ref, ref_m, ref_v, c, step)
            adam_step(state, c, step)
        assert all(clipped) if grad_scale > 1 else not any(clipped)
        for (name, rp), (_, fp), a, b in zip(ref, flat, state.offsets, state.offsets[1:]):
            assert fp.values.dtype == dtype
            assert fp.values.tobytes() == rp.values.tobytes()
            assert state.m[a:b].tobytes() == ref_m[name].tobytes()
            assert state.v[a:b].tobytes() == ref_v[name].tobytes()

    def test_mixed_dtypes_rejected(self):
        params = [("a", Tensor(np.zeros(2), dtype=np.float32)), ("b", Tensor(np.zeros(2), dtype=np.float64))]
        with pytest.raises(ValueError, match="one dtype"):
            AdamState(params)
