"""Adam with decoupled weight decay, warmup-cosine schedule, global-norm clipping.

Weights, gradients and both moments each live in one flat buffer
(`AdamState`), so clipping and the update are a few whole-buffer passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _rows


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip_norm: float = 1.0
    warmup_steps: int = 2000
    lr_init: float = 2e-7
    lr_peak: float = 3e-4  # the schedule's endpoints alone don't fix a peak; see README
    lr_min: float = 3e-5
    total_steps: int = 10000
    alpha: float = 0.01  # balance-loss weight

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if type(v) not in (int, float):  # bools and strings are not numbers here
                raise ValueError(f"{name} must be a number, got {v!r}")
            if type(v) is float and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        for name in ("alpha", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("lr_init", "lr_peak", "lr_min", "eps", "grad_clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("warmup_steps", "total_steps"):
            v = getattr(self, name)
            if type(v) is not int or v < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {v!r}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")
        for name in ("lr_init", "lr_min"):
            if getattr(self, name) > self.lr_peak:
                raise ValueError(f"{name} must be <= lr_peak ({self.lr_peak!r}), got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown optimizer config fields: {sorted(unknown)}")
        return cls(**d)


def lr_at(step: int, cfg: OptimizerConfig) -> float:
    """Linear ramp lr_init -> lr_peak over warmup, cosine decay to lr_min at total_steps."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if step < cfg.warmup_steps:
        frac = step / cfg.warmup_steps
        return cfg.lr_init + (cfg.lr_peak - cfg.lr_init) * frac
    if step >= cfg.total_steps:
        return cfg.lr_min
    span = cfg.total_steps - cfg.warmup_steps
    frac = (step - cfg.warmup_steps) / span
    return cfg.lr_min + (cfg.lr_peak - cfg.lr_min) * 0.5 * (1.0 + math.cos(math.pi * frac))


class AdamState:
    """One flat buffer each for the weights, their gradients and Adam's two moments.

    Built once from the trainable parameters, which must share one dtype:
    each parameter's `.values` becomes a reshaped view of `flat`, and its
    gradient and moments sit at the same offsets in `grad`, `m` and `v`.
    `gather_grads` copies each present `.grad` into `grad` and notes the
    contiguous runs of parameters that have one; clipping and the update then
    make a few in-place passes over each run. `adam_step` leaves the scaled
    update, not the gradient, in `grad`, and uses `work` as scratch.
    """

    def __init__(self, params: list[tuple[str, Tensor]]):
        dtypes = {p.dtype for _, p in params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(d.name for d in dtypes)}")
        dt = dtypes.pop() if dtypes else np.dtype(np.float32)
        self.params = params
        self.offsets = [0, *itertools.accumulate(p.size for _, p in params)]
        self.flat = np.empty(self.offsets[-1], dt)
        for (_, p), a, b in zip(params, self.offsets, self.offsets[1:]):
            self.flat[a:b] = p.values.ravel()
            p.values = self.flat[a:b].reshape(p.shape)
        self.grad, self.work, self.m, self.v = (np.zeros_like(self.flat) for _ in range(4))
        self.slices: list[tuple[int, int]] = []  # flat slice of each parameter with a gradient
        self.runs: list[list[int]] = []  # the same slices, adjacent ones merged

    def gather_grads(self) -> None:
        """Copy every present `.grad` into its slice of `grad`; parameters without one are skipped."""
        self.slices, runs = [], []
        for (_, p), a, b in zip(self.params, self.offsets, self.offsets[1:]):
            if p.grad is None:
                continue
            self.grad[a:b] = p.grad.ravel()
            self.slices.append((a, b))
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
        self.runs = runs


def clip_global_norm(state: AdamState, max_norm: float = 1.0) -> float:
    """Gather the gradients, then scale them so their joint L2 norm is at most max_norm; returns the pre-clip norm.

    The norm adds each parameter's float64 sum of squares in parameter order.
    """
    state.gather_grads()
    squares = np.square(state.grad, dtype=np.float64)
    sq = 0.0
    for a, b in state.slices:
        sq += float(np.add.reduce(squares[a:b]))  # np.sum's pairwise sum, without its wrapper
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        factor = state.grad.dtype.type(max_norm / norm)
        for a, b in state.runs:
            state.grad[a:b] *= factor
    return norm


def adam_step(state: AdamState, cfg: OptimizerConfig, step: int) -> None:
    """Bias-corrected Adam update at 1-based `step`; weight decay applied directly to weights.

    Only parameters with a gathered gradient move. Every pass runs in place,
    in the float order of `(m / bc1) / (sqrt(v / bc2) + eps) + wd * w`.
    """
    if step < 1:
        raise ValueError("adam_step expects a 1-based step count")
    lr = lr_at(step - 1, cfg)
    bc1 = 1.0 - cfg.beta1**step
    bc2 = 1.0 - cfg.beta2**step
    f = state.flat.dtype.type

    def update_range(w, g, t, m, v):
        m *= f(cfg.beta1)
        m += np.multiply(f(1.0 - cfg.beta1), g, out=t)
        v *= f(cfg.beta2)
        v += np.multiply(f(1.0 - cfg.beta2), np.square(g, out=t), out=t)
        update = np.divide(m, f(bc1), out=g)  # the gradient is spent: its buffer holds the update
        update /= np.add(np.sqrt(np.divide(v, f(bc2), out=t), out=t), f(cfg.eps), out=t)
        if cfg.weight_decay:
            update += np.multiply(f(cfg.weight_decay), w, out=t)
        update *= f(lr)
        w -= update

    for a, b in state.runs:  # each run over contiguous ranges, on the ops' worker pool above its work gate
        _rows(update_range, b - a, *(buf[a:b] for buf in (state.flat, state.grad, state.work, state.m, state.v)))
