"""Adam with decoupled weight decay, warmup-cosine schedule, global-norm clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


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
    """First/second moment buffers per parameter name, allocated lazily."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def clip_global_norm(params: list[tuple[str, Tensor]], max_norm: float = 1.0) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm; returns the pre-clip norm."""
    sq = 0.0
    for _, p in params:
        if p.grad is not None:
            sq += float(np.sum(np.square(p.grad.astype(np.float64))))
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        factor = (max_norm / norm)
        for _, p in params:
            if p.grad is not None:
                p.grad *= p.values.dtype.type(factor)
    return norm


def adam_step(params: list[tuple[str, Tensor]], state: AdamState, cfg: OptimizerConfig, step: int) -> None:
    """Bias-corrected Adam update at 1-based `step`; weight decay applied directly to weights."""
    if step < 1:
        raise ValueError("adam_step expects a 1-based step count")
    lr = lr_at(step - 1, cfg)
    bc1 = 1.0 - cfg.beta1**step
    bc2 = 1.0 - cfg.beta2**step
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        dt = p.values.dtype
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.values)
            state.v[name] = np.zeros_like(p.values)
        v = state.v[name]
        m *= dt.type(cfg.beta1)
        m += dt.type(1.0 - cfg.beta1) * g
        v *= dt.type(cfg.beta2)
        v += dt.type(1.0 - cfg.beta2) * np.square(g)
        update = (m / dt.type(bc1)) / (np.sqrt(v / dt.type(bc2)) + dt.type(cfg.eps))
        if cfg.weight_decay:
            update = update + dt.type(cfg.weight_decay) * p.values
        p.values -= dt.type(lr) * update
