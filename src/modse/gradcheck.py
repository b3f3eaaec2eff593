"""Finite-difference verification suites, all in float64.

Each suite compares backward-pass gradients against central differences and
reports the worst normwise relative error. Inputs are drawn from fixed named
streams; where a loss goes through a discrete selection (top-k, argmax) the
inputs are regenerated until the selection has a safe margin, so the h=1e-5
probes cannot flip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as tt
from .balance import balance_loss
from .model import ModelConfig, init_weights, transformer_forward
from .moe import GateParams, build_paired_spec, gate_forward, init_experts, init_gate, moe_layer_forward
from .rng import stream_rng
from .tensor import Tensor

OPS_TOL = 1e-4
E2E_TOL = 1e-3
FD_H = 1e-5


@dataclass
class SuiteResult:
    name: str
    worst_err: float
    tol: float
    per_item: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.worst_err <= self.tol


def rel_err(analytic: np.ndarray | None, fd: np.ndarray) -> float:
    """Normwise relative error; exact-zero vs exact-zero counts as 0."""
    a = np.zeros_like(fd) if analytic is None else np.asarray(analytic, dtype=np.float64)
    b = np.asarray(fd, dtype=np.float64)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def fd_check(f: Callable[[Tensor], Tensor], x0: np.ndarray, h: float = FD_H) -> float:
    """Worst-case-free single comparison: backward grad of f at x0 vs central differences."""
    x = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True, dtype=np.float64)
    tt.backward(f(x))
    fd = tt.finite_diff_grad(lambda t: f(t).item(), Tensor(x0, dtype=np.float64), h)
    return rel_err(x.grad, fd.values)


def _proj(out: Tensor, proj: np.ndarray) -> Tensor:
    """The scalar sum(out * proj) as one tape node, for a fixed array `proj` of out's dtype."""
    return tt._record(np.asarray(np.sum(out.values * proj)), (out,), lambda g: (g * proj,))


def _topk_margin(values: np.ndarray, k: int) -> float:
    srt = np.sort(np.atleast_2d(values), axis=-1)
    if srt.shape[-1] <= k:
        return math.inf
    return float(np.min(srt[:, -k] - srt[:, -k - 1]))


def check_tensor_ops(n_seeds: int = 10) -> SuiteResult:
    """Every differentiable op against central differences, n_seeds inputs each."""
    worst: dict[str, float] = {}

    def run(name: str, err: float):
        worst[name] = max(worst.get(name, 0.0), err)

    for seed in range(n_seeds):
        rng = stream_rng(seed, "gradcheck-ops")
        m, k, n = 4, 5, 3
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        pm = rng.normal(size=(m, n))
        run("matmul/a", fd_check(lambda x: _proj(tt.matmul(x, Tensor(b, dtype=np.float64)), pm), a))
        run("matmul/b", fd_check(lambda x: _proj(tt.matmul(Tensor(a, dtype=np.float64), x), pm), b))

        u = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        pu = rng.normal(size=(3, 4))
        run("add", fd_check(lambda x: _proj(tt.add(x, Tensor(v, dtype=np.float64)), pu), u))
        run("softplus", fd_check(lambda x: _proj(tt.softplus(x), pu), u))

        gamma_v = rng.normal(size=(4,)) + 1.5
        gamma_s = np.asarray(rng.normal() + 1.5)
        run("rmsnorm/x", fd_check(lambda x: _proj(tt.rmsnorm(x, Tensor(gamma_v, dtype=np.float64)), pu), u))
        run(
            "rmsnorm/gamma_vec",
            fd_check(lambda x: _proj(tt.rmsnorm(Tensor(u, dtype=np.float64), x), pu), gamma_v),
        )
        run(
            "rmsnorm/gamma_scalar",
            fd_check(lambda x: _proj(tt.rmsnorm(Tensor(u, dtype=np.float64), x), pu), gamma_s),
        )
        run("softmax", fd_check(lambda x: _proj(tt.softmax(x), pu), u))

        # spaced logits keep the top-k selection stable under the FD probes
        logits = rng.permuted(np.arange(12, dtype=np.float64).reshape(3, 4) * 0.5, axis=1)
        logits += rng.normal(size=logits.shape) * 0.05
        assert _topk_margin(logits, 2) > 1e-2
        run(
            "keep_topk+softmax",
            fd_check(lambda x: _proj(tt.softmax(tt.keep_topk(x, 2)), pu), logits),
        )
        run("keep_topk/k=n", fd_check(lambda x: _proj(tt.keep_topk(x, 4), pu), logits))

        table = rng.normal(size=(6, 4))
        ids = rng.integers(0, 6, size=5)
        p5 = rng.normal(size=(5, 4))
        run("embedding_lookup", fd_check(lambda x: _proj(tt.embedding_lookup(x, ids), p5), table))
        run("gather_rows", fd_check(lambda x: _proj(tt.gather_rows(x, ids), p5), table))
        rows = np.array([0, 2, 3, 5])  # strictly increasing: the backward assigns
        run("gather_rows/unique", fd_check(lambda x: _proj(tt.gather_rows(x, rows), p5[:4]), table))

        # two experts of a 3-expert gate, the second on a subset of the rows
        sets = (np.arange(4), np.array([1, 3]))
        outs = [rng.normal(size=(len(r), 4)) for r in sets]
        gw = rng.normal(size=(4, 3))
        p4 = rng.normal(size=(4, 4))
        o0, o1, wt = (Tensor(a, dtype=np.float64) for a in (*outs, gw))
        run("combine/outputs", fd_check(lambda x: _proj(tt.combine([x, o1], sets, [2, 0], wt), p4), outs[0]))
        run("combine/outputs", fd_check(lambda x: _proj(tt.combine([o0, x], sets, [2, 0], wt), p4), outs[1]))
        run("combine/weights", fd_check(lambda x: _proj(tt.combine([o0, o1], sets, [2, 0], x), p4), gw))

        # two heads, two sequences: the op's rope, head split and sequence split all show
        seq, n_heads, hd = 5, 2, 4
        q = rng.normal(size=(2 * seq, n_heads * hd))
        kk = rng.normal(size=(2 * seq, n_heads * hd))
        vv = rng.normal(size=(2 * seq, n_heads * hd))
        pa = rng.normal(size=(2 * seq, n_heads * hd))
        theta = rng.normal(size=(seq, hd // 2))
        cos, sin = np.cos(theta), np.sin(theta)
        kt = Tensor(kk, dtype=np.float64)
        vt = Tensor(vv, dtype=np.float64)
        qt = Tensor(q, dtype=np.float64)

        def attn(qx, kx, vx):
            return _proj(tt.causal_attention(qx, kx, vx, n_heads, cos, sin), pa)

        run("causal_attention/q", fd_check(lambda x: attn(x, kt, vt), q))
        run("causal_attention/k", fd_check(lambda x: attn(qt, x, vt), kk))
        run("causal_attention/v", fd_check(lambda x: attn(qt, kt, x), vv))

        lg = rng.normal(size=(6, 5))
        tg = rng.integers(0, 5, size=6)
        run("cross_entropy", fd_check(lambda x: tt.cross_entropy(x, tg), lg))

        # drawn last, so every entry above keeps its inputs
        glu = [rng.normal(size=shape) for shape in ((3, 4), (4, 5), (4, 5), (5, 3))]
        pg = rng.normal(size=(3, 3))
        for i, name in enumerate(("x", "w_in", "w_gate", "w_out")):

            def expert(z, i=i):
                args = [Tensor(a, dtype=np.float64) for a in glu]
                args[i] = z
                return _proj(tt.glu_expert(*args), pg)

            run(f"glu_expert/{name}", fd_check(expert, glu[i]))

        probs = rng.random(size=(5, 4))
        f = rng.random(size=4)
        run("balance_penalty", fd_check(lambda x: tt.balance_penalty(x, f, 0.04)[0], probs))

    return SuiteResult("tensor_ops", max(worst.values()), OPS_TOL, worst)


def _stable_gate_inputs(seed_name: str, t: int, d: int, n: int, k: int):
    """x and gate params whose top-k and argmax margins survive FD probes."""
    for attempt in range(50):
        rng = stream_rng(attempt, seed_name)
        x = rng.normal(size=(t, d))
        gate = init_gate(d, n, rng, std=0.5, dtype=np.float64)
        out = gate_forward(gate, Tensor(x, dtype=np.float64), k)
        lv = out.logits.values
        srt = np.sort(lv, axis=-1)
        if _topk_margin(lv, k) > 1e-2 and float(np.min(srt[:, -1] - srt[:, -2])) > 1e-2:
            return Tensor(x, dtype=np.float64), gate
    raise RuntimeError("could not find margin-stable gate inputs")


def check_gate(t: int = 5, d: int = 6, n: int = 4, k: int = 2) -> SuiteResult:
    """Gate logits/probabilities against central differences, per weight matrix."""
    x, gate = _stable_gate_inputs("gradcheck-gate", t, d, n, k)
    rng = stream_rng(99, "gradcheck-gate-proj")
    pa = rng.normal(size=(t, n))
    pb = rng.normal(size=(t, n))

    def loss_from(gate_params: GateParams, xt: Tensor) -> Tensor:
        out = gate_forward(gate_params, xt, k)
        return tt.add(_proj(out.masked_probs, pa), _proj(out.full_probs, pb))

    worst: dict[str, float] = {}
    worst["x"] = fd_check(lambda z: loss_from(gate, z), x.values)
    worst["w_gate"] = fd_check(
        lambda z: loss_from(GateParams(z, gate.w_noise, gate.gamma), x), gate.w_gate.values
    )
    worst["w_noise"] = fd_check(
        lambda z: loss_from(GateParams(gate.w_gate, z, gate.gamma), x), gate.w_noise.values
    )
    worst["gamma"] = fd_check(
        lambda z: loss_from(GateParams(gate.w_gate, gate.w_noise, z), x), gate.gamma.values
    )
    return SuiteResult("gate", max(worst.values()), OPS_TOL, worst)


def check_moe_layer(t: int = 3, d: int = 8, n: int = 4, k: int = 2) -> SuiteResult:
    """Full expert-layer output against central differences, every weight."""
    x, gate = _stable_gate_inputs("gradcheck-layer", t, d, n, k)
    rng = stream_rng(7, "gradcheck-layer-experts")
    spec = build_paired_spec(d, 6, [(1.0, 0.5), (0.75, 0.75)])
    experts = init_experts(spec, rng, std=0.5, dtype=np.float64)
    proj = rng.normal(size=(t, d))

    def loss(gate_params, expert_list, xt):
        y, _ = moe_layer_forward(gate_params, expert_list, xt, k)
        return _proj(y, proj)

    worst: dict[str, float] = {}
    worst["x"] = fd_check(lambda z: loss(gate, experts, z), x.values)
    worst["w_gate"] = fd_check(lambda z: loss(GateParams(z, gate.w_noise, gate.gamma), experts, x), gate.w_gate.values)
    worst["w_noise"] = fd_check(lambda z: loss(GateParams(gate.w_gate, z, gate.gamma), experts, x), gate.w_noise.values)
    worst["gamma"] = fd_check(lambda z: loss(GateParams(gate.w_gate, gate.w_noise, z), experts, x), gate.gamma.values)
    for i, e in enumerate(experts):
        for fieldname in ("w_in", "w_gateproj", "w_out"):
            base = getattr(e, fieldname)

            def loss_w(z, i=i, fieldname=fieldname):
                swapped = list(experts)
                kw = {f: getattr(experts[i], f) for f in ("w_in", "w_gateproj", "w_out")}
                kw[fieldname] = z
                swapped[i] = type(e)(**kw)
                return loss(gate, swapped, x)

            worst[f"expert{i}.{fieldname}"] = fd_check(loss_w, base.values)
    return SuiteResult("moe_layer", max(worst.values()), OPS_TOL, worst)


def check_balance_loss(t: int = 5, d: int = 8, n: int = 4, k: int = 2) -> SuiteResult:
    """Balance penalty gradient (flows through P only) against central differences."""
    x, gate = _stable_gate_inputs("gradcheck-balance", t, d, n, k)

    def loss(gate_params, xt):
        out = gate_forward(gate_params, xt, k)
        return balance_loss(out, alpha=0.01).loss

    worst: dict[str, float] = {}
    worst["x"] = fd_check(lambda z: loss(gate, z), x.values)
    worst["w_gate"] = fd_check(lambda z: loss(GateParams(z, gate.w_noise, gate.gamma), x), gate.w_gate.values)
    worst["w_noise"] = fd_check(lambda z: loss(GateParams(gate.w_gate, z, gate.gamma), x), gate.w_noise.values)
    worst["gamma"] = fd_check(lambda z: loss(GateParams(gate.w_gate, gate.w_noise, z), x), gate.gamma.values)
    return SuiteResult("balance_loss", max(worst.values()), OPS_TOL, worst)


def micro_config(scale: str = "micro") -> ModelConfig:
    if scale == "micro":
        return ModelConfig(
            dim=16, n_layers=1, n_heads=2, n_experts=4, top_k=2, vocab_size=11,
            h_base=8, expert_ratios=((0.75, 0.25), (0.5, 0.5)), seq_len=4, batch_size=1, seed=3,
        )
    if scale == "small":
        return ModelConfig(
            dim=24, n_layers=2, n_heads=2, n_experts=4, top_k=2, vocab_size=13,
            h_base=12, expert_ratios=((0.75, 0.25), (0.5, 0.5)), seq_len=6, batch_size=1, seed=3,
        )
    raise ValueError(f"unknown gradcheck scale {scale!r}")


def _stable_micro_instance(scale: str):
    """Weights and tokens whose routing selections have margin to spare for FD probes."""
    base = micro_config(scale)
    for seed in range(base.seed, base.seed + 60):
        cfg = micro_config(scale)
        cfg.seed = seed
        rng = stream_rng(seed, "gradcheck-e2e-tokens")
        tokens = rng.integers(0, cfg.vocab_size, size=(cfg.batch_size, cfg.seq_len + 1))
        weights = init_weights(cfg, dtype=np.float64)
        _, gate_outs = transformer_forward(cfg, weights, tokens[:, :-1])
        margin = min(
            min(_topk_margin(go.logits.values, cfg.top_k), _topk_margin(go.logits.values, 1))
            for go in gate_outs
        )
        if margin > 1e-3:
            return cfg, weights, tokens
    raise RuntimeError("could not find a margin-stable model instance")


def check_end_to_end(scale: str = "micro") -> SuiteResult:
    """Whole-model loss (cross entropy + balance penalties) against central differences."""
    cfg, weights, tokens = _stable_micro_instance(scale)
    inputs, targets = tokens[:, :-1], tokens[:, 1:].reshape(-1)

    def full_loss(w: dict[str, Tensor]) -> Tensor:
        logits, gate_outs = transformer_forward(cfg, w, inputs)
        loss = tt.cross_entropy(logits, targets)
        for go in gate_outs:
            loss = tt.add(loss, balance_loss(go, alpha=0.01).loss)
        return loss

    loss = full_loss(weights)
    tt.backward(loss)
    worst: dict[str, float] = {}
    for name, p in weights.items():
        analytic = p.grad

        def f(z: Tensor, name=name) -> float:
            trial = dict(weights)
            trial[name] = z
            return full_loss(trial).item()

        fd = tt.finite_diff_grad(f, Tensor(p.values, dtype=np.float64), FD_H)
        worst[name] = rel_err(analytic, fd.values)
    return SuiteResult("end_to_end", max(worst.values()), E2E_TOL, worst)


def run_all(scale: str = "micro") -> list[SuiteResult]:
    return [
        check_tensor_ops(),
        check_gate(),
        check_moe_layer(),
        check_balance_loss(),
        check_end_to_end(scale),
    ]
