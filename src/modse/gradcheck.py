"""Finite-difference verification suites, all in float64.

Every suite goes through one harness, `_fd_each`: a loss of a name->Tensor
dict is differentiated once with every named array a leaf, and each array's
gradient is compared with central differences taken while the others are
held at their values. A suite reports the worst normwise relative error per
entry. Inputs are drawn from fixed named streams; where a loss goes through a
discrete selection (top-k, argmax) the inputs are regenerated until the
selection has a safe margin, so the h=1e-5 probes cannot flip it, and, for
the gate-level suites, until every expert is chosen by some token, so no
expert's weights go unchecked. The end-to-end suite differentiates
`train.objective`, the loss training minimises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tensor as tt
from .model import ModelConfig, init_weights, transformer_forward
from .moe import ExpertParams, GateParams, build_paired_spec, gate_forward, moe_layer_forward
from .rng import stream_rng
from .tensor import Tensor
from .train import balance_loss, objective

OPS_TOL = 1e-4
E2E_TOL = 1e-3
FD_H = 1e-5

Loss = Callable[[dict[str, Tensor]], Tensor]


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


def _fd_each(loss: Loss, arrays: dict[str, np.ndarray]) -> dict[str, float]:
    """Relative error of each named array's backward gradient of `loss` against central differences.

    One backward runs with every array a leaf that requires grad; the
    central differences perturb one array at a time, the others held
    constant, so the probing forwards record no tape.
    """
    leaves = {k: Tensor(a, requires_grad=True, dtype=np.float64) for k, a in arrays.items()}
    tt.backward(loss(leaves))
    held = {k: Tensor(a, dtype=np.float64) for k, a in arrays.items()}
    errs = {}
    for name, x in leaves.items():
        fd = tt.finite_diff_grad(lambda z: loss({**held, name: z}).item(), x, FD_H)
        errs[name] = rel_err(x.grad, fd.values)
    return errs


def _suite(name: str, errs: dict[str, float], tol: float) -> SuiteResult:
    return SuiteResult(name, max(errs.values()), tol, errs)


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

    def run(op: str, loss: Loss, **arrays: np.ndarray) -> None:
        # a lone array is entry `op`; otherwise each is `op/name`, with a
        # trailing index dropped so that numbered arrays share one entry
        for name, err in _fd_each(loss, arrays).items():
            key = op if len(arrays) == 1 else f"{op}/{name.rstrip('0123456789')}"
            worst[key] = max(worst.get(key, 0.0), err)

    for seed in range(n_seeds):
        # each entry draws from its own stream, so removing one leaves every other entry's inputs as they were
        rng = stream_rng(seed, "gradcheck-ops/matmul")
        a, b, pm = rng.normal(size=(4, 5)), rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        run("matmul", lambda t: _proj(tt.matmul(t["a"], t["b"]), pm), a=a, b=b)

        rng = stream_rng(seed, "gradcheck-ops/add")
        u, v, pu = (rng.normal(size=(3, 4)) for _ in range(3))
        run("add", lambda t: _proj(tt.add(t["x"], Tensor(v, dtype=np.float64)), pu), x=u)

        rng = stream_rng(seed, "gradcheck-ops/rmsnorm")
        u, pu, gamma = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(4,)) + 1.5
        run("rmsnorm", lambda t: _proj(tt.rmsnorm(t["x"], t["gamma_vec"]), pu), x=u, gamma_vec=gamma)

        rng = stream_rng(seed, "gradcheck-ops/rmsnorm/gamma_scalar")
        u, pu, gamma = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), np.asarray(rng.normal() + 1.5)
        run("rmsnorm/gamma_scalar", lambda t: _proj(tt.rmsnorm(Tensor(u, dtype=np.float64), t["x"]), pu), x=gamma)

        rng = stream_rng(seed, "gradcheck-ops/embedding_lookup")
        table = rng.normal(size=(6, 4))
        ids = rng.integers(0, 6, size=5)
        p5 = rng.normal(size=(5, 4))
        run("embedding_lookup", lambda t: _proj(tt.embedding_lookup(t["x"], ids), p5), x=table)

        rng = stream_rng(seed, "gradcheck-ops/cross_entropy")
        lg = rng.normal(size=(6, 5))
        tg = rng.integers(0, 5, size=6)
        run("cross_entropy", lambda t: tt.cross_entropy(t["x"], tg), x=lg)

        rng = stream_rng(seed, "gradcheck-ops/balance_penalty")
        # spaced logits keep each row's argmax stable under the FD probes
        logits = rng.permuted(np.arange(20, dtype=np.float64).reshape(5, 4) * 0.5, axis=1)
        logits += rng.normal(size=logits.shape) * 0.05
        assert _topk_margin(logits, 1) > 1e-2
        run("balance_penalty", lambda t: tt.balance_penalty(t["logits"], 0.04)[0], logits=logits)

        # two heads, two sequences: the op's rope, head split and sequence split all show
        rng = stream_rng(seed, "gradcheck-ops/causal_attention")
        seq, n_heads, hd = 5, 2, 4
        d = n_heads * hd
        h, pa = rng.normal(size=(2 * seq, d)), rng.normal(size=(2 * seq, d))
        theta = rng.normal(size=(seq, hd // 2))
        tables = tt.build_attention_tables(np.cos(theta), np.sin(theta), n_heads)
        attn = {"gamma": rng.normal(size=(d,)) + 1.5}
        attn.update((name, rng.normal(0.0, 0.5, (d, d))) for name in ("wq", "wk", "wv", "wo"))
        run(
            "causal_attention",
            lambda t: _proj(tt.causal_attention(t["h"], t["gamma"], t["wq"], t["wk"], t["wv"], t["wo"], tables), pa),
            h=h, **attn,
        )

        rng = stream_rng(seed, "gradcheck-ops/gate_logits")
        x, w_gate, w_noise, pl = (rng.normal(size=shape) for shape in ((5, 6), (6, 4), (6, 4), (5, 4)))
        run(
            "gate_logits",
            lambda t: _proj(tt.gate_logits(t["x"], t["w_gate"], t["w_noise"], t["gamma"]), pl),
            x=x, w_gate=w_gate, w_noise=w_noise, gamma=np.asarray(rng.normal() + 1.5),
        )

        # four tokens over four experts of unequal widths: below k = 4 no token chooses expert 2,
        # and the ranks are not in expert order, so at k = 3 the per-token summation order shows
        widths = (5, 3, 4, 2)
        route = np.array([[3, 0, 1, 2], [1, 3, 0, 2], [0, 1, 3, 2], [0, 3, 1, 2]])

        def routed(t, k):
            experts = [tuple(t[f"{w}{i}"] for w in ("w_in", "w_gate", "w_out")) for i in range(len(widths))]
            return _proj(tt.routed_experts(t["x"], t["logits"], route[:, :k], experts), pr)

        for k in (1, 2, 3, 4):
            op = "routed_experts" if k == 2 else f"routed_experts/k={k}"
            rng = stream_rng(seed, f"gradcheck-ops/{op}")
            ex = {}
            for i, h in enumerate(widths):
                ex.update({f"w_in{i}": rng.normal(size=(4, h)), f"w_gate{i}": rng.normal(size=(4, h))})
                ex[f"w_out{i}"] = rng.normal(size=(h, 3))
            x, pr, logits = rng.normal(size=(4, 4)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))
            run(op, lambda t: routed(t, k), x=x, logits=logits, **ex)

    return _suite("tensor_ops", worst, OPS_TOL)


# every gate-level suite routes t tokens of width d over N_GATE experts, K_GATE per token
N_GATE, K_GATE = 4, 2


def _stable_gate_inputs(seed_name: str, t: int, d: int) -> dict[str, np.ndarray]:
    """x and the gate params, by name, whose top-k and argmax margins survive FD probes
    and whose top-k selections choose every expert, so each expert's weights get a gradient."""
    for attempt in range(50):
        rng = stream_rng(attempt, seed_name)
        arrays = {"x": rng.normal(size=(t, d))}
        arrays.update((name, rng.normal(0.0, 0.5, (d, N_GATE))) for name in ("w_gate", "w_noise"))
        arrays["gamma"] = np.asarray(1.0)
        w = {name: Tensor(a, dtype=np.float64) for name, a in arrays.items()}
        out = gate_forward(_gate(w), w["x"], K_GATE)
        lv = out.logits.values
        if min(_topk_margin(lv, K_GATE), _topk_margin(lv, 1)) > 1e-2 and np.unique(out.topk_indices).size == N_GATE:
            return arrays
    raise RuntimeError("could not find margin-stable gate inputs")


def _gate(w: dict[str, Tensor]) -> GateParams:
    return GateParams(w["w_gate"], w["w_noise"], w["gamma"])


def check_gate() -> SuiteResult:
    """Gate logits plus their fused balance penalty against central differences, per weight matrix."""
    arrays = _stable_gate_inputs("gradcheck-gate", 5, 6)
    pa = stream_rng(99, "gradcheck-gate-proj").normal(size=(5, N_GATE))

    def loss(w: dict[str, Tensor]) -> Tensor:
        out = gate_forward(_gate(w), w["x"], K_GATE)
        return tt.add(_proj(out.logits, pa), tt.balance_penalty(out.logits, float(N_GATE)).loss)

    return _suite("gate", _fd_each(loss, arrays), OPS_TOL)


def check_moe_layer() -> SuiteResult:
    """Full expert-layer output against central differences, every weight."""
    t, d = 3, 8
    arrays = _stable_gate_inputs("gradcheck-layer", t, d)
    rng = stream_rng(7, "gradcheck-layer-experts")
    spec = build_paired_spec(d, 6, [(1.0, 0.5), (0.75, 0.75)])
    names = ExpertParams._fields
    for i, h in enumerate(spec.expert_sizes):
        for f, shape in zip(names, ((d, h), (d, h), (h, d))):
            arrays[f"expert{i}.{f}"] = rng.normal(0.0, 0.5, shape)
    proj = rng.normal(size=(t, d))

    def loss(w: dict[str, Tensor]) -> Tensor:
        experts = [ExpertParams(**{f: w[f"expert{i}.{f}"] for f in names}) for i in range(spec.n_experts)]
        y, _ = moe_layer_forward(_gate(w), experts, w["x"], K_GATE)
        return _proj(y, proj)

    return _suite("moe_layer", _fd_each(loss, arrays), OPS_TOL)


def check_balance_loss() -> SuiteResult:
    """Balance penalty gradient (flows through P only) against central differences."""
    arrays = _stable_gate_inputs("gradcheck-balance", 5, 8)

    def loss(w: dict[str, Tensor]) -> Tensor:
        return balance_loss(gate_forward(_gate(w), w["x"], K_GATE), alpha=0.01).loss

    return _suite("balance_loss", _fd_each(loss, arrays), OPS_TOL)


_SCALES = {
    "micro": dict(dim=16, n_layers=1, vocab_size=11, h_base=8, seq_len=4),
    "small": dict(dim=24, n_layers=2, vocab_size=13, h_base=12, seq_len=6),
}


def micro_config(scale: str = "micro") -> ModelConfig:
    if scale not in _SCALES:
        raise ValueError(f"unknown gradcheck scale {scale!r}")
    return ModelConfig(
        n_heads=2, n_experts=4, top_k=2, expert_ratios=((0.75, 0.25), (0.5, 0.5)), batch_size=1, seed=3,
        **_SCALES[scale],
    )


def _stable_micro_instance(scale: str):
    """Config, weight arrays and tokens whose routing selections have margin to spare for FD probes."""
    base = micro_config(scale)
    for seed in range(base.seed, base.seed + 60):
        cfg = replace(base, seed=seed)
        rng = stream_rng(seed, "gradcheck-e2e-tokens")
        tokens = rng.integers(0, cfg.vocab_size, size=(cfg.batch_size, cfg.seq_len + 1))
        weights = init_weights(cfg, dtype=np.float64)
        _, gate_outs = transformer_forward(cfg, weights, tokens[:, :-1])
        lvs = [go.logits.values for go in gate_outs]
        if min(min(_topk_margin(lv, cfg.top_k), _topk_margin(lv, 1)) for lv in lvs) > 1e-3:
            return cfg, {name: p.values for name, p in weights.items()}, tokens
    raise RuntimeError("could not find a margin-stable model instance")


def check_end_to_end(scale: str = "micro") -> SuiteResult:
    """The training objective (cross entropy + balance penalties) against central differences, every weight."""
    cfg, arrays, tokens = _stable_micro_instance(scale)
    inputs, targets = tokens[:, :-1], tokens[:, 1:].reshape(-1)
    errs = _fd_each(lambda w: objective(cfg, w, inputs, targets, alpha=0.01)[0], arrays)
    return _suite("end_to_end", errs, E2E_TOL)


def run_all(scale: str = "micro") -> list[SuiteResult]:
    return [
        check_tensor_ops(),
        check_gate(),
        check_moe_layer(),
        check_balance_loss(),
        check_end_to_end(scale),
    ]
