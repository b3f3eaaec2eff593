"""Expert layer with per-expert hidden widths and a noisy top-k gate.

A layer holds N gated-linear experts whose hidden sizes may differ, arranged
in pairs whose widths sum to twice the reference width h_base, so the layer's
parameter count always equals that of N uniform experts of width h_base. The
gate scores each token against every expert and adds a deterministic
softplus/rmsnorm term derived from the token itself, both in one
`gate_logits` node, and one stable sort, outside the tape, keeps each
token's top-k experts as [T, k] expert indices in rank order. The experts
of a layer are one `routed_experts` node on the logits and those indices:
each token's k chosen logits softmaxed into its combination weights, one
stable sort of the routed expert ids, each expert once on its contiguous
slice of rows, one gate-weighted sum per token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as tt
from .tensor import Tensor

GATE_NORM_EPS = 1e-6


class PairConstraintError(ValueError):
    """An expert-size pair breaks the pair-sum or integrality constraint."""


class GateParams(NamedTuple):
    """Router weights: per-expert score matrix, noise matrix, and the noise-norm scale."""

    w_gate: Tensor  # [d_model, n_experts]
    w_noise: Tensor  # [d_model, n_experts]
    gamma: Tensor  # scalar, learnable

    @property
    def n_experts(self) -> int:
        return self.w_gate.shape[1]


class ExpertParams(NamedTuple):
    """One gated-linear feed-forward expert, bias-free."""

    w_in: Tensor  # [d_model, hidden]
    w_gateproj: Tensor  # [d_model, hidden]
    w_out: Tensor  # [hidden, d_model]

    @property
    def hidden_size(self) -> int:
        return self.w_in.shape[1]


@dataclass(frozen=True)
class PairedExpertSpec:
    """Expert widths grouped into pairs that each sum to 2*h_base."""

    d_model: int
    h_base: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, (large, small) in enumerate(self.pairs):
            if not (large >= small >= 1):
                raise PairConstraintError(f"pair {i}: sizes ({large}, {small}) must satisfy large >= small >= 1")
            if large + small != 2 * self.h_base:
                raise PairConstraintError(
                    f"pair {i}: {large} + {small} != 2*h_base = {2 * self.h_base}"
                )

    @property
    def expert_sizes(self) -> list[int]:
        return [h for pair in self.pairs for h in pair]

    @property
    def n_experts(self) -> int:
        return 2 * len(self.pairs)


def build_paired_spec(
    d_model: int, h_base: int, ratios: list[tuple[float, float]]
) -> PairedExpertSpec:
    """Turn (large, small) width-to-d_model ratios into integer expert sizes.

    Each ratio pair must average to h_base/d_model (so total parameters match
    the uniform layer) and each ratio times d_model must land on an integer.
    """
    target = 2.0 * h_base / d_model
    pairs = []
    for i, (r_large, r_small) in enumerate(ratios):
        if not abs((r_large + r_small) - target) <= 1e-9:  # NaN and infinite ratios fail this too
            raise PairConstraintError(
                f"pair {i}: ratios ({r_large}, {r_small}) sum to {r_large + r_small}, "
                f"need 2*h_base/d_model = {target}"
            )
        sizes = []
        for r in (r_large, r_small):
            h = r * d_model
            if h < 1 or abs(h - round(h)) > 1e-6:
                raise PairConstraintError(f"pair {i}: ratio {r} gives non-integer width {h}")
            sizes.append(int(round(h)))
        pairs.append((max(sizes), min(sizes)))
    return PairedExpertSpec(d_model=d_model, h_base=h_base, pairs=tuple(pairs))


def homogeneous_spec(d_model: int, h_base: int, n_experts: int) -> PairedExpertSpec:
    if n_experts % 2 != 0:
        raise PairConstraintError(f"n_experts = {n_experts} must be even to form pairs")
    return PairedExpertSpec(d_model, h_base, tuple((h_base, h_base) for _ in range(n_experts // 2)))


@dataclass
class GateOutput:
    """Routing decision for a batch of tokens: each token's k chosen experts
    and the logits that `routed_experts` weights them by and the balance
    loss reads."""

    topk_indices: np.ndarray  # [T, k] int, rank order (rank 0 = largest logit)
    logits: Tensor  # [T, N]


def gate_forward(params: GateParams, x: Tensor, k: int) -> GateOutput:
    """Score tokens against experts and pick each token's top-k.

    Logits are x @ w_gate plus an rmsnorm-scaled softplus of x @ w_noise,
    computed per token over the expert axis, as one `gate_logits` node.
    There is no random sampling: the additive term is a deterministic
    function of the token. The top-k selection is one stable sort of the
    negated logits, so ties go to the lowest expert index; it records no
    node, being constant during backward.
    """
    n = params.n_experts
    if not 1 <= k <= n:
        raise ValueError(f"gate_forward: k={k} outside 1..{n}")
    logits = tt.gate_logits(x, params.w_gate, params.w_noise, params.gamma, GATE_NORM_EPS)
    idx = np.argsort(-logits.values, axis=-1, kind="stable")[:, :k]
    return GateOutput(topk_indices=idx, logits=logits)


def expert_forward(e: ExpertParams, rows: np.ndarray) -> tt.GluRows:
    """Gated-linear feed-forward (silu(x W_in) * (x W_gateproj)) W_out of an expert's
    routed rows [R, d_model], as plain numpy: the output and what its backward reads.
    `moe_layer_forward` calls it once per expert that has rows, widest work first; when
    the layer's work is large enough, on the calling thread and the ops' pool threads at
    once, so calls may overlap."""
    return tt._glu_forward(rows, e.w_in.values, e.w_gateproj.values, e.w_out.values)


def moe_layer_forward(
    gate: GateParams, experts: list[ExpertParams], x: Tensor, k: int
) -> tuple[Tensor, GateOutput]:
    """Route each token to its top-k experts and combine the outputs, as one `routed_experts` node.

    Each expert runs once, through `expert_forward`, on the rows routed to
    it; each token then sums its experts' gate-scaled rows in expert-index
    order, which is identical to a dense per-token sum over experts in the
    same order. Tokens outside an expert's routing set contribute exactly
    zero to it and are never evaluated.
    """
    if not experts:
        raise ValueError("moe_layer_forward: experts list is empty")
    if len(experts) != gate.n_experts:
        raise ValueError(f"moe_layer_forward: {len(experts)} experts for a gate over {gate.n_experts}")
    out = gate_forward(gate, x, k)
    y = tt.routed_experts(
        x, out.logits, out.topk_indices, experts, lambda i, rows: expert_forward(experts[i], rows)
    )
    return y, out
