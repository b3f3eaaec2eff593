"""Auxiliary load-balance loss over a batch of routing decisions.

The penalty is alpha * N * sum_i f_i * P_i, where f_i is the fraction of
tokens whose single most probable expert is i and P_i is the mean router
probability assigned to i. It is minimized (value alpha) by a uniform
routing distribution and maximized (alpha * N) by total collapse onto one
expert. Gradient flows through P only; f is a discrete count held constant.
The router probabilities, f, P and the penalty come from one
`tensor.balance_penalty` node on the gate's logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .moe import GateOutput
from .tensor import Tensor

DEFAULT_ALPHA = 0.01


class EmptyBatchError(ValueError):
    """Balance statistics need at least one token."""


@dataclass
class BalanceStats:
    f: np.ndarray  # [N] fraction of tokens argmax-routed to each expert
    P: np.ndarray  # [N] mean router probability per expert
    loss: Tensor  # scalar, differentiable through P


def balance_loss(gate_out: GateOutput, alpha: float = DEFAULT_ALPHA) -> BalanceStats:
    """Compute f, P and the balance penalty for one batch of gate outputs.

    f uses the argmax of the full (unmasked) softmax of the logits, ties
    resolved to the lowest expert index, regardless of how many experts
    routing actually selects per token.
    """
    t, n = gate_out.logits.shape
    if t == 0:
        raise EmptyBatchError("balance_loss: empty batch")
    loss, p, f = tt.balance_penalty(gate_out.logits, alpha * n)
    return BalanceStats(f=f, P=p.astype(np.float64), loss=loss)
