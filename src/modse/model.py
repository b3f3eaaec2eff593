"""Toy decoder-only transformer whose feed-forward sublayers are expert layers.

Pre-norm blocks: rmsnorm -> causal multi-head attention with rotary position
mixing -> residual -> rmsnorm -> routed expert layer -> residual, then a final
rmsnorm and an output projection. No biases, no dropout. Each attention
sublayer, from its norm to its residual, is one `causal_attention` node, fed
rotary tables and a causal mask that are built once per shape and dtype and
shared, read-only, by every later forward. Weights live in a flat ordered
name->Tensor dict so checkpointing and the optimizer can treat the model as
a list of named buffers; `param_shapes` derives that list from the config.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as tt
from .data import VOCAB_SIZE
from .moe import (
    ExpertParams,
    GateParams,
    PairedExpertSpec,
    build_paired_spec,
    homogeneous_spec,
    moe_layer_forward,
)
from .rng import stream_rng
from .tensor import Tensor

NORM_EPS = 1e-6
ROPE_BASE = 10000.0
INIT_STD = 0.02

# Table-2-shaped size ratios: four (large, small) pairs that average to h/d.
DEFAULT_EXPERT_RATIOS = ((4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5))


@dataclass
class ModelConfig:
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_experts: int = 8
    top_k: int = 2
    vocab_size: int = VOCAB_SIZE
    h_base: int = 160
    expert_ratios: tuple[tuple[float, float], ...] | str = DEFAULT_EXPERT_RATIOS
    seq_len: int = 256
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        # `type(v) is int` also turns away bools, which JSON configs can carry
        counts = ("dim", "n_layers", "n_heads", "n_experts", "top_k", "vocab_size", "h_base", "seq_len", "batch_size")
        for name in counts:
            v = getattr(self, name)
            if type(v) is not int or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.dim % self.n_heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by n_heads {self.n_heads}")
        if (self.dim // self.n_heads) % 2 != 0:
            raise ValueError("head dim must be even for rotary mixing")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k {self.top_k} outside 1..{self.n_experts}")
        if isinstance(self.expert_ratios, str):
            if self.expert_ratios != "homogeneous":
                raise ValueError(f"expert_ratios string must be 'homogeneous', got {self.expert_ratios!r}")
        else:
            self.expert_ratios = tuple(tuple(p) for p in self.expert_ratios)
            if not all(len(p) == 2 and all(type(r) in (int, float) for r in p) for p in self.expert_ratios):
                raise ValueError(f"expert_ratios must be pairs of numbers, got {self.expert_ratios!r}")
            if 2 * len(self.expert_ratios) != self.n_experts:
                raise ValueError(
                    f"{len(self.expert_ratios)} ratio pairs cannot cover {self.n_experts} experts"
                )

    def expert_spec(self) -> PairedExpertSpec:
        if self.expert_ratios == "homogeneous":
            return homogeneous_spec(self.dim, self.h_base, self.n_experts)
        return build_paired_spec(self.dim, self.h_base, list(self.expert_ratios))

    def to_dict(self) -> dict:
        d = asdict(self)
        if not isinstance(d["expert_ratios"], str):
            d["expert_ratios"] = [list(p) for p in d["expert_ratios"]]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown model config fields: {sorted(unknown)}")
        return cls(**d)


def spec_hash(cfg: ModelConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every weight's name and shape, in the order `init_weights` draws them and checkpoints store them."""
    d, expert_sizes = cfg.dim, cfg.expert_spec().expert_sizes
    shapes: dict[str, tuple[int, ...]] = {"embed": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        shapes[f"{p}.attn_norm.gamma"] = (d,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{name}"] = (d, d)
        shapes[f"{p}.ffn_norm.gamma"] = (d,)
        shapes[f"{p}.gate.w_gate"] = (d, cfg.n_experts)
        shapes[f"{p}.gate.w_noise"] = (d, cfg.n_experts)
        shapes[f"{p}.gate.gamma"] = ()
        for j, h in enumerate(expert_sizes):
            shapes[f"{p}.experts.{j}.w_in"] = (d, h)
            shapes[f"{p}.experts.{j}.w_gateproj"] = (d, h)
            shapes[f"{p}.experts.{j}.w_out"] = (h, d)
    shapes["final_norm.gamma"] = (d,)
    shapes["lm_head"] = (d, cfg.vocab_size)
    return shapes


def init_weights(cfg: ModelConfig, dtype=np.float32) -> dict[str, Tensor]:
    """Seeded weight dict; norm scales (the names ending in gamma) start at 1, the rest ~ N(0, 0.02)."""
    rng = stream_rng(cfg.seed, "init")
    weights = {}
    for name, shape in param_shapes(cfg).items():
        values = np.ones(shape) if name.endswith("gamma") else rng.normal(0.0, INIT_STD, shape)
        weights[name] = Tensor(values, requires_grad=True, dtype=dtype)
    return weights


def layer_gate(weights: dict[str, Tensor], layer: int) -> GateParams:
    p = f"layers.{layer}.gate"
    return GateParams(w_gate=weights[f"{p}.w_gate"], w_noise=weights[f"{p}.w_noise"], gamma=weights[f"{p}.gamma"])


def layer_experts(cfg: ModelConfig, weights: dict[str, Tensor], layer: int) -> list[ExpertParams]:
    out = []
    for j in range(cfg.n_experts):
        p = f"layers.{layer}.experts.{j}"
        out.append(
            ExpertParams(
                w_in=weights[f"{p}.w_in"],
                w_gateproj=weights[f"{p}.w_gateproj"],
                w_out=weights[f"{p}.w_out"],
            )
        )
    return out


def rope_tables(seq_len: int, head_dim: int, dtype, base: float = ROPE_BASE):
    """cos/sin tables [seq_len, head_dim/2]; row s holds the angles of position s."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.outer(np.arange(seq_len, dtype=np.float64), inv_freq)
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


@functools.lru_cache(maxsize=None)
def attention_tables(seq_len: int, head_dim: int, n_heads: int, dtype) -> tt.AttentionTables:
    """The read-only rotary tables and causal mask of `tt.causal_attention`, built once per argument tuple."""
    return tt.build_attention_tables(*rope_tables(seq_len, head_dim, dtype), n_heads)


def transformer_forward(cfg: ModelConfig, weights: dict[str, Tensor], tokens: np.ndarray):
    """Forward pass over a [batch, seq] token matrix.

    Returns logits as a [batch*seq, vocab] tensor (row b*seq+s is position s
    of sequence b) and one GateOutput per layer over the same flattened rows.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocab {cfg.vocab_size}")
    b, s = tokens.shape
    tables = attention_tables(s, cfg.dim // cfg.n_heads, cfg.n_heads, weights["embed"].values.dtype)

    h = tt.embedding_lookup(weights["embed"], tokens.reshape(-1))
    gate_outs = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        proj = (weights[f"{p}.attn.{name}"] for name in ("wq", "wk", "wv", "wo"))
        h = tt.causal_attention(h, weights[f"{p}.attn_norm.gamma"], *proj, tables, eps=NORM_EPS)

        m_in = tt.rmsnorm(h, weights[f"{p}.ffn_norm.gamma"], eps=NORM_EPS)
        y, gate_out = moe_layer_forward(
            layer_gate(weights, i), layer_experts(cfg, weights, i), m_in, cfg.top_k
        )
        h = tt.add(h, y)
        gate_outs.append(gate_out)

    h = tt.rmsnorm(h, weights["final_norm.gamma"], eps=NORM_EPS)
    logits = tt.matmul(h, weights["lm_head"])
    return logits, gate_outs
