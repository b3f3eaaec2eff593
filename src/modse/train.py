"""Training loop: next-token cross entropy plus the per-layer balance penalties.

Bitwise deterministic for a fixed config and seed on one numpy/BLAS build
and BLAS thread count, whatever the number of worker threads the fused ops
use: the BLAS thread count changes low-order bits, and the run manifest
records all three. Each step logs a TrainStepRecord; optionally
every routing decision (which expert each token chose at each layer and
rank) goes to a trace file.

Each step frees its whole graph before the next forward. When one
`[batch*seq_len, dim]` activation is at least glibc's default mmap
threshold (128 KiB), the first such run in a process asks glibc to keep
freed memory in one heap (see `_keep_heap`), so the next step reuses it
instead of faulting it back in; `heap_policy()` says what is in force.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tt
from .balance import BalanceStats, balance_loss
from .checkpoint import save_checkpoint
from .data import Batcher
from .model import ModelConfig, init_weights, spec_hash, transformer_forward
from .moe import GateOutput
from .optim import AdamState, OptimizerConfig, adam_step, clip_global_norm, lr_at
from .tensor import Tensor, per_token_cross_entropy
from .trace import TraceHeader, TraceWriter, make_records


# mallopt's parameter numbers in glibc's malloc.h, and glibc's default mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_DEFAULT_MMAP_THRESHOLD = 128 << 10
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 1 << 30, 32 << 20  # 32 MiB: the largest mmap threshold 64-bit glibc takes
_ARENA_MAX = 1  # the op pool's worker threads allocate from the main heap, not from arenas of their own
_heap_kept = False  # the allocator is per process, and so is this record of what was set


def heap_policy() -> dict | None:
    """The allocator settings `_keep_heap` made in this process, or None if it made none."""
    if not _heap_kept:
        return None
    return {"trim_threshold": _TRIM_THRESHOLD, "mmap_threshold": _MMAP_THRESHOLD, "arena_max": _ARENA_MAX}


def _keep_heap(activation_bytes: int) -> None:
    """Keep freed step memory in the heap for the rest of the process.

    Without this, glibc serves each large activation with its own mmap and
    trims the heap top once a step's graph is freed, so every step faults
    tens of MB back in. One arena keeps the worker threads of the fused ops
    from each growing a heap of their own, which raised peak RSS by about
    12 MB on the toy shapes. Below glibc's default mmap threshold the steps
    already reuse heap memory, and the allocator is left alone. Where libc
    has no `mallopt`, or it refuses a value, nothing is recorded.
    """
    global _heap_kept
    if _heap_kept or activation_bytes < _DEFAULT_MMAP_THRESHOLD:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = ((_M_TRIM_THRESHOLD, _TRIM_THRESHOLD), (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_ARENA_MAX, _ARENA_MAX))
    _heap_kept = all(mallopt(param, value) == 1 for param, value in settings)


class NonFiniteLossError(RuntimeError):
    """The training loss or its gradient became NaN or infinite; the run cannot continue."""


@dataclass
class TrainStepRecord:
    step: int
    ce_loss: float
    balance_loss_sum: float
    lr: float
    grad_norm_pre_clip: float
    per_layer_f: list[list[float]]
    per_layer_P: list[list[float]]


def _trace_step(
    writer: TraceWriter,
    gate_outs: list[GateOutput],
    epoch: int,
    token_base: int,
) -> None:
    n_tokens = gate_outs[0].n_tokens
    token_ids = token_base + np.arange(n_tokens, dtype=np.uint64)
    for layer, go in enumerate(gate_outs):
        for rank in range(go.top_k):
            writer.write(
                make_records(
                    epoch=epoch,
                    layer=layer,
                    token=token_ids,
                    rank=rank,
                    expert=go.topk_indices[:, rank],
                )
            )


def objective(
    cfg: ModelConfig, weights: dict[str, Tensor], inputs: np.ndarray, targets: np.ndarray, alpha: float
) -> tuple[Tensor, Tensor, list[BalanceStats], list[GateOutput]]:
    """The loss training minimises: next-token cross entropy plus every layer's balance penalty.

    Returns the loss, the cross entropy, and each layer's balance stats and gate output.
    """
    logits, gate_outs = transformer_forward(cfg, weights, inputs)
    ce = tt.cross_entropy(logits, targets)
    stats = [balance_loss(go, alpha) for go in gate_outs]
    loss = ce
    for st in stats:
        loss = tt.add(loss, st.loss)
    return loss, ce, stats, gate_outs


def train(
    cfg: ModelConfig,
    opt: OptimizerConfig,
    corpus: np.ndarray,
    steps: int,
    trace_out: str | Path | None = None,
    metrics_out: str | Path | None = None,
    checkpoint_out: str | Path | None = None,
    trace_binary: bool = False,
) -> tuple[list[TrainStepRecord], dict[str, Tensor]]:
    """Run `steps` optimizer steps from fresh seeded weights; returns records and weights.

    The trainable weights are packed into one flat buffer before step 0 (see
    `AdamState`), so the returned tensors hold views of it.
    """
    weights = init_weights(cfg)
    params = list(weights.items())  # init_weights makes every weight trainable
    state = AdamState(params)
    _keep_heap(cfg.batch_size * cfg.seq_len * cfg.dim * state.flat.itemsize)
    batcher = Batcher(corpus, cfg.seq_len, cfg.batch_size, cfg.seed)

    records: list[TrainStepRecord] = []
    token_base = 0
    with contextlib.ExitStack() as outputs:  # closes whichever files opened, however the run ends
        writer = metrics_fh = None
        if trace_out is not None:
            header = TraceHeader(
                spec_hash=spec_hash(cfg),
                n_experts=cfg.n_experts,
                n_layers=cfg.n_layers,
                top_k=cfg.top_k,
                expert_sizes=tuple(cfg.expert_spec().expert_sizes),
            )
            writer = outputs.enter_context(TraceWriter(trace_out, header, binary=trace_binary))
        if metrics_out is not None:
            metrics_fh = outputs.enter_context(open(metrics_out, "w", encoding="utf-8"))

        for step in range(steps):
            epoch = batcher.epoch
            batch = batcher.next_batch()
            inputs, targets = batch[:, :-1], batch[:, 1:].reshape(-1)

            loss, ce, stats, gate_outs = objective(cfg, weights, inputs, targets, opt.alpha)
            if not np.isfinite(loss.values):
                raise NonFiniteLossError(f"step {step}: loss is {float(loss.values)} (cross entropy {float(ce.values)})")

            tt.backward(loss)
            gnorm = clip_global_norm(state, opt.grad_clip_norm)
            if not np.isfinite(gnorm):
                bad = next((n for n, p in params if p.grad is not None and not np.isfinite(p.grad).all()), None)
                raise NonFiniteLossError(f"step {step}: gradient norm is {gnorm} (first non-finite gradient: {bad})")
            adam_step(state, opt, step + 1)
            for _, p in params:
                p.zero_grad()

            rec = TrainStepRecord(
                step=step,
                ce_loss=float(ce.values),
                balance_loss_sum=float(sum(float(st.loss.values) for st in stats)),
                lr=lr_at(step, opt),
                grad_norm_pre_clip=gnorm,
                per_layer_f=[st.f.tolist() for st in stats],
                per_layer_P=[st.P.tolist() for st in stats],
            )
            records.append(rec)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(vars(rec)) + "\n")

            if writer is not None:
                _trace_step(writer, gate_outs, epoch, token_base)
            token_base += inputs.size
            # drop this step's graph (activations and closures) before the next forward
            del loss, ce, stats, gate_outs

    if checkpoint_out is not None:
        save_checkpoint(checkpoint_out, cfg, weights, steps)
    return records, weights


def eval_loss(
    cfg: ModelConfig,
    weights: dict[str, Tensor],
    corpus: np.ndarray,
    with_per_token: bool = False,
) -> tuple[float, np.ndarray | None]:
    """Mean next-token cross entropy over the corpus, windowed at cfg.seq_len.

    Windows tile the corpus back to back; trailing tokens short of a full
    window are skipped. With `with_per_token`, also returns the loss of each
    predicted position, in corpus order (position i is the prediction of
    token i+1 within its window). The forward runs on constant views of the
    weights, so it records no tape.
    """
    weights = {name: Tensor(t.values) for name, t in weights.items()}
    corpus = np.asarray(corpus, dtype=np.int32)
    s = cfg.seq_len
    starts = np.arange(0, len(corpus) - s, s)
    if len(starts) == 0:
        raise ValueError(f"corpus of {len(corpus)} tokens is shorter than one window ({s + 1})")
    losses = []
    for i in range(0, len(starts), cfg.batch_size):
        chunk = starts[i : i + cfg.batch_size]
        batch = np.stack([corpus[j : j + s + 1] for j in chunk])
        logits, _ = transformer_forward(cfg, weights, batch[:, :-1])
        losses.append(per_token_cross_entropy(logits.values, batch[:, 1:].reshape(-1)))
    per_token = np.concatenate(losses)
    return float(per_token.mean()), (per_token if with_per_token else None)
