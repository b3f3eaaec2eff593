"""Dense tensors with reverse-mode autodiff, sized for a small expert-routing model.

The op set is deliberately closed: exactly what the gate, the experts and the
toy transformer need, nothing more. Values are row-major numpy arrays in
float32 (training) or float64 (gradient checking); an op's output always keeps
its inputs' dtype. The computation graph is implicit: every recorded output
stores its parents and a backward closure, and carries a monotonically
increasing node id, so `backward` can replay the tape in exact reverse
recording order, visiting each node once.

The pre-norm attention sublayer is a single fused op, `causal_attention`:
h + Attn(rope(n Wq), rope(n Wk), n Wv) Wo with n = rmsnorm(h, gamma). It
rotates queries and keys over whole contiguous rows by tables built once
per shape (`AttentionTables`), works on all heads and sequences at once with
batched matmuls, skips the fully masked part of the score matrix block by
block, keeps each block's probabilities key-major, and has a hand-written
backward whose softmax row term comes from the output rows, so a
transformer layer records one attention node instead of a chain of seven.

A gate's logits, x W_gate + rmsnorm(softplus(x W_noise)), are one
`gate_logits` op instead of a chain of five. Every fused op gives the bits
of the chain it replaces: it lists an input once per use and returns its
partial gradients in the order the chain's tape accumulated them.

The auxiliary balance penalty is one `balance_penalty` op on the gate's
logits: it takes their row softmax and each row's argmax inside, and its
hand-written backward applies the softmax Jacobian, where a chain of a
softmax and five more ops would be, with the chain's bits.

A mixture layer's experts are one `routed_experts` node on the gate's
logits and [tokens, k] expert indices: it softmaxes each token's k chosen
logits in rank order into its gate weights, one stable sort of the
tokens*k expert ids makes each expert's routed rows a contiguous slice of
one buffer, each gated-linear expert runs once on its slice, and each token
sums its gate-weighted rows in ascending expert index, which is identical
to the dense per-token sum over experts in that order. Its hand-written
backward gathers the output gradient once into the same order, runs each
expert's backward on its slice, and scatters the gate weights' gradient
through the k-way softmax into the logits.

An op whose work reaches PARALLEL_WORK splits its large independent pieces
over one thread per usable core: the calling thread and a pool of the
others. The pieces form one queue that every thread drains, each taking the
next piece as it finishes one, so a slow piece holds up only the thread
that runs it; the experts queue widest work first. The op returns, or
raises a piece's error, only once no piece is running. A piece is either a
whole numpy call run as a concurrent task, or a contiguous range of rows of
a row-wise pass. Tasks: `routed_experts` each expert's forward (the caller's
`forward` callback, which may then run on a worker thread, concurrently
with other experts) and backward; `matmul`'s two backward GEMMs;
`causal_attention`'s three projections with their rotations, its two
inverse rotations, and its three input-gradient products and four
weight-gradient GEMMs. Row ranges: attention's score-softmax-value core
(chunks of sequences), every rmsnorm forward and backward, cross entropy's
log-softmax and its backward, the experts' per-token sum, and Adam's update
(`optim.adam_step`). A GEMM is never split by rows, because BLAS may block
a partial matrix differently, and a sum over rows (a gamma or weight
gradient) stays one whole call. numpy's BLAS calls and ufunc loops release
the GIL, so the pieces overlap. Each piece makes the same numpy calls on
the same data wherever it runs and writes only its own slices, so the bits
do not depend on the worker count. Below the gate an op makes the same
calls on the calling thread, whole. The pool is built on first use, and a
forked child drops its copy, whose threads did not survive the fork.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "backward",
    "matmul",
    "add",
    "rmsnorm",
    "gate_logits",
    "embedding_lookup",
    "routed_experts",
    "causal_attention",
    "cross_entropy",
    "balance_penalty",
    "per_token_cross_entropy",
    "finite_diff_grad",
]


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


# an op's pieces go to the worker pool only when the op's work (rows*k*d for the
# experts, B*H*S^2 for attention's core, the size of the [rows, cols] array a
# row-wise pass or a set of GEMM tasks works on) reaches this; below it the
# hand-offs cost more than they save, so the micro model stays on the calling thread
PARALLEL_WORK = 1 << 16
_workers: int | None = None  # None: one worker per usable core; tests set a count
_pool = None  # (pool thread count, ThreadPoolExecutor), built on first use


def worker_count() -> int:
    """The threads the fused ops work on above PARALLEL_WORK: one per core this process
    may run on (its CPU affinity), so `taskset` restricts them. The calling thread is
    one of them; the pool holds the others."""
    if _workers is not None:
        return _workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, items: list, work: int) -> list:
    """[fn(item) for item in items], results in item order. When `work` reaches
    PARALLEL_WORK and there are at least two items and two workers, the items form one
    queue that the calling thread and up to worker_count() - 1 pool threads drain, each
    taking the next item as it finishes one, so the queue's order is the order pieces
    start in. A piece that raises stops the others from taking new items; the first
    exception is raised once every piece that started has returned. A drain no pool
    thread has started when the caller's own drain ends is cancelled, so a `_map`
    called from inside a piece finishes even when every pool thread is busy."""
    threads = worker_count() - 1  # the pool's; sized by the workers alone, so no map rebuilds it
    n = min(threads + 1, len(items)) if work >= PARALLEL_WORK else 1
    if n < 2:
        return list(map(fn, items))
    global _pool
    if _pool is None or _pool[0] != threads:
        from concurrent.futures import ThreadPoolExecutor  # 7-9 ms to import, so only when first needed

        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="modse-op"))
    results = [None] * len(items)
    queue = enumerate(items)
    lock = threading.Lock()
    failed: list[BaseException] = []

    def drain():
        while True:
            with lock:
                nxt = None if failed else next(queue, None)
            if nxt is None:
                return
            try:
                results[nxt[0]] = fn(nxt[1])
            except BaseException as exc:  # kept, and raised by the caller once every drain is out
                with lock:
                    failed.append(exc)
                return

    jobs = [_pool[1].submit(drain) for _ in range(n - 1)]
    drain()
    started = [job for job in jobs if not job.cancel()]
    for job in started:
        job.result()
    if failed:
        raise failed[0]
    return results


def _split(n: int, work: int) -> list[tuple[int, int]]:
    """0..n as contiguous [lo, hi) ranges, one per worker when `work` reaches PARALLEL_WORK, else one."""
    parts = min(n, worker_count()) if work >= PARALLEL_WORK else 1
    cuts = [n * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _tasks(work: int, *calls: Callable[[], object]) -> list:
    """[call() for call in calls], as concurrent tasks when `work` reaches PARALLEL_WORK."""
    return _map(lambda call: call(), list(calls), work)


def _rows(fn, work: int, *arrays: np.ndarray) -> list:
    """[fn(*arrays)] below PARALLEL_WORK; above it fn on each worker's contiguous range of
    the arrays' rows (their first axis), in parallel, with the results in row order. fn
    writes its outputs into arrays among `arrays`, so each range writes only its own rows."""
    chunks = _split(len(arrays[0]), work) if work >= PARALLEL_WORK else ()
    if len(chunks) < 2:
        return [fn(*arrays)]
    return _map(lambda c: fn(*(a[c[0] : c[1]] for a in arrays)), chunks, work)


def _drop_pool() -> None:
    global _pool
    _pool = None  # a forked child inherits the executor but none of its threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


_FLOAT_DTYPES = (np.float32, np.float64)
_node_counter = itertools.count()


class Tensor:
    """A dense array plus an optional gradient buffer of the same shape.

    Tensors are immutable after creation except for `grad`, which `backward`
    accumulates into; call `zero_grad` between steps. Only float32/float64
    values are supported, and binary ops refuse to mix the two.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn", "_nid")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values, order="C")
        if dtype is not None:
            arr = arr.astype(dtype, order="C")
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32, order="C")
        self.values: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._nid = next(_node_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed dtypes {a.dtype} and {b.dtype}")


def _record(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    out._nid = next(_node_counter)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into `t.grad` for every leaf tensor reachable from `loss`.

    Repeated calls on the same graph add on top of existing grads. Nodes are
    processed in descending creation order, which is a topological order of
    the tape by construction, so each backward closure runs exactly once.
    """
    if loss.values.ndim != 0:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    reachable: dict[int, Tensor] = {id(loss): loss}
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if id(p) not in reachable:
                reachable[id(p)] = p
                stack.append(p)

    flows: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for t in sorted(reachable.values(), key=lambda t: t._nid, reverse=True):
        g = flows.pop(id(t), None)
        if g is None:
            continue
        if t._backward_fn is None:
            if t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g
            continue
        for parent, pg in zip(t._parents, t._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flows.get(id(parent))
            flows[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# linear algebra


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] <= 16 and a.shape[1] <= 16 and b.shape[1] <= 16:
        # sequential accumulation over k: bit-identical to a naive triple loop,
        # which BLAS (reassociated sums) is not
        return np.einsum("ik,kj->ij", a, b)
    return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    _check_same_dtype(a, b, "matmul")

    def bw(g):
        return tuple(_tasks(g.size, lambda: g @ b.values.T, lambda: a.values.T @ g))

    return _record(_mm(a.values, b.values), (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ {a.shape} vs {b.shape}")
    _check_same_dtype(a, b, "add")
    return _record(a.values + b.values, (a, b), lambda g: (g, g))


class GluRows(NamedTuple):
    """A gated-linear expert's forward on its rows, from `_glu_forward`: the
    output and the [R, h] arrays its backward reads."""

    out: np.ndarray  # (silu(a) * b) W_out, [R, d_out]
    a: np.ndarray  # x W_in
    s: np.ndarray  # sigmoid(a)
    b: np.ndarray  # x W_gate


def _glu_forward(x: np.ndarray, w_in: np.ndarray, w_gate: np.ndarray, w_out: np.ndarray) -> GluRows:
    """(silu(x W_in) * (x W_gate)) W_out of [R, d] rows, w_in and w_gate [d, h],
    w_out [h, d_out], with the bits of the matmul, silu, matmul, mul, matmul chain.
    The hidden product is built in place in one [R, h] buffer."""
    a = _mm(x, w_in)
    s = _sigmoid(a)
    b = _mm(x, w_gate)
    hidden = np.multiply(a, s)
    hidden *= b
    return GluRows(_mm(hidden, w_out), a, s, b)


def _glu_backward(g, x, saved, weights, gx_out: np.ndarray):
    """The weight gradients (w_in, w_gate, w_out) of `_glu_forward` given d(loss)/d(out) g,
    its (a, s, b) as `saved` and its three weight arrays; x's gradient is written into
    `gx_out`. silu(a) = a*s and the hidden product are rebuilt in the forward's order, so
    every bit matches the chain."""
    a, s, b = saved
    w_in, w_gate, w_out = weights
    gh = g @ w_out.T
    t = np.subtract(1.0, s)  # t = s * (1 + a*(1 - s)), silu's derivative
    t *= a
    t += 1.0
    t *= s
    ga = np.multiply(gh, b)
    ga *= t
    np.multiply(a, s, out=t)  # silu(a)
    gh *= t  # the gradient of b
    t *= b  # the hidden product
    np.add(gh @ w_gate.T, ga @ w_in.T, out=gx_out)
    return x.T @ ga, x.T @ gh, t.T @ g


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow on both tails: 0.5 * (1 + tanh(0.5 * v)), in one buffer
    s = np.multiply(v, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _softplus(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0) + np.log1p(np.exp(-np.abs(v)))


def _check_gamma(gamma: Tensor, n: int, op: str) -> None:
    if gamma.values.ndim not in (0, 1) or (gamma.values.ndim == 1 and gamma.shape[0] != n):
        raise ShapeError(f"{op}: gamma shape {gamma.shape} does not fit last axis {n}")


def _rms_scale(v: np.ndarray, eps: float) -> np.ndarray:
    """1 / sqrt(mean(v^2) + eps) over the last axis, kept as a trailing axis of length 1."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    ms = np.add.reduce(np.square(v), axis=-1, keepdims=True)  # np.mean's sum, without its wrapper
    ms /= v.dtype.type(v.shape[-1])
    return 1.0 / np.sqrt(ms + v.dtype.type(eps))


def _rmsnorm_forward(v: np.ndarray, gamma: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(v * r * gamma, r) with r = `_rms_scale(v, eps)`, over ranges of v's first axis (a 1-D v is one row)."""
    out = np.empty(v.shape, v.dtype)

    def rows(v, out):
        r = _rms_scale(v, eps)
        np.multiply(v, r, out=out)
        out *= gamma
        return r

    rs = _rows(rows, v.size if v.ndim > 1 else 0, v, out)
    return out, rs[0] if len(rs) == 1 else np.concatenate(rs)


def _rmsnorm_backward(g: np.ndarray, v: np.ndarray, r: np.ndarray, gamma: np.ndarray):
    """Gradients of v and gamma of v * r * gamma, given r = `_rms_scale(v)` and d(loss)/d(out) g.
    Ranges of the first axis, as in `_rmsnorm_forward`, give gx and g * xhat; the gamma gradient
    sums the latter over all rows in one call."""
    n = v.shape[-1]
    gx, ggamma = np.empty(v.shape, v.dtype), np.empty(v.shape, v.dtype)

    def rows(g, v, r, gx, gg):
        xhat = v * r  # rebuilt, not kept on the tape
        np.multiply(g, gamma, out=gg)
        # gx = r * (gg - xhat * mean(gg * xhat)), the mean over the last axis
        np.multiply(xhat, np.einsum("...i,...i->...", gg, xhat)[..., None] / n, out=gx)
        np.subtract(gg, gx, out=gx)
        gx *= r
        np.multiply(g, xhat, out=gg)

    _rows(rows, v.size if v.ndim > 1 else 0, g, v, r, gx, ggamma)
    if gamma.ndim == 0:
        return gx, np.asarray(ggamma.sum(), dtype=v.dtype)
    return gx, ggamma.reshape(-1, n).sum(axis=0)


def rmsnorm(x: Tensor, gamma: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by `gamma`.

    `gamma` is either a scalar (shape ()) or a per-feature vector matching
    the last axis. `eps` keeps the zero vector a fixed point; eps=0 is
    allowed for exact hand comparisons on nonzero inputs.
    """
    v = x.values
    _check_gamma(gamma, v.shape[-1], "rmsnorm")
    _check_same_dtype(x, gamma, "rmsnorm")
    out, r = _rmsnorm_forward(v, gamma.values, eps)
    return _record(out, (x, gamma), lambda g: _rmsnorm_backward(g, v, r, gamma.values))


def gate_logits(x: Tensor, w_gate: Tensor, w_noise: Tensor, gamma: Tensor, eps: float = 1e-6) -> Tensor:
    """A gate's expert logits x W_gate + rmsnorm(softplus(x W_noise), gamma) as one node.

    x is [T, d], w_gate and w_noise are [d, N], gamma is a scalar or an [N]
    vector. The tape keeps a = x W_noise, s = softplus(a) and the norm's
    1/rms; the backward evaluates the chain's expressions in the chain's
    order. Its parents are (x, x, w_gate, w_noise, gamma): x's x W_gate
    term comes first and its noise term second, the order in which the
    chain's tape added them, so an x that feeds other nodes too
    accumulates the same bits.
    """
    ok = x.values.ndim == w_gate.values.ndim == 2 and w_noise.shape == w_gate.shape
    if not (ok and x.shape[1] == w_gate.shape[0]):
        raise ShapeError(f"gate_logits: x {x.shape}, w_gate {w_gate.shape}, w_noise {w_noise.shape}")
    _check_gamma(gamma, w_gate.shape[1], "gate_logits")
    for w in (w_gate, w_noise, gamma):
        _check_same_dtype(x, w, "gate_logits")
    a = _mm(x.values, w_noise.values)
    s = _softplus(a)
    logits, r = _rmsnorm_forward(s, gamma.values, eps)
    logits += _mm(x.values, w_gate.values)

    def bw(g):
        gs, ggamma = _rmsnorm_backward(g, s, r, gamma.values)
        gs *= _sigmoid(a)  # softplus' derivative: the gradient of a
        xt = x.values.T
        return g @ w_gate.values.T, gs @ w_noise.values.T, xt @ g, xt @ gs, ggamma

    return _record(logits, (x, x, w_gate, w_noise, gamma), bw)


# ---------------------------------------------------------------------------
# gather / routed experts


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows `x[idx]`, the node `embedding_lookup` records; the backward
    scatter-adds, so repeated rows sum their gradients."""
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        gx = np.zeros_like(x.values)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(x.values[idx], (x,), bw)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ValueError(f"embedding_lookup: id out of range for table of {table.shape[0]} rows")
    return gather_rows(table, ids.reshape(-1))


def routed_experts(
    x: Tensor,
    logits: Tensor,
    idx: np.ndarray,
    experts: Sequence[tuple[Tensor, Tensor, Tensor]],
    forward: Callable[[int, np.ndarray], GluRows] | None = None,
) -> Tensor:
    """A mixture layer's expert FFN: y[t] = sum_r w[t, r] * GLU_idx[t, r](x[t]), as one node,
    with w[t] the softmax of the k logits logits[t, idx[t]].

    x is [T, d]; logits are the gate's [T, N] scores and idx its [T, k]
    expert indices, k distinct per row, in rank order; expert i is the
    (w_in, w_gate, w_out) of a gated-linear expert, [d, h_i], [d, h_i],
    [h_i, d_out]. The gate weights w are the k-way softmax of each row's
    chosen logits, stabilised by their row max and normalised by a sum in
    rank order; for a gate's top-k rows that max is rank 0, and for k <= 2
    the weights have the bits of a full softmax with every other logit at
    -inf. One stable sort of the T*k expert ids lays the routed rows out
    expert by expert, each expert's in token order; one gather copies x
    into that [T*k, d] buffer, and each expert with rows runs once on its
    contiguous slice as `forward(i, rows)`, by default `_glu_forward` of its
    weights (a caller may pass a function that computes the same, to
    instrument each expert's call). The experts start widest work first:
    descending rows * h_i, ties to the lower index, forward and backward.
    Above PARALLEL_WORK (T*k*d) the calling thread and the worker pool take
    them from that queue, so `forward` may run on a worker thread,
    concurrently with other experts' calls. One pass scales the outputs by
    their gate weights, and each token sums its k rows in ascending expert
    index, over ranges of tokens above PARALLEL_WORK.

    The backward gathers g once into the sorted order, takes the gate
    weights' gradient as one row sum, scatters it through the k-way softmax
    into a zero [T, N] logit gradient, and runs each expert's backward on its
    slice; an expert no row chose gets no gradient (None). x is listed k
    times among the parents: partial j holds each token's row from its j-th
    highest expert, the order in which a chain of per-expert gathers added
    them, so the result has the bits of that chain (gather, expert, weighted
    sum in index order) even when x feeds other nodes too.
    """
    idx = np.asarray(idx)
    n = len(experts)
    ok = x.values.ndim == 2 and logits.values.ndim == 2 and idx.ndim == 2
    ok = ok and logits.shape == (x.shape[0], n) and idx.shape[0] == x.shape[0] and 1 <= idx.shape[1] <= n
    if not (ok and all(len(e) == 3 for e in experts)):
        raise ShapeError(f"routed_experts: x {x.shape}, logits {logits.shape}, idx {idx.shape}, {n} experts")
    (t, d), k = x.shape, idx.shape[1]
    d_out = experts[0][2].shape[-1]
    for i, (w_in, w_gate, w_out) in enumerate(experts):
        h = w_in.shape[-1]
        if not (w_in.shape == w_gate.shape == (d, h) and w_out.shape == (h, d_out)):
            raise ShapeError(
                f"routed_experts: expert {i} w_in {w_in.shape}, w_gate {w_gate.shape}, w_out {w_out.shape} for x {x.shape}"
            )
    weights = tuple(w for e in experts for w in e)
    dtypes = {w.dtype for w in (logits, *weights)}
    if dtypes != {x.dtype}:
        raise ShapeError(f"routed_experts: mixed dtypes {x.dtype} and {(dtypes - {x.dtype}).pop()}")
    if not np.issubdtype(idx.dtype, np.integer) or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise ValueError(f"routed_experts: expert index outside 0..{n - 1}")
    if (np.diff(np.sort(idx, axis=1), axis=1) == 0).any():
        raise ValueError("routed_experts: a token lists one expert twice")
    if forward is None:
        def forward(i, rows):
            return _glu_forward(rows, *(w.values for w in experts[i]))

    chosen = (np.arange(t)[:, None], idx)  # each token's k logits, in rank order
    top = logits.values[chosen]
    e = np.exp(top - top.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    ids = idx.reshape(-1)
    order = np.argsort(ids, kind="stable")
    tok = order // k
    bounds = np.cumsum(np.bincount(ids, minlength=n)).tolist()
    spans = [(i, lo, hi) for i, (lo, hi) in enumerate(zip([0, *bounds], bounds)) if hi > lo]
    # the experts queue widest work (rows * h_i) first, ties to the lower index (the sort
    # is stable), so no wide expert starts last while the other threads idle
    cost = [(hi - lo) * experts[i][0].shape[-1] for i, lo, hi in spans]
    queue = sorted(range(len(spans)), key=lambda j: -cost[j])
    xs = x.values[tok]
    work = t * k * d

    def queued(fn, items: list) -> list:
        """[fn(item) for item in items], run in queue order; items and results are in expert index order."""
        out = [None] * len(items)
        for j, r in zip(queue, _map(lambda j: fn(items[j]), queue, work)):
            out[j] = r
        return out

    fwd = queued(lambda span: forward(span[0], xs[span[1] : span[2]]), spans)
    ys = np.concatenate([f.out for f in fwd]) if fwd else np.empty((0, d_out), x.dtype)
    saved = [f[1:] for f in fwd]  # (a, s, b); the outputs live on in ys alone
    ws = e.reshape(-1, 1)[order]
    weighted = ys * ws
    # each token's sorted rows, in ascending expert index
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    pos = np.sort(pos.reshape(t, k), axis=1)
    y = np.empty((t, d_out), x.dtype)

    def token_rows(pos, y):
        np.take(weighted, pos[:, 0], axis=0, out=y, mode="clip")  # "clip": an out of mode "raise" is buffered
        for j in range(1, k):
            y += weighted[pos[:, j]]

    _rows(token_rows, t * k * d_out, pos, y)

    def bw(g):
        gs = g[tok]
        gw = np.empty(t * k, g.dtype)
        gw[order] = np.sum(gs * ys, axis=1)
        gw = gw.reshape(t, k)
        gl = np.zeros_like(logits.values)
        gl[chosen] = e * (gw - np.sum(gw * e, axis=-1, keepdims=True))
        gs *= ws  # the experts' output gradient
        gxs = np.empty_like(xs)

        def expert_backward(span_saved):
            (i, lo, hi), a_s_b = span_saved
            w_values = [w.values for w in experts[i]]
            return _glu_backward(gs[lo:hi], xs[lo:hi], a_s_b, w_values, gxs[lo:hi])

        grads: list[np.ndarray | None] = [None] * (3 * n)
        for (i, _, _), g_w in zip(spans, queued(expert_backward, list(zip(spans, saved)))):
            grads[3 * i : 3 * i + 3] = g_w
        return (*(gxs[pos[:, j]] for j in reversed(range(k))), gl, *grads)

    return _record(y, (x,) * k + (logits, *weights), bw)


# ---------------------------------------------------------------------------
# attention

# query rows per block: each block scores only the key prefix it can see
ATTN_BLOCK = 64


class AttentionTables(NamedTuple):
    """The constant inputs of `causal_attention` for one (seq_len, head_dim, n_heads, dtype), read-only.

    cos_k and sin_k are the full-width rotary tables, [S, H, 2, hd/2] over
    a row's columns: each head holds [cos | cos] and [-sin | sin]. cos_q
    and sin_q are the same tables scaled by 1/sqrt(hd), so rotating the
    queries also applies the score scale. mask is the diagonal block's
    key-major [ATTN_BLOCK, ATTN_BLOCK] causal mask: -inf where key > query.
    """

    cos_q: np.ndarray
    sin_q: np.ndarray
    cos_k: np.ndarray
    sin_k: np.ndarray
    mask: np.ndarray


def build_attention_tables(cos: np.ndarray, sin: np.ndarray, n_heads: int) -> AttentionTables:
    """The tables of `n_heads` heads from the [S, hd/2] angle tables cos/sin, in their dtype."""
    if cos.ndim != 2 or sin.shape != cos.shape or cos.dtype != sin.dtype or n_heads < 1 or cos.shape[1] < 1:
        raise ShapeError(f"attention tables: cos {cos.shape}, sin {sin.shape}, n_heads {n_heads}")
    dt = cos.dtype
    shape = (cos.shape[0], n_heads, 2, cos.shape[1])
    cos_k = np.broadcast_to(cos[:, None, None], shape).copy()
    sin_k = np.broadcast_to(np.stack([-sin, sin], axis=1)[:, None], shape).copy()
    inv = dt.type(1.0 / math.sqrt(2 * cos.shape[1]))
    mask = np.tril(np.full((ATTN_BLOCK, ATTN_BLOCK), -np.inf, dtype=dt), k=-1)
    tables = AttentionTables(cos_k * inv, sin_k * inv, cos_k, sin_k, mask)
    for t in tables:
        t.flags.writeable = False
    return tables


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Rotary position mixing of [B*S, d] rows by full-width tables of `AttentionTables`.

    With each head's columns split [x1 | x2], the result is
    x * cos + (x with each head's halves swapped) * sin
    = [x1*cos - x2*sin | x2*cos + x1*sin], a rotation per position and
    frequency, computed over whole contiguous rows. `inverse` subtracts the
    second term instead, which applies the transpose (the same bits as
    adding it with -sin); scaling both tables scales the result.
    """
    seqs = (-1, cos.size)  # one sequence per row, so the tables broadcast over a contiguous row
    swapped = x.reshape(-1, 2, cos.shape[-1])[:, ::-1].reshape(seqs)  # a copy
    swapped *= sin.reshape(-1)
    out = np.multiply(x.reshape(seqs), cos.reshape(-1))
    if inverse:
        out -= swapped
    else:
        out += swapped
    return out.reshape(x.shape)


def causal_attention(
    h: Tensor,
    gamma: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    tables: AttentionTables,
    eps: float = 1e-6,
) -> Tensor:
    """The pre-norm attention sublayer h + Attn(rope(n Wq), rope(n Wk), n Wv) Wo as one node.

    h is [B*S, d]: rows b*S..b*S+S-1 are sequence b and columns
    h*hd..h*hd+hd-1 are head h, with S, the head count and hd read from
    `tables`. n = rmsnorm(h, gamma, eps), gamma a scalar or a [d] vector;
    the four weights are [d, d]. Position i attends to positions j <= i of
    its own sequence and head.

    Queries and keys are rotated as whole [B*S, d] rows, the queries by the
    tables scaled by 1/sqrt(hd). Query rows go in blocks of ATTN_BLOCK; a
    block ending at row r1 scores only keys 0..r1-1, so the fully masked
    triangle beyond it is never computed, and only the diagonal block
    carries the -inf mask. Each block's probabilities are stored key-major,
    [keys, queries], so the softmax reduces over the second-to-last axis.
    The backward's per-query row term sum_j dP_ij P_ij is taken as
    dO_i . O_i, over head columns instead of over keys. Above PARALLEL_WORK
    (B*H*S^2) that score-softmax-value core, forward and backward, runs on
    the op threads, one contiguous chunk of sequences per worker. Above
    PARALLEL_WORK (B*S*d) the norm runs over row ranges, and the three
    projections with their rotations, the two inverse rotations, and the
    norm's three input-gradient products with the four weight gradients run
    as concurrent whole calls; the row term stays one call.

    The parents are (h, h, gamma, wq, wk, wv, wo): h's residual term g comes
    before the norm's term, and the norm's input gradient sums
    (gv Wv^T + gk Wk^T) + gq Wq^T, the order in which the unfused chain's
    tape added them, so every bit matches that chain.
    """
    ok = h.values.ndim == 2 and all(t.ndim == 4 and t.shape == tables.cos_k.shape for t in tables[:4])
    if ok:
        rows, d = h.shape
        seq_len, n_heads, two, half = tables.cos_k.shape
        ok = two == 2 and d == n_heads * 2 * half and seq_len >= 1 and rows % seq_len == 0
        ok = ok and all(w.shape == (d, d) for w in (wq, wk, wv, wo))
    if not ok:
        raise ShapeError(
            f"causal_attention: h {h.shape}, weights {[w.shape for w in (wq, wk, wv, wo)]}, "
            f"tables {tables.cos_k.shape}"
        )
    _check_gamma(gamma, d, "causal_attention")
    for w in (gamma, wq, wk, wv, wo):
        _check_same_dtype(h, w, "causal_attention")
    dt = h.dtype
    if any(t.dtype != dt for t in tables):
        raise ShapeError(f"causal_attention: mixed dtypes {dt} and {tables.cos_k.dtype} (tables)")
    b, hd = rows // seq_len, d // n_heads
    split = (b, seq_len, n_heads, hd)
    cos_q, sin_q, cos_k, sin_k, diag_mask = tables

    def heads(x: np.ndarray) -> np.ndarray:
        # [B*S, d] <-> [B, H, S, hd] as a view of a [B, S, H, hd] buffer
        return x.reshape(split).transpose(0, 2, 1, 3)

    x = h.values
    n, r = _rmsnorm_forward(x, gamma.values, eps)
    qh, kh, vh = map(
        heads,
        _tasks(
            x.size,
            lambda: _rotate(_mm(n, wq.values), cos_q, sin_q),
            lambda: _rotate(_mm(n, wk.values), cos_k, sin_k),
            lambda: _mm(n, wv.values),
        ),
    )

    att = np.empty(split, dt)
    att_h = att.transpose(0, 2, 1, 3)
    bounds = [(r0, min(r0 + ATTN_BLOCK, seq_len)) for r0 in range(0, seq_len, ATTN_BLOCK)]
    work = b * n_heads * seq_len * seq_len
    chunks = _split(b, work)  # sequences lo..hi-1 per worker

    def core(chunk):
        # the S x S part of sequences lo..hi-1: each block's key-major probabilities
        lo, hi = chunk
        q, k, v = qh[lo:hi], kh[lo:hi], vh[lo:hi]
        probs = []
        for r0, r1 in bounds:
            p = k[:, :, :r1] @ q[:, :, r0:r1].swapaxes(-1, -2)
            p[..., r0:, :] += diag_mask[: r1 - r0, : r1 - r0]
            p -= p.max(axis=-2, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-2, keepdims=True)
            np.matmul(p.swapaxes(-1, -2), v[:, :, :r1], out=att_h[lo:hi, :, r0:r1])
            probs.append(p)
        return probs

    chunk_probs = _map(core, chunks, work)
    att = att.reshape(rows, d)
    out = _mm(att, wo.values)
    out += x  # the residual

    def bw(g):
        ga = g @ wo.values.T
        gh = heads(ga)
        # the softmax row term sum_j dP_ij P_ij = dO_i . O_i, per head, as [B, H, 1, S]
        row_term = np.einsum("bshk,bshk->bhs", ga.reshape(split), att.reshape(split))[:, :, None, :]
        gq, gk, gv = (np.empty(split, dt) for _ in range(3))
        gq_h, gk_h, gv_h = (t.transpose(0, 2, 1, 3) for t in (gq, gk, gv))

        def add_keys(dst, r0, part):
            # keys 0..r0-1 hold the earlier blocks' sums; this block is the first to reach the rest
            dst[:, :, :r0] += part[:, :, :r0]
            dst[:, :, r0 : part.shape[2]] = part[:, :, r0:]

        def core_backward(chunk_and_probs):
            (lo, hi), probs = chunk_and_probs
            q, k, v, go_h, rt = qh[lo:hi], kh[lo:hi], vh[lo:hi], gh[lo:hi], row_term[lo:hi]
            for (r0, r1), p in zip(bounds, probs):
                go = go_h[:, :, r0:r1]
                add_keys(gv_h[lo:hi], r0, p @ go)
                ds = v[:, :, :r1] @ go.swapaxes(-1, -2)
                ds -= rt[..., r0:r1]
                ds *= p
                np.matmul(ds.swapaxes(-1, -2), k[:, :, :r1], out=gq_h[lo:hi, :, r0:r1])
                add_keys(gk_h[lo:hi], r0, ds @ q[:, :, r0:r1])

        _map(core_backward, list(zip(chunks, chunk_probs)), work)
        gq, gk = _tasks(
            x.size,
            lambda: _rotate(gq.reshape(rows, d), cos_q, sin_q, inverse=True),
            lambda: _rotate(gk.reshape(rows, d), cos_k, sin_k, inverse=True),
        )
        gv = gv.reshape(rows, d)
        gn, gn_k, gn_q, *w_grads = _tasks(
            x.size,
            lambda: gv @ wv.values.T,
            lambda: gk @ wk.values.T,
            lambda: gq @ wq.values.T,
            lambda: n.T @ gq,
            lambda: n.T @ gk,
            lambda: n.T @ gv,
            lambda: att.T @ g,
        )
        gn += gn_k
        gn += gn_q
        gx, ggamma = _rmsnorm_backward(gn, x, r, gamma.values)
        return g, gx, ggamma, *w_grads

    return _record(out, (h, h, gamma, wq, wk, wv, wo), bw)


# ---------------------------------------------------------------------------
# losses


def _log_softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log softmax of v, into `out` when given."""
    z = np.subtract(v, np.max(v, axis=-1, keepdims=True), out=out)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def per_token_cross_entropy(logits_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Plain-numpy per-position negative log-likelihood (no graph recording)."""
    targets = np.asarray(targets).reshape(-1)
    ls = _log_softmax(np.asarray(logits_values))
    return -ls[np.arange(len(targets)), targets]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of `targets` under row-wise softmax(logits)."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    t = logits.shape[0]
    if len(targets) != t:
        raise ShapeError(f"cross_entropy: {t} rows vs {len(targets)} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ValueError("cross_entropy: target id out of range")
    ls = np.empty(logits.shape, logits.dtype)
    _rows(_log_softmax, ls.size, logits.values, ls)
    loss = np.asarray(-ls[np.arange(t), targets].mean(), dtype=logits.dtype)

    def bw(g):
        scale = g / logits.dtype.type(t)
        p = np.empty_like(ls)

        def rows(ls, targets, p):
            np.exp(ls, out=p)
            p[np.arange(len(targets)), targets] -= 1.0
            p *= scale

        _rows(rows, ls.size, ls, targets, p)
        return (p,)

    return _record(loss, (logits,), bw)


class BalancePenalty(NamedTuple):
    """What `balance_penalty` returns for one batch of gate logits."""

    loss: Tensor  # scalar c * sum_i f_i * P_i, differentiable through P
    P: np.ndarray  # [N] mean router probability per expert, in the logits' dtype
    f: np.ndarray  # [N] float64 fraction of tokens whose most probable expert is i


def balance_penalty(logits: Tensor, c: float) -> BalancePenalty:
    """The balance penalty c * sum_i f_i * P_i of [T, N] gate logits, T >= 1, as one
    node, with P and f: P is the [N] column means ones[1, T] @ probs / T of the row
    softmax probs, and f the fraction of rows whose largest probability is at i,
    ties to the lowest index. f is taken from the probabilities, not the logits,
    because rounding can tie probabilities whose logits differ. f is constant, so
    every probs row receives the gradient c * f / T, which the backward takes
    through the softmax Jacobian.
    """
    v = logits.values
    if v.ndim != 2 or v.shape[0] == 0:
        raise ShapeError(f"balance_penalty: logits must be [T, N] with T >= 1, got {logits.shape}")
    (t, n), dt = logits.shape, logits.dtype
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    f = np.bincount(np.argmax(probs, axis=1), minlength=n).astype(np.float64) / t
    c, tc = dt.type(c), dt.type(t)
    f_row = f.reshape(1, n).astype(dt)
    p_row = _mm(np.ones((1, t), dt), probs) / tc
    loss = np.asarray((p_row * f_row).sum() * c, dtype=dt)

    def bw(g):
        gp = np.repeat((g * c) * f_row / tc, t, axis=0)
        return (probs * (gp - np.sum(gp * probs, axis=-1, keepdims=True)),)

    return BalancePenalty(_record(loss, (logits,), bw), p_row[0], f)


# ---------------------------------------------------------------------------
# gradient oracle


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar f at x, coordinate by coordinate.

    Evaluates in float64 regardless of x's dtype; the result carries x's shape.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad: h must be positive")
    base = x.values.astype(np.float64)
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f(Tensor(base.copy(), dtype=np.float64)))
        flat[i] = orig - h
        dn = float(f(Tensor(base.copy(), dtype=np.float64)))
        flat[i] = orig
        gflat[i] = (up - dn) / (2.0 * h)
    return Tensor(g, dtype=np.float64)
