"""Timing hooks that the benchmark installs on modse from the outside.

Every hook replaces one module or class attribute of the program for the
duration of one command and puts the original back afterwards, so nothing
under src/ changes or knows it is measured. Functions that other modules
import by name (``from .model import transformer_forward``) are wrapped in
the namespace of the module that calls them.

Two levels exist:

* ``StepClock`` is the only timing hook of an untraced run. It stamps the
  start of every training step (``Batcher.next_batch``) and the end of the
  loop (the checkpoint save that follows it), which gives per-step wall
  times and the time from a command's start to its first step. (``LastTrace``
  only keeps the trace `modse analyze` loaded, for the output check.)
* ``LayerTracer`` is the traced run. It times the public functions of each
  layer, every listed tensor op's forward call and the backward closure the
  op hands to the tape, and counts the nodes the tape records.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import modse.cli
import modse.data
import modse.gradcheck
import modse.manifest
import modse.model
import modse.moe
import modse.placement
import modse.tensor
import modse.trace
import modse.train

now = time.perf_counter

# ops whose forward call and backward closure are timed separately
TENSOR_OPS = (
    "causal_attention",
    "matmul",
    "apply_rope",
    "slice_cols",
    "concat_cols",
    "gather_rows",
    "scatter_rows",
    "gather_pairs",
    "scale_rows",
    "add",
    "mul",
    "silu",
    "rmsnorm",
    "softmax",
    "cross_entropy",
)

GRADCHECK_SUITES = ("tensor_ops", "gate", "moe_layer", "balance_loss", "end_to_end")


class Patches:
    """Replaces attributes and restores them in reverse order.

    An attribute the program no longer has (an op fused away by a later
    change, say) is skipped, so its metrics read zero instead of the
    benchmark failing.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        orig = getattr(owner, name, None)
        if orig is None:
            return
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def restore(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


@contextmanager
def installed(*installers):
    """Apply each installer's patches for the duration of the block."""
    patches = Patches()
    try:
        for install in installers:
            install(patches)
        yield
    finally:
        patches.restore()


class StepClock:
    """Start stamps of the training steps of one `modse train` command."""

    def __init__(self):
        self.marks: list[float] = []
        self.end: float | None = None

    def install(self, p: Patches) -> None:
        def make_next_batch(orig):
            def next_batch(batcher):
                self.marks.append(now())
                return orig(batcher)

            return next_batch

        def make_save(orig):
            def save_checkpoint(*a, **kw):
                if self.end is None:
                    self.end = now()
                return orig(*a, **kw)

            return save_checkpoint

        p.wrap(modse.data.Batcher, "next_batch", make_next_batch)
        p.wrap(modse.train, "save_checkpoint", make_save)

    def step_seconds(self) -> list[float]:
        if not self.marks or self.end is None:
            return []
        edges = self.marks + [self.end]
        return [b - a for a, b in zip(edges, edges[1:])]


class LastTrace:
    """Keeps the trace `modse analyze` loaded, so the output check need not parse it again."""

    def __init__(self):
        self.trace = None

    def install(self, p: Patches) -> None:
        def make(orig):
            def read_trace(path):
                self.trace = orig(path)
                return self.trace

            return read_trace

        p.wrap(modse.cli, "read_trace", make)


class LayerTracer:
    """Per-layer busy time, call counts and sizes, accumulated over many commands."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, float] = defaultdict(float)  # records, bytes or rows behind a key
        self.expert_samples: list[tuple[int, float]] = []  # (rows * width, seconds)
        self.nodes = 0
        self._ops: list[str] = []
        self._batch_ready: float | None = None
        self._opt_start: float | None = None

    def add(self, key: str, seconds: float, amount: float = 0.0) -> None:
        self.seconds[key] += seconds
        self.calls[key] += 1
        self.amount[key] += amount

    def timer(self, key: str):
        def make(orig):
            def timed(*a, **kw):
                t0 = now()
                try:
                    return orig(*a, **kw)
                finally:
                    self.add(key, now() - t0)

            return timed

        return make

    # -- training ---------------------------------------------------------

    def install_train(self, p: Patches) -> None:
        for op in TENSOR_OPS:
            p.wrap(modse.tensor, op, self._op_timer(op))
        p.wrap(modse.tensor, "_record", self._recorder)
        p.wrap(modse.tensor, "backward", self._backward)
        p.wrap(modse.train, "transformer_forward", self.timer("model.forward"))
        p.wrap(modse.model, "moe_layer_forward", self.timer("moe.layer"))
        p.wrap(modse.moe, "gate_forward", self.timer("moe.gate"))
        p.wrap(modse.moe, "expert_forward", self._expert)
        p.wrap(modse.train, "balance_loss", self.timer("balance.loss"))
        p.wrap(modse.train, "clip_global_norm", self._clip)
        p.wrap(modse.train, "adam_step", self._adam)
        p.wrap(modse.data.Batcher, "next_batch", self._next_batch)
        p.wrap(modse.train, "save_checkpoint", self.timer("checkpoint.save"))
        p.wrap(modse.manifest.RunOutputs, "commit", self.timer("manifest.commit"))
        p.wrap(modse.trace.TraceWriter, "write", self._trace_write)

    def _op_timer(self, op: str):
        def make(orig):
            def op_call(*a, **kw):
                self._ops.append(op)
                t0 = now()
                try:
                    return orig(*a, **kw)
                finally:
                    self.add(f"tensor.{op}.fwd", now() - t0)
                    self._ops.pop()

            return op_call

        return make

    def _recorder(self, orig):
        def record(values, parents, backward_fn):
            self.nodes += 1
            if self._ops and backward_fn is not None:
                backward_fn = self.timer(f"tensor.{self._ops[-1]}.bwd")(backward_fn)
            return orig(values, parents, backward_fn)

        return record

    def _backward(self, orig):
        def backward(loss):
            t0 = now()
            if self._batch_ready is not None:
                self.add("train.fwd", t0 - self._batch_ready)
                self._batch_ready = None
            try:
                return orig(loss)
            finally:
                self.add("tensor.backward", now() - t0)

        return backward

    def _next_batch(self, orig):
        def next_batch(batcher):
            t0 = now()
            try:
                return orig(batcher)
            finally:
                self._batch_ready = now()
                self.add("data.next_batch", self._batch_ready - t0)

        return next_batch

    def _expert(self, orig):
        def expert_forward(e, x):
            t0 = now()
            try:
                return orig(e, x)
            finally:
                dt = now() - t0
                rows = x.shape[0]
                self.add("moe.expert", dt, rows)
                self.expert_samples.append((rows * e.hidden_size, dt))

        return expert_forward

    def _clip(self, orig):
        def clip_global_norm(*a, **kw):
            self._opt_start = t0 = now()
            try:
                return orig(*a, **kw)
            finally:
                self.add("optim.clip", now() - t0)

        return clip_global_norm

    def _adam(self, orig):
        def adam_step(*a, **kw):
            t0 = now()
            try:
                return orig(*a, **kw)
            finally:
                t1 = now()
                self.add("optim.adam", t1 - t0)
                if self._opt_start is not None:
                    self.add("train.opt", t1 - self._opt_start)
                    self._opt_start = None

        return adam_step

    def _trace_write(self, orig):
        def write(writer, records):
            t0 = now()
            try:
                return orig(writer, records)
            finally:
                fmt = "bin" if writer.binary else "jsonl"
                self.add(f"trace.write.{fmt}", now() - t0, len(records))

        return write

    # -- trace files, analytics, placement, gradcheck -----------------------

    def install_analyze(self, p: Patches) -> None:
        p.wrap(modse.cli, "read_trace", self._read)
        p.wrap(modse.cli, "count_routing", self.timer("analytics.count_routing"))
        p.wrap(modse.cli, "emit_heatmap", self.timer("analytics.heatmap"))
        p.wrap(
            modse.cli,
            "difficult_token_expert_distribution",
            self.timer("analytics.difficult_dist"),
        )

    def install_trace_io(self, p: Patches) -> None:
        p.wrap(modse.trace, "read_trace", self._read)
        p.wrap(modse.trace.TraceWriter, "write", self._trace_write)

    def install_placement(self, p: Patches) -> None:
        p.wrap(modse.placement, "evaluate_workload", self.timer("placement.evaluate_workload"))

    def install_gradcheck(self, p: Patches) -> None:
        for suite in GRADCHECK_SUITES:
            p.wrap(modse.gradcheck, f"check_{suite}", self.timer(f"gradcheck.{suite}"))

    def _read(self, orig):
        def read_trace(path):
            t0 = now()
            trace = orig(path)
            fmt = "bin" if str(path).endswith(".bin") else "jsonl"
            self.add(f"trace.read.{fmt}", now() - t0, len(trace))
            return trace

        return read_trace
