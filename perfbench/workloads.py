"""The benchmark's workloads: generated inputs, closed-loop rounds and output checks.

A run drives the `modse` CLI in-process (``modse.cli.main``), one command at
a time: a command starts only when the previous one has returned, so the
load is one closed-loop client. Four kinds of round exist:

* train: ``modse train`` for a fixed number of steps, untraced;
* trace: ``modse train --trace trace.jsonl``, then an analyze round on that
  trace, then ``placement.evaluate_workload`` for all three strategies, then
  a check that the JSONL trace and a binary rewrite of it give identical
  ``count_routing`` tables;
* analyze: ``modse analyze`` on the latest trace, with per-token loss files;
* gradcheck: ``modse gradcheck --scale micro``.

Each workload runs its opening rounds once and then repeats its loop of
rounds until the time is up, so that every end-to-end metric is measured on
every workload. Training always starts from the config's seeded weights, so
every command of a kind ends on the same loss, bit for bit.

A shared host's speed drifts by a third and more, in spells of seconds to
minutes, and a slow spell slows everything that runs in it, so that a whole
run can be a fifth slower than the one before it. Two things keep the timing
metrics steady:

* right after each command a fixed piece of reference work is timed, and the
  command's times are scaled by ``REFERENCE_S`` over that time: a time then
  reads as it would on a host where the reference work takes ``REFERENCE_S``,
  and the host's drift between and within runs largely cancels;
* each timing metric averages many short samples spread over the whole run.

The notes printed with a result give the host scale and, beside each mean,
the median and a tail of the same scaled samples.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import modse.analytics
import modse.cli
import modse.placement
import modse.trace
from modse.model import ModelConfig
from probes import GRADCHECK_SUITES, TENSOR_OPS, LastTrace, LayerTracer, StepClock, installed, now

# configs/toy.json, copied so that the benchmark's inputs stay fixed
TOY_MODEL = {
    "dim": 64,
    "n_layers": 2,
    "n_heads": 4,
    "n_experts": 8,
    "top_k": 2,
    "vocab_size": 258,
    "h_base": 160,
    "expert_ratios": [[4.5, 0.5], [4.0, 1.0], [3.0, 2.0], [2.5, 2.5]],
    "seq_len": 256,
    "batch_size": 16,
    "seed": 0,
}
TOY_OPTIMIZER = {
    "warmup_steps": 50,
    "total_steps": 500,
    "lr_init": 2e-7,
    "lr_peak": 3e-4,
    "lr_min": 3e-5,
    "alpha": 0.01,
}
# the gradcheck micro model, with the byte vocabulary the corpus needs and a
# batch of 128 tokens, so that the loss it ends on hardly depends on the seed
MICRO_MODEL = {
    "dim": 16,
    "n_layers": 1,
    "n_heads": 2,
    "n_experts": 4,
    "top_k": 2,
    "vocab_size": 258,
    "h_base": 8,
    "expert_ratios": [[0.75, 0.25], [0.5, 0.5]],
    "seq_len": 16,
    "batch_size": 8,
    "seed": 3,
}

STRATEGIES = ("pairwise", "naive_contiguous", "size_sorted")
DEVICES = 2
IMPORT_REPEATS = 7
REFERENCE_S = 0.050  # the reference work's time on a quiet 2-vCPU Xeon VM, which every time is scaled to


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    loop: tuple[str, ...]  # rounds repeated until the time is up
    opening: tuple[str, ...]  # rounds run once before the loop
    train_steps: int  # steps per untraced `modse train`
    traced_steps: int  # steps per `modse train --trace`
    tail_pct: int  # step-time percentile printed as the tail, if ten samples lie beyond it

    @property
    def step_round(self) -> str:
        """The round whose training steps give the step and token metrics."""
        return "trace" if "trace" in self.loop else "train"

    @property
    def step_round_steps(self) -> int:
        return self.traced_steps if self.step_round == "trace" else self.train_steps


# BENCHMARK.json gives the reason each workload was chosen. Short train
# commands with an analyze round after each spread both kinds of sample over
# the whole run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-long-seq",
            model=TOY_MODEL,
            loop=("train", "analyze"),
            opening=("trace",),
            train_steps=2,
            traced_steps=2,
            tail_pct=90,
        ),
        Workload(
            name="train-short-seq",
            model={**TOY_MODEL, "batch_size": 128, "seq_len": 32},
            loop=("train", "analyze"),
            opening=("trace",),
            train_steps=2,
            traced_steps=2,
            tail_pct=90,
        ),
        Workload(
            name="trace-analyze",
            model=TOY_MODEL,
            loop=("trace", "analyze", "analyze"),
            opening=(),
            train_steps=3,
            traced_steps=2,
            tail_pct=70,
        ),
        Workload(
            name="train-micro",
            model=MICRO_MODEL,
            loop=("train", "analyze"),
            opening=("gradcheck", "trace"),
            train_steps=100,
            traced_steps=8,
            tail_pct=95,
        ),
    )
}


def smoke_variant(w: Workload) -> Workload:
    """The same rounds on the micro model with a handful of steps; no timing meaning."""
    return Workload(
        name=w.name,
        model=MICRO_MODEL,
        loop=w.loop,
        opening=w.opening,
        train_steps=3,
        traced_steps=2,
        tail_pct=w.tail_pct,
    )


# ---------------------------------------------------------------------------
# generated inputs


def make_corpus(seed: int, n_docs: int = 4000, max_depth: int = 4) -> str:
    """Nested bracketed arithmetic, one expression per line, from the workload seed."""
    rng = np.random.default_rng([seed, 0x6D6F6473])

    def expression(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.3:
            return str(int(rng.integers(0, 100)))
        left, right = expression(depth - 1), expression(depth - 1)
        return f"({left}{'+-*/'[int(rng.integers(0, 4))]}{right})"

    return "\n".join(expression(int(rng.integers(1, max_depth + 1))) for _ in range(n_docs)) + "\n"


def write_loss_csvs(seed: int, n_tokens: int, base_path: Path, modse_path: Path) -> None:
    """Per-token losses for the trace's token ids 0..n_tokens-1, as `analyze --losses-*` reads them."""
    rng = np.random.default_rng([seed, 0x6C6F7373])
    base = rng.lognormal(0.5, 0.6, n_tokens)
    other = base * rng.uniform(0.85, 1.05, n_tokens)
    ids = np.arange(n_tokens)
    for path, losses in ((base_path, base), (modse_path, other)):
        rows = np.column_stack([ids, losses])
        np.savetxt(path, rows, fmt=["%d", "%.6f"], delimiter=",", header="token_index,loss", comments="")


# The reference work: a fixed mix like the program's own, numpy on arrays of
# the toy model's sizes, many numpy calls on arrays of the micro model's
# sizes, and Python objects from parsed JSON lines, so that it slows as the
# program does when the host is busy.
_REF_RNG = np.random.default_rng(0)
_REF_ROWS = _REF_RNG.standard_normal((4096, 64))
_REF_W = _REF_RNG.standard_normal((64, 160))
_REF_SCORES = _REF_RNG.standard_normal((16, 4, 128, 128))
_REF_SMALL = _REF_RNG.standard_normal((16, 16))
_REF_LINES = [
    json.dumps({"step": i, "layer": i % 2, "token": 7 * i, "rank": i % 2, "expert": i % 8, "weight": 0.5})
    for i in range(3000)
]


def host_scale() -> float:
    """REFERENCE_S over the reference work's time now: the factor that scales a time just measured."""
    t0 = now()
    h = _REF_ROWS @ _REF_W
    h = h / (1.0 + np.exp(-h))
    h.T @ _REF_ROWS
    e = np.exp(_REF_SCORES - _REF_SCORES.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    x = _REF_SMALL
    for _ in range(1200):
        y = x @ _REF_SMALL
        x = np.tanh(y * 0.1) + x.sum(axis=1, keepdims=True) * 1e-3
    counts: dict[tuple[int, int], int] = {}
    for line in _REF_LINES:
        rec = json.loads(line)
        key = (rec["layer"], rec["expert"])
        counts[key] = counts.get(key, 0) + 1
    return REFERENCE_S / (now() - t0)


def import_seconds(src: Path) -> float:
    """Median scaled wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = now()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import modse.cli"], env=env, check=True)
        t1 = now()
        times.append(host_scale() * (t1 - t0))
    return float(np.median(times))


def count_rows(table) -> list[tuple]:
    return [(r.epoch, r.layer, r.rank, r.counts.tolist()) for r in table.rows]


# ---------------------------------------------------------------------------
# the closed loop


class Runner:
    """Issues one workload's commands, times them from outside and checks their outputs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.tracer: LayerTracer | None = None
        self.steps: list[float] = []  # step seconds of the step round
        self.bare_steps: list[float] = []  # the same, from untraced rounds of a traced run
        self.first_step: list[float] = []  # command start -> first step, per step-round command
        self.commands: list[tuple[int, float]] = []  # (tokens trained, wall time) per step-round command
        self.host: list[float] = []  # host_scale() after each command
        self.analyze_s: list[float] = []
        self.gradcheck_s: list[float] = []
        self.final_ce: dict[tuple[str, int], float] = {}  # (round kind, steps) -> loss
        self.attempted = 0
        self.failures: list[str] = []
        # traced-run bookkeeping
        self.traced_train_steps = 0  # all training steps run under the tracer
        self.trace_written_steps = 0  # of those, steps that wrote a routing trace
        self.bytes_per_record: dict[str, float] = {}
        self.flop_imbalance: dict[str, float] = {}

    # -- set-up --------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.corpus = self.work / "corpus.txt"
        self.corpus.write_text(make_corpus(self.seed), encoding="utf-8")
        self.config = self.work / "model.json"
        self.config.write_text(json.dumps({"model": self.w.model, "optimizer": TOY_OPTIMIZER}), encoding="utf-8")
        self.cfg = ModelConfig.from_dict(self.w.model)
        self.trace_path = self.work / "trace-run" / "trace.jsonl"
        tokens = self.w.traced_steps * self.cfg.batch_size * self.cfg.seq_len
        self.losses = (self.work / "losses-baseline.csv", self.work / "losses-modse.csv")
        write_loss_csvs(self.seed, tokens, *self.losses)

    def warm_up(self) -> None:
        """One untimed single-step command of the step round, so lazy set-up is done."""
        saved = self.steps, self.first_step, self.commands
        self.steps, self.first_step, self.commands = [], [], []
        self.train(traced=self.w.step_round == "trace", steps=1)
        self.steps, self.first_step, self.commands = saved

    # -- checks and commands -------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, argv: list[str], *installers) -> tuple[int, str, float, float, float]:
        """Run one command; returns its exit code, stdout, start and end, and the host scale after it."""
        buf = io.StringIO()
        with installed(*installers), redirect_stdout(buf):
            t0 = now()
            rc = modse.cli.main([str(a) for a in argv])
            t1 = now()
        self.check(rc == 0, f"modse {argv[0]} exited {rc}")
        self.host.append(host_scale())
        return rc, buf.getvalue(), t0, t1, self.host[-1]

    def round(self, kind: str) -> None:
        rounds = {
            "train": self.train,
            "trace": self.trace_round,
            "analyze": self.analyze,
            "gradcheck": self.gradcheck,
            "bare": self.bare,
        }
        rounds[kind]()

    def bare(self) -> None:
        """The step round with the tracer off: the baseline the tracing overhead is taken against."""
        tracer, steps = self.tracer, self.steps
        self.tracer, self.steps = None, []
        try:
            self.round(self.w.step_round)
        finally:
            self.bare_steps += self.steps
            self.tracer, self.steps = tracer, steps

    def train(self, traced: bool = False, steps: int | None = None) -> None:
        steps = steps or (self.w.traced_steps if traced else self.w.train_steps)
        kind = "trace" if traced else "train"
        out = self.work / f"{kind}-run"
        argv = ["train", "--config", self.config, "--data", self.corpus, "--steps", steps, "--out", out]
        if traced:
            argv += ["--trace", "trace.jsonl"]
        clock = StepClock()
        installers = [clock.install] + ([self.tracer.install_train] if self.tracer else [])
        rc, stdout, t0, t1, host = self.cli(argv, *installers)
        if rc != 0:
            return
        ce = json.loads(stdout.strip().splitlines()[-1])["final_ce"]
        if not self.check(ce is not None and math.isfinite(ce), f"non-finite loss {ce}"):
            return
        self.check(self.final_ce.setdefault((kind, steps), ce) == ce, f"{kind} run of {steps} steps not deterministic")
        step_s = clock.step_seconds()
        if not self.check(len(step_s) == steps, f"{len(step_s)} of {steps} steps seen"):
            return
        if kind == self.w.step_round:
            self.steps += [host * s for s in step_s]
            self.first_step.append(host * (clock.marks[0] - t0))
            self.commands.append((steps * self.cfg.batch_size * self.cfg.seq_len, host * (t1 - t0)))
        if self.tracer:
            self.traced_train_steps += steps
            self.trace_written_steps += steps if traced else 0

    def analyze(self):
        """`modse analyze` on the latest trace; returns the trace it loaded, or None."""
        stash = LastTrace()
        hooks = [stash.install] + ([self.tracer.install_analyze] if self.tracer else [])
        argv = ["analyze", self.trace_path, "--losses-baseline", self.losses[0], "--losses-modse", self.losses[1]]
        rc, _, t0, t1, host = self.cli(argv + ["--out", self.work / "analysis"], *hooks)
        if rc != 0:
            return None
        self.analyze_s.append(host * (t1 - t0))
        return stash.trace

    def trace_round(self) -> None:
        self.train(traced=True)
        trace = self.analyze()
        if trace is None:
            return

        bin_path = self.work / "trace.bin"
        with installed(*([self.tracer.install_trace_io] if self.tracer else [])):
            modse.trace.write_trace(bin_path, trace, binary=True)
            reread = modse.trace.read_trace(bin_path)
        self.check(
            count_rows(modse.analytics.count_routing(trace)) == count_rows(modse.analytics.count_routing(reread)),
            "JSONL trace and its binary rewrite give different count tables",
        )
        for fmt, path in (("jsonl", self.trace_path), ("bin", bin_path)):
            self.bytes_per_record[fmt] = path.stat().st_size / len(trace)

        spec = self.cfg.expert_spec()
        devices = modse.placement.DeviceModel(DEVICES)
        layers = self.cfg.n_layers
        plans = [modse.placement.plan_pairwise(spec, layers, devices)] + [
            modse.placement.plan_baselines(spec, layers, devices, s) for s in STRATEGIES[1:]
        ]
        with installed(*([self.tracer.install_placement] if self.tracer else [])):
            reports = {p.strategy: modse.placement.evaluate_workload(p, trace, spec) for p in plans}
        # the token x width work is the same whichever device does it
        total = int(np.asarray(spec.expert_sizes, dtype=np.int64)[trace.records["expert"].astype(np.int64)].sum())
        for strategy, report in reports.items():
            self.check(sum(report.per_device_flop_proxy) == total, f"{strategy} placement loses work")
            self.flop_imbalance[strategy] = report.imbalance_ratio

    def gradcheck(self) -> None:
        hooks = [self.tracer.install_gradcheck] if self.tracer else []
        rc, stdout, t0, t1, host = self.cli(["gradcheck", "--scale", "micro"], *hooks)
        self.gradcheck_s.append(host * (t1 - t0))
        verdicts = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        for suite in GRADCHECK_SUITES:
            self.check(verdicts.get(suite, "").endswith("PASS"), f"gradcheck suite {suite} failed")

    # -- timed phases --------------------------------------------------------

    def run_for(self, seconds: float, opening: tuple[str, ...], loop: tuple[str, ...]) -> None:
        """`opening` rounds once, then `loop` at least once and again while a pass still fits."""
        end = now() + seconds
        for kind in opening:
            self.round(kind)
        while True:
            t0 = now()
            for kind in loop:
                self.round(kind)
            t1 = now()
            if t1 + (t1 - t0) > end:
                break


# ---------------------------------------------------------------------------
# metrics


def _median(xs: list[float]) -> float:
    return float(np.median(xs)) if xs else math.nan


def _mean(xs: list[float]) -> float:
    return float(np.mean(xs)) if xs else math.nan


def tail_percentile(n: int, wanted: int) -> int:
    """`wanted`, or the highest lower multiple of 5 that leaves ten samples beyond it."""
    pct = wanted
    while pct > 50 and n * (100 - pct) / 100 < 10:
        pct -= 5
    return pct


def end_to_end(r: Runner, import_s: float) -> tuple[dict, list[str]]:
    steps = np.asarray(r.steps or [math.nan])
    pct = tail_percentile(len(steps), r.w.tail_pct)
    tokens = r.cfg.batch_size * r.cfg.seq_len
    ce = r.final_ce.get((r.w.step_round, r.w.step_round_steps), math.nan)
    trained, train_s = np.asarray(r.commands or [(0, math.nan)]).sum(axis=0)
    metrics = {
        "setup_s": (import_s + _median(r.first_step), "s"),
        "train_tokens_per_s": (trained / train_s, "tokens/s"),
        "step_s_mean": (_mean(r.steps), "s"),
        "ce_final": (float(ce), "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "analyze_s": (_mean(r.analyze_s), "s"),
    }
    host = np.percentile(r.host, [25, 50, 75]) if r.host else [math.nan] * 3
    notes = [
        f"host scale after {len(r.host)} commands: quartiles {host[0]:.4f} {host[1]:.4f} {host[2]:.4f} "
        f"(times are scaled to a host where the reference work takes {REFERENCE_S * 1e3:.0f} ms)",
        f"step samples {len(steps)}: p50 {np.median(steps):.4f} s, p{pct} {np.percentile(steps, pct):.4f} s",
        f"train_tokens_per_s: {len(r.commands)} train commands of {r.w.step_round_steps} steps, "
        f"{tokens} tokens each, timed start to return",
        f"analyze samples {len(r.analyze_s)}: p50 {_median(r.analyze_s):.4f} s",
        f"setup_s = import {import_s:.4f} s (median of {IMPORT_REPEATS}) + command start to first step "
        f"(median of {len(r.first_step)})",
    ]
    if r.gradcheck_s:
        notes.append(f"gradcheck --scale micro {_median(r.gradcheck_s):.3f} s (median of {len(r.gradcheck_s)})")
    return metrics, notes


def _fit(samples: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope (us per row x width) and R^2 of expert time against rows x width."""
    if len(samples) < 3:
        return 0.0, 0.0
    x = np.asarray([s[0] for s in samples], dtype=np.float64)
    y = np.asarray([s[1] for s in samples], dtype=np.float64) * 1e6
    if np.ptp(x) == 0:
        return 0.0, 0.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    return float(slope), (1.0 - float((resid**2).sum()) / total) if total > 0 else 0.0


def per_layer(r: Runner) -> tuple[dict, list[str]]:
    t = r.tracer
    n = max(r.traced_train_steps, 1)

    def ms_per_step(key: str) -> float:
        return 1e3 * t.seconds.get(key, 0.0) / n

    def ms_per_call(key: str) -> float:
        calls = t.calls.get(key, 0)
        return 1e3 * t.seconds[key] / calls if calls else 0.0

    def rate(key: str) -> float:
        s = t.seconds.get(key, 0.0)
        return t.amount[key] / s if s > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    op_bwd = 0.0
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = (ms_per_step(f"tensor.{op}.fwd"), "ms")
        m[f"tensor.{op}.bwd_ms"] = (ms_per_step(f"tensor.{op}.bwd"), "ms")
        m[f"tensor.{op}.calls"] = (t.calls.get(f"tensor.{op}.fwd", 0) / n, "count")
        op_bwd += t.seconds.get(f"tensor.{op}.bwd", 0.0)
    # the tape's own time: the backward walk minus the listed ops' closures
    m["tensor.backward_ms"] = (1e3 * (t.seconds.get("tensor.backward", 0.0) - op_bwd) / n, "ms")
    m["tensor.nodes_per_step"] = (t.nodes / n, "count")

    layer, gate, expert = (ms_per_step(k) for k in ("moe.layer", "moe.gate", "moe.expert"))
    slope, r2 = _fit(t.expert_samples)
    m.update(
        {
            "moe.layer_fwd_ms": (layer, "ms"),
            "moe.gate_fwd_ms": (gate, "ms"),
            "moe.expert_fwd_ms": (expert, "ms"),
            "moe.dispatch_self_ms": (layer - gate - expert, "ms"),
            "moe.routed_rows_per_step": (t.amount.get("moe.expert", 0.0) / n, "count"),
            "moe.expert_us_per_row_width": (slope, "us"),
            "moe.expert_cost_r2": (r2, "1"),
            "balance.loss_ms": (ms_per_step("balance.loss"), "ms"),
            "optim.clip_ms": (ms_per_step("optim.clip"), "ms"),
            "optim.adam_ms": (ms_per_step("optim.adam"), "ms"),
            "data.next_batch_ms": (ms_per_step("data.next_batch"), "ms"),
            "model.forward_ms": (ms_per_step("model.forward"), "ms"),
            "train.fwd_ms": (ms_per_step("train.fwd"), "ms"),
            "train.bwd_ms": (ms_per_step("tensor.backward"), "ms"),
            "train.opt_ms": (ms_per_step("train.opt"), "ms"),
            "trace.write_ms_per_step": (
                1e3 * t.seconds.get("trace.write.jsonl", 0.0) / max(r.trace_written_steps, 1),
                "ms",
            ),
        }
    )
    for fmt in ("jsonl", "bin"):
        m[f"trace.read_records_per_s.{fmt}"] = (rate(f"trace.read.{fmt}"), "1/s")
        m[f"trace.write_records_per_s.{fmt}"] = (rate(f"trace.write.{fmt}"), "1/s")
        m[f"trace.bytes_per_record.{fmt}"] = (r.bytes_per_record.get(fmt, 0.0), "B")
    m.update(
        {
            "analytics.count_routing_ms": (ms_per_call("analytics.count_routing"), "ms"),
            "analytics.heatmap_ms": (ms_per_call("analytics.heatmap"), "ms"),
            "analytics.difficult_dist_ms": (ms_per_call("analytics.difficult_dist"), "ms"),
            "placement.evaluate_workload_ms": (ms_per_call("placement.evaluate_workload"), "ms"),
        }
    )
    for strategy in STRATEGIES:
        m[f"placement.flop_imbalance.{strategy}"] = (r.flop_imbalance.get(strategy, 0.0), "1")
    m["checkpoint.save_ms"] = (ms_per_call("checkpoint.save"), "ms")
    m["manifest.commit_ms"] = (ms_per_call("manifest.commit"), "ms")
    for suite in GRADCHECK_SUITES:
        m[f"gradcheck.{suite}_s"] = (ms_per_call(f"gradcheck.{suite}") / 1e3, "s")
    traced_s, untraced_s = _mean(r.steps), _mean(r.bare_steps)
    m["tracing.overhead_step_s"] = (traced_s - untraced_s, "s")
    notes = [
        f"traced run: {r.traced_train_steps} instrumented training steps; mean step "
        f"{traced_s:.4f} s traced vs {untraced_s:.4f} s untraced "
        f"({len(r.steps)} and {len(r.bare_steps)} samples, from interleaved rounds)",
        f"expert cost fit over {len(t.expert_samples)} expert calls",
    ]
    return m, notes


# ---------------------------------------------------------------------------
# one run


def run(workload: Workload, seed: int, seconds: float, traced: bool, work: Path, src: Path) -> dict:
    """Set up, measure for `seconds`, check; returns the result object and notes."""
    r = Runner(workload, seed, work)
    try:
        r.prepare()
        import_s = import_seconds(src)
        r.warm_up()
        if traced:
            # untraced step rounds interleave with the traced loop, so both see the same host speed
            # and the gradcheck suites run once, for their per-suite times
            r.tracer = LayerTracer()
            opening = workload.opening + (() if "gradcheck" in workload.opening else ("gradcheck",))
            r.run_for(seconds, opening, ("bare",) + workload.loop)
            metrics, notes = per_layer(r)
        else:
            r.run_for(seconds, workload.opening, workload.loop)
            metrics, notes = end_to_end(r, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, (value, unit) in metrics.items():
        # a metric with nothing behind it means a round failed, which is already counted
        if not math.isfinite(value):
            r.check(False, f"{name} has no finite value")
            metrics[name] = (0.0, unit)
    notes.append(f"error_rate {len(r.failures)}/{r.attempted} operations failed")
    notes += [f"failed: {f}" for f in r.failures]
    result = {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "notes": notes}
