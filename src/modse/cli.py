"""One executable, five subcommands: train, plan, analyze, gradcheck, gen-data.

Exit codes are a stable scripting contract: 0 success, 1 usage or config
problem, 2 runtime/IO failure, 3 verification (gradcheck) failure. Logs go
to stderr at the level set by MODSE_LOG (debug|info|warn); machine-readable
results go to stdout or into the --out directory, which also receives a
manifest with digests of every file the command produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import gradcheck
from .analytics import (
    AlignmentError,
    count_routing,
    counts_csv,
    difficult_token_expert_distribution,
    difficult_token_table,
    distribution_csv,
    emit_heatmap,
    format_ratio,
    thresholds_csv,
)
from .data import load_text_corpus, synthetic_corpus, synthetic_docs
from .manifest import RunOutputs
from .model import ModelConfig
from .optim import OptimizerConfig
from .placement import STRATEGIES, DeviceModel, plan_baselines, plan_pairwise
from .trace import read_trace
from .train import train

log = logging.getLogger("modse")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

THRESHOLD_LADDER = (2.0, 1.8, 1.6, 1.4, 1.2)


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; our contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class ConfigError(ValueError):
    pass


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}.get(
        os.environ.get("MODSE_LOG", "warn").lower(), logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> tuple[ModelConfig, OptimizerConfig]:
    if path is None:
        return ModelConfig(), OptimizerConfig()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON, nesting too deep
        raise ConfigError(f"{path}: not a UTF-8 JSON config: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - {"model", "optimizer"}
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
    try:
        model = ModelConfig.from_dict(raw.get("model", {}))
        opt = OptimizerConfig.from_dict(raw.get("optimizer", {}))
    except (TypeError, ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return model, opt


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args, argv: list[str]) -> int:
    cfg, opt = _load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.ratios:
        cfg.expert_ratios = args.ratios
    if args.alpha is not None:
        try:
            opt = dataclasses.replace(opt, alpha=args.alpha)
        except ValueError as e:
            raise ConfigError(f"--alpha: {e}") from e
    steps = args.steps if args.steps is not None else opt.total_steps
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")

    if args.data:
        corpus = load_text_corpus(args.data)
    else:
        corpus = synthetic_corpus(cfg.seed)
    log.info("training %d steps on %d tokens (out: %s)", steps, len(corpus), args.out)

    with RunOutputs(args.out, argv, {"model": cfg.to_dict(), "optimizer": opt.__dict__}, cfg.seed) as run:
        trace_path = run.stage(args.trace) if args.trace else None
        records, weights = train(
            cfg,
            opt,
            corpus,
            steps,
            trace_out=trace_path,
            metrics_out=run.stage("metrics.jsonl"),
            checkpoint_out=run.stage("checkpoint.bin"),
            trace_binary=bool(args.trace and args.trace.endswith(".bin")),
        )
    summary = {
        "steps": steps,
        "final_ce": records[-1].ce_loss if records else None,
        "out": str(args.out),
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_plan(args, argv: list[str]) -> int:
    cfg, _ = _load_config(args.config)
    spec = cfg.expert_spec()
    devices = DeviceModel(args.devices)
    if args.strategy == "pairwise":
        plan = plan_pairwise(spec, cfg.n_layers, devices)
    else:
        plan = plan_baselines(spec, cfg.n_layers, devices, args.strategy, order=args.order)

    with RunOutputs(args.out, argv, {"model": cfg.to_dict()}, cfg.seed) as run:
        plan.save(run.stage("plan.json"))
    for dev, params in enumerate(plan.per_device_params):
        print(f"device {dev}: {params} parameters")
    return EXIT_OK


# Every byte a loss row may hold, and the row end: decimal digits, the field comma, signs, points and exponents.
_ROW_BYTES = b"0123456789,+-.eE\n"
_LOSS_DTYPE = np.dtype([("token_index", np.int64), ("loss", np.float64)])


def _read_loss_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Token ids and losses of a loss CSV, or AlignmentError naming the path and line.

    The one form read is what `np.savetxt(fmt=["%d", "%.6f"])` writes under
    the header line `token_index,loss`: one or more rows of `_ROW_BYTES`,
    split at "\\n" (the last may lack it), each token id once. One loadtxt
    parses them; only a file it or the id and loss checks refuse is read
    row by row, to name its first bad line.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise AlignmentError(f"{path}: not UTF-8 text: {e}") from e
    header, _, body = text.partition("\n")
    if not body:
        raise AlignmentError(f"{path}: no loss rows")
    if header != "token_index,loss":
        raise AlignmentError(f"{path}:1: header {header!r} is not 'token_index,loss'")
    rows = body.removesuffix("\n").split("\n")
    if "" not in rows and not body.encode().translate(None, _ROW_BYTES):  # loadtxt would skip a blank row
        try:
            ids, losses = np.loadtxt(rows, dtype=_LOSS_DTYPE, delimiter=",", comments=None, ndmin=1, unpack=True)
        except ValueError:
            pass
        else:
            if (ids >= 0).all() and np.isfinite(losses).all():
                _refuse_repeated_ids(path, ids)
                return ids.copy(), losses.copy()  # contiguous, not views into the two-field table
    for line, row in enumerate(rows, start=2):
        try:
            tok, loss = row.split(",")
            tok, loss = int(tok), float(loss)
        except ValueError:
            raise AlignmentError(f"{path}:{line}: bad loss row {row!r}") from None
        if not 0 <= tok < 2**63:
            raise AlignmentError(f"{path}:{line}: token index {tok} out of range")
        if not math.isfinite(loss):
            raise AlignmentError(f"{path}:{line}: non-finite loss {loss}")
        if row.encode().translate(None, _ROW_BYTES):
            raise AlignmentError(f"{path}:{line}: bad loss row {row!r}")
    raise AlignmentError(f"{path}: rows loadtxt refuses")


def _refuse_repeated_ids(path: str, ids: np.ndarray) -> None:
    """AlignmentError naming the first row whose token id an earlier row already holds."""
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        first = int(np.argmax(ids == ids[i]))
        raise AlignmentError(f"{path}:{i + 2}: token index {ids[i]} repeats line {first + 2}")


def cmd_analyze(args, argv: list[str]) -> int:
    if (args.losses_baseline is None) != (args.losses_modse is None):
        raise ConfigError("--losses-baseline and --losses-modse must be given together")
    trace = read_trace(args.trace)
    if len(trace) == 0:
        raise ConfigError("empty trace")
    sizes = list(trace.header.expert_sizes)
    table = count_routing(trace)

    with RunOutputs(args.out, argv, {"trace": str(args.trace)}, None) as run:
        run.stage("counts.csv").write_text(counts_csv(table, sizes), encoding="utf-8")
        for r in table.rows:
            print(f"epoch {r.epoch} layer {r.layer} rank {r.rank} max/min: {format_ratio(r.ratio)}")

        if args.losses_baseline:
            base_ids, base = _read_loss_csv(args.losses_baseline)
            modse_ids, other = _read_loss_csv(args.losses_modse)
            if base_ids.shape != modse_ids.shape or (base_ids != modse_ids).any():
                raise AlignmentError("loss files do not cover the same tokens in the same order")
            mean = float(base.mean())
            thresholds = sorted({*THRESHOLD_LADDER, round(mean, 6)}, reverse=True)
            rows = difficult_token_table(base, other, thresholds)
            run.stage("thresholds.csv").write_text(thresholds_csv(rows), encoding="utf-8")

            report = difficult_token_expert_distribution(trace, base_ids[base > mean])
            run.stage("distribution.csv").write_text(distribution_csv(report), encoding="utf-8")
            grid = report.per_layer_top1
        else:
            # routing heatmap: rank-0 counts per (layer, expert), summed over epochs
            grid = table.counts[:, :, 0].sum(axis=0)

        emit_heatmap(grid, run.stage("heatmap.csv"), run.stage("heatmap.svg"), sizes)
    return EXIT_OK


def cmd_gradcheck(args, argv: list[str]) -> int:
    results = gradcheck.run_all(args.scale)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{r.name}: worst rel err {r.worst_err:.3e} (tol {r.tol:.0e}) {status}")
    if args.out:
        with RunOutputs(args.out, argv, {"scale": args.scale}, None) as run:
            payload = [
                dict(suite=r.name, worst_err=r.worst_err, per_item=r.per_item, tol=r.tol, passed=r.passed)
                for r in results
            ]
            run.stage("gradcheck.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_gen_data(args, argv: list[str]) -> int:
    if args.docs < 1:
        raise ConfigError(f"--docs must be >= 1, got {args.docs}")
    if args.max_depth < 1:
        raise ConfigError(f"--max-depth must be >= 1, got {args.max_depth}")
    docs = synthetic_docs(args.seed, n_docs=args.docs, max_depth=args.max_depth)
    with RunOutputs(args.out, argv, {"seed": args.seed, "docs": args.docs}, args.seed) as run:
        run.stage("corpus.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")
    print(json.dumps({"docs": len(docs), "out": str(args.out)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    p = _Parser(prog="modse", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train", help="train the toy model")
    t.add_argument("--config", help="JSON config with 'model'/'optimizer' sections")
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int)
    t.add_argument("--ratios", choices=["homogeneous"], help="every expert h_base wide, not the config's ratios")
    t.add_argument("--alpha", type=float, help="balance-loss weight override")
    t.add_argument("--trace", help="routing-trace filename ('.bin' suffix selects binary format)")
    t.add_argument("--out", default="modse-run", help="output directory")
    t.add_argument("--data", nargs="+", help="UTF-8 text corpus files (default: synthetic)")
    t.set_defaults(func=cmd_train)

    pl = sub.add_parser("plan", help="assign experts to logical devices")
    pl.add_argument("--config", help="JSON config (model section)")
    pl.add_argument("--devices", type=int, required=True)
    pl.add_argument("--strategy", default="pairwise", choices=STRATEGIES)
    pl.add_argument("--order", default="as_is", choices=["as_is", "descending"], help="expert order for naive_contiguous")
    pl.add_argument("--out", default="modse-plan", help="output directory")
    pl.set_defaults(func=cmd_plan)

    a = sub.add_parser("analyze", help="run routing-trace analyses")
    a.add_argument("trace", help="trace file (JSONL or binary)")
    a.add_argument("--losses-baseline", help="per-token loss CSV of the uniform-experts model")
    a.add_argument("--losses-modse", help="per-token loss CSV of the diverse-experts model")
    a.add_argument("--out", default="modse-analysis", help="output directory")
    a.set_defaults(func=cmd_analyze)

    g = sub.add_parser("gradcheck", help="finite-difference verification suites")
    g.add_argument("--scale", default="micro", choices=["micro", "small"])
    g.add_argument("--out", help="optional output directory for the report")
    g.set_defaults(func=cmd_gradcheck)

    gd = sub.add_parser("gen-data", help="emit the synthetic corpus")
    gd.add_argument("--seed", type=int, default=0)
    gd.add_argument("--docs", type=int, default=4000)
    gd.add_argument("--max-depth", type=int, default=4)
    gd.add_argument("--out", default="modse-data", help="output directory")
    gd.set_defaults(func=cmd_gen_data)
    return p


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, ["modse", *argv])
    except ValueError as e:  # ConfigError, PlanningError, TraceFormatError and AlignmentError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # noqa: BLE001 - last-resort runtime mapping
        log.debug("unexpected failure", exc_info=True)
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    raise SystemExit(main())
