#!/usr/bin/env python3
"""Run the paper's three comparisons through the modse CLI and print one table each.

1. Paired vs homogeneous widths: for each seed, `modse train` on
   configs/toy.json as is and with `--ratios homogeneous`; the mean ce_loss
   of each over the last quarter of the steps (at least the last step), and
   paired minus homogeneous, seed by seed.
2. Balance: on the first seed, one run per `--alpha`; over the same window,
   the median of the per-(step, layer) top-1 max/min ratios of per_layer_f
   (inf for a cell where some expert got no top-1 token), the share of such
   cells, and the final f.
3. Placement: `modse plan` on configs/moe_300m.json for each device count and
   strategy; the per-device parameters and whether they are equal.

Every number is read from the run directories under --out. The CLI's own
stdout goes to stderr, so stdout holds only the tables. A command that exits
non-zero stops the script with that exit code.

Usage: python scripts/reproduce.py [--steps 200] [--seeds 8] [--out runs/reproduce]
"""

import argparse
import contextlib
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from modse.cli import main as modse

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ARMS = (("paired", ()), ("homogeneous", ("--ratios", "homogeneous")))
ALPHAS = ("0", "0.001", "0.01", "0.1")
PLANS = (
    ("pairwise", ("--strategy", "pairwise")),
    ("contiguous", ("--strategy", "naive_contiguous")),
    ("contiguous-descending", ("--strategy", "naive_contiguous", "--order", "descending")),
    ("size-sorted", ("--strategy", "size_sorted")),
)


def run(*argv: str) -> None:
    """`modse argv` in this process; a non-zero exit ends the script with that code."""
    with contextlib.redirect_stdout(sys.stderr):
        code = modse(list(argv))
    if code:
        print(f"reproduce: `modse {shlex.join(argv)}` exited {code}", file=sys.stderr)
        raise SystemExit(code)


def train(out: Path, seed: int, steps: int, last: int, *extra: str) -> list[dict]:
    """The last `last` metrics.jsonl records of one `modse train` run on the toy config."""
    run("train", "--config", str(CONFIGS / "toy.json"), "--seed", str(seed), "--steps", str(steps), *extra,
        "--out", str(out))
    with open(out / "metrics.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh][-last:]


def top1_ratio(f: np.ndarray) -> float:
    return float(f.max() / f.min()) if f.min() > 0 else np.inf


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--steps", type=int, default=200, help="training steps per run")
    ap.add_argument("--seeds", type=int, default=8, help="train seeds 0..N-1 in both arms")
    ap.add_argument("--out", type=Path, default=Path("runs/reproduce"), help="directory for every run's outputs")
    args = ap.parse_args()
    if min(args.steps, args.seeds) < 1:
        ap.error("--steps and --seeds must be >= 1")
    last = max(1, args.steps // 4)
    window = f"the last {last} of {args.steps} steps"

    print(f"Paired vs homogeneous widths, configs/toy.json: mean ce_loss over {window}")
    print(f"{'':8s} {'paired':>8s} {'homogeneous':>12s} {'difference':>11s}")
    diffs = []
    for seed in range(args.seeds):
        paired, homog = (
            np.mean([r["ce_loss"] for r in train(args.out / f"{arm}-s{seed}", seed, args.steps, last, *extra)])
            for arm, extra in ARMS
        )
        diffs.append(paired - homog)
        print(f"seed {seed:<3d} {paired:8.4f} {homog:12.4f} {diffs[-1]:+11.4f}")
    d = np.array(diffs)
    print(
        f"mean difference {d.mean():+.4f}, spread {d.min():+.4f} to {d.max():+.4f}; "
        f"{(d < 0).sum()} of {len(d)} seeds favour paired, {(d > 0).sum()} favour homogeneous"
    )

    print(
        f"\nBalance, seed 0: median top-1 max/min ratio of per_layer_f over {window}, "
        "share of (step, layer) cells where some expert got no top-1 token, and the final f"
    )
    print(f"{'':12s} {'median':>8s} {'no-top-1':>8s}")
    for alpha in ALPHAS:
        records = train(args.out / f"alpha-{alpha}-s0", 0, args.steps, last, "--alpha", alpha)
        ratios = np.array([top1_ratio(f) for r in records for f in np.array(r["per_layer_f"])])
        print(
            f"alpha={alpha:<6s} {np.median(ratios):8.3f} {np.isinf(ratios).mean():8.3f}   "
            f"final f {np.round(records[-1]['per_layer_f'], 3).tolist()}"
        )

    print("\nPlacement, configs/moe_300m.json: parameters per device")
    for devices in (1, 2, 4):
        for name, strategy in PLANS:
            out = args.out / f"plan-D{devices}-{name}"
            run("plan", "--config", str(CONFIGS / "moe_300m.json"), "--devices", str(devices), *strategy,
                "--out", str(out))
            params = json.loads((out / "plan.json").read_text(encoding="utf-8"))["per_device_params"]
            print(f"D={devices} {name:22s} {params} ({'equal' if len(set(params)) == 1 else 'UNEQUAL'})")


if __name__ == "__main__":
    main()
