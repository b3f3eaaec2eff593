"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] --runs 10 [--first-seed 100]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric of BENCHMARK.json its median, quartiles and the distance
between the quartiles as a share of the median (Python's
``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound. ``--out FILE`` also writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i, bench["run_seconds"], args.trace)
            runs.append({"seed": args.first_seed + i, "wall_s": wall, **result})
            print(f"{workload} seed {args.first_seed + i}: {wall:.1f} s wall, correct={result['correct']}",
                  file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs, wall median {statistics.median(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            limit = f"{bound / 3:.4f}" if bound else "-"
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound/3 {limit}{flag}")
        report[workload] = runs
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
