"""Benchmark of modse: one workload per process, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing. The seed generates the inputs (the training
corpus and the per-token loss files); the program receives only those. The
run sets up, drives the `modse` CLI in a closed loop for about S seconds,
checks every output, and prints notes followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
their times scaled to a reference host speed (see workloads.py); with
``--trace 1`` they are the per-layer ones, measured by timing hooks that
wrap the program's functions from outside, plus the tracing overhead.
``--smoke`` runs the same rounds on the micro model with a few steps, to
show the harness works; its timings mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the training loop is single-threaded Python around small matmuls; one BLAS
# thread keeps the load to one core whatever the machine's core count
BLAS_THREADS = "1"


def machine_shape() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="micro-size rounds, no timing meaning")
    args = ap.parse_args(argv)

    if not (SRC / "modse" / "__init__.py").is_file():
        print(f"error: no modse sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads, so pin it before any import
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke_variant(workload)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out = workloads.run(workload, args.seed, args.seconds, bool(args.trace), work, SRC)

    print("# machine " + json.dumps(machine_shape()))
    for name, m in out["result"]["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    for note in out["notes"]:
        print(f"# {note}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
