"""The example scripts under scripts/ still run against the package: each exits 0 and prints its last line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv,last_line",
    [
        (
            ["placement_demo.py"],
            r"  size-sorted greedy         -> \[35389440, 35389440, 35389440, 35389440\] \(equal\)",
        ),
        (["train_toy.py", "--steps", "2"], r"final ce \d+\.\d{4} \(started \d+\.\d{4}\)"),
        (["balance_effect.py", "--steps", "2", "--alphas", "0", "0.01"], r"alpha=0.01 +mean top-1 max/min ratio .*"),
        # the "final quarter" of a 2-step run is its last step, not both steps
        (
            ["balance_effect.py", "--steps", "2", "--alphas", "0"],
            r"alpha=0 +mean top-1 max/min ratio over the last 1 of 2 steps .*",
        ),
    ],
    ids=["placement_demo", "train_toy", "balance_effect", "balance_effect_window"],
)
def test_script_runs(argv, last_line):
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert r.returncode == 0, r.stderr
    assert re.fullmatch(last_line, r.stdout.rstrip("\n").splitlines()[-1])
