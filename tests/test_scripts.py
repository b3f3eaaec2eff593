"""scripts/reproduce.py runs the experiment through the CLI alone, and no script reaches past it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _reproduce(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce.py"), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One `reproduce.py --steps 2 --seeds 1` run, shared by the tests that read its tables."""
    return _reproduce("--steps", "2", "--seeds", "1", "--out", str(tmp_path_factory.mktemp("reproduce")))


def test_reproduce_smoke(smoke):
    r = smoke
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len([line for line in lines if re.match(r"seed \d+ +\d+\.\d{4} +\d+\.\d{4} +[+-]\d+\.\d{4}$", line)]) == 1
    assert len([line for line in lines if line.startswith("mean difference ")]) == 1
    assert len([line for line in lines if line.startswith("alpha=")]) == 4
    placement = [line for line in lines if line.startswith("D=")]
    assert len(placement) == 12
    pairwise = [line for line in placement if line.split()[1] == "pairwise"]
    assert [line.split()[0] for line in pairwise] == ["D=1", "D=2", "D=4"]
    assert all(line.endswith("(equal)") for line in pairwise)
    # the window is the last quarter of the steps, at least the last step
    assert r.stdout.count("over the last 1 of 2 steps") == 2


# each experiment that had a script of its own prints its row in reproduce.py's tables
@pytest.mark.parametrize(
    "row",
    [
        r"D=4 size-sorted +\[283115520, 283115520, 283115520, 283115520\] \(equal\)",
        r"seed 0 +\d+\.\d{4} +\d+\.\d{4} +[+-]\d+\.\d{4}",
        r"alpha=0\.01 +(\d+\.\d{3}|inf) +final f \[\[.*\]\]",
        # the "final quarter" of a 2-step run is its last step, not both steps
        r"Balance, seed 0: mean top-1 max/min ratio of per_layer_f over the last 1 of 2 steps, and the final f",
    ],
    ids=["placement_demo", "train_toy", "balance_effect", "balance_effect_window"],
)
def test_script_runs(smoke, row):
    assert smoke.returncode == 0, smoke.stderr
    assert any(re.fullmatch(row, line) for line in smoke.stdout.splitlines()), smoke.stdout


def test_reproduce_stops_with_the_failing_command_and_its_code(tmp_path):
    out = tmp_path / "a-file"
    out.write_text("")  # no run directory can be made under a file
    r = _reproduce("--steps", "1", "--seeds", "1", "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert re.search(r"reproduce: `modse train .*` exited 2", r.stderr)


def test_scripts_import_only_the_cli():
    # a script that calls the library directly is a second path beside the CLI
    assert SCRIPTS
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "modse":
                modules = [f"modse.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            bad = [m for m in modules if m.split(".")[0] == "modse" and m != "modse.cli"]
            assert not bad, f"{path.name}:{node.lineno} imports {bad}"
