"""Let the `python -m modse` subprocesses some tests start import the same package the tests do.

`pythonpath = ["src"]` in pyproject.toml puts the package on the test
process's import path only; a child process reads PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
