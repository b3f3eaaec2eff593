"""Run manifests and atomic output staging.

Commands write their primary outputs inside a `with RunOutputs(...)` block:
files are produced under temporary names and renamed into place only when
the whole block has succeeded, so a failed run leaves no partial outputs.
The manifest (command line, config snapshot, seed, version, the numpy and
BLAS build with the BLAS thread variables, whether numpy loaded before the
package set them, the core count and the fused ops' worker count, the
allocator settings training made, timestamps, sha256 digests of every
emitted file) is written last.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, NUMPY_LOADED_FIRST, __version__
from .tensor import worker_count
from .train import heap_policy

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def version_string() -> str:
    """git-describe of the source tree when available, else the package version; computed once per process."""
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


@functools.cache
def runtime_info() -> dict:
    """What a run's bits depend on beyond its config and seed: the numpy version, the
    BLAS library numpy was built against, the BLAS thread variables as this process
    sees them (importing the package sets each unset one to "1"), whether numpy was
    loaded before the package (then BLAS read the variables before that, and may run
    on every core whatever they say now) and the core count; computed once per
    process."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy_loaded_first": NUMPY_LOADED_FIRST,
        "cpu_count": os.cpu_count(),
    }


def _iso(t: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t)) + "Z"


class RunOutputs:
    """Stages a command's output files in `out_dir` and commits them atomically."""

    def __init__(self, out_dir: str | Path, command: list[str], config: dict, seed: int | None):
        self.out_dir = Path(out_dir)
        self._made_dir = not self.out_dir.exists()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.command = list(command)
        self.config = config
        self.seed = seed
        self._staged: dict[str, Path] = {}
        self._t0 = time.time()

    def stage(self, name: str) -> Path:
        """Temporary path for output file `name`; renamed into place on commit.

        `name` must be a bare file name inside `out_dir`, neither the
        manifest's nor one already staged, so no output lands elsewhere or
        silently replaces another.
        """
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"output name {name!r}: must be a bare file name inside {self.out_dir}")
        if name == MANIFEST_NAME or name in self._staged:
            raise ValueError(f"output name {name!r}: already an output of this command")
        tmp = self.out_dir / f".{name}.tmp"
        self._staged[name] = tmp
        return tmp

    def commit(self) -> dict:
        digests: dict[str, str] = {}  # filename -> sha256
        for name, tmp in self._staged.items():
            final = self.out_dir / name
            tmp.replace(final)
            digests[name] = sha256_file(final)
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": version_string(),
            # not cached: a training run may set the heap policy later, and the affinity may change
            "runtime": {**runtime_info(), "workers": worker_count(), "heap": heap_policy()},
            "started_at": _iso(self._t0),
            "finished_at": _iso(time.time()),
            "outputs": digests,
        }
        tmp = self.out_dir / f".{MANIFEST_NAME}.tmp"
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(self.out_dir / MANIFEST_NAME)
        return manifest

    def __enter__(self) -> "RunOutputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Commit if the block succeeded; abort if it or the commit raised, letting the error through."""
        if exc_type is not None:
            self.abort()
            return
        try:
            self.commit()
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Delete staged files, and `out_dir` too if this run created it and it is empty."""
        for tmp in self._staged.values():
            tmp.unlink(missing_ok=True)
        self._staged.clear()
        if self._made_dir:
            try:
                self.out_dir.rmdir()
            except OSError:  # something else was written there meanwhile
                pass
