"""Single-file checkpoints: one JSON header line, then raw float32 buffers.

The header lists tensor names and shapes in order; the body is each tensor's
little-endian float32 bytes, row-major, concatenated in that order. Metadata
(model config, expert sizes) rides along in the header.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .tensor import Tensor


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, weights: dict[str, Tensor], meta: dict) -> None:
    header = {
        "format": "modse-ckpt",
        "version": 1,
        "meta": meta,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in weights.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for t in weights.values():
            fh.write(np.ascontiguousarray(t.values, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], dict]:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line)
        except (ValueError, RecursionError) as e:  # JSON or UTF-8 errors
            raise CheckpointError(f"{path}: bad checkpoint header: {e}") from e
        if not isinstance(header, dict) or header.get("format") != "modse-ckpt":
            raise CheckpointError(f"{path}: not a checkpoint file")
        entries, meta = header.get("tensors"), header.get("meta")
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise CheckpointError(f"{path}: header needs a 'tensors' list and a 'meta' object")
        weights: dict[str, Tensor] = {}
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        for i, entry in enumerate(entries):
            try:
                name, shape = entry["name"], entry["shape"]
            except (KeyError, TypeError) as e:
                raise CheckpointError(f"{path}: tensor entry {i} needs a 'name' and an integer 'shape'") from e
            # JSON integers only: `type(n) is int` turns away floats and bools, which int() would cast
            if not isinstance(shape, list) or not all(type(n) is int for n in shape):
                raise CheckpointError(f"{path}: tensor entry {i} needs a 'name' and an integer 'shape', got {shape!r}")
            shape = tuple(shape)
            if not isinstance(name, str):
                raise CheckpointError(f"{path}: tensor entry {i} has a non-string name {name!r}")
            if name in weights:
                raise CheckpointError(f"{path}: tensor entry {i} repeats the name {name!r}")
            if min(shape, default=0) < 0:
                raise CheckpointError(f"{path}: tensor entry {i} has a negative shape {shape}")
            nbytes = 4 * math.prod(shape)
            if nbytes > remaining:  # checked before reading, so a huge shape allocates nothing
                raise CheckpointError(f"{path}: truncated buffer for {name}")
            remaining -= nbytes
            try:
                arr = np.frombuffer(fh.read(nbytes), dtype="<f4").reshape(shape)
            except ValueError as e:  # an empty tensor with a dimension numpy cannot hold
                raise CheckpointError(f"{path}: tensor entry {i} has an unusable shape {shape}: {e}") from e
            weights[name] = Tensor(arr.copy(), requires_grad=True, dtype=np.float32)
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return weights, meta
