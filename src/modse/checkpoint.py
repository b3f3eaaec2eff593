"""Single-file checkpoints: one JSON header line, then one float32 body.

The header is `{format, version, config, steps}`. The model config fixes
every weight's name and shape (`model.param_shapes`), so the body is just
each weight's little-endian float32 bytes, row-major, concatenated in that
order. A version-1 file, whose header listed the tensors itself, is refused.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .model import ModelConfig, param_shapes
from .tensor import Tensor

FORMAT = "modse-ckpt"
VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, cfg: ModelConfig, weights: dict[str, Tensor], steps: int) -> None:
    header = {"format": FORMAT, "version": VERSION, "config": cfg.to_dict(), "steps": steps}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in param_shapes(cfg):
            fh.write(np.ascontiguousarray(weights[name].values, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, Tensor], int]:
    """The config, the weights (views of one float32 buffer) and the step count of a checkpoint."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except (ValueError, RecursionError) as e:  # JSON or UTF-8 errors
            raise CheckpointError(f"{path}: bad checkpoint header: {e}") from e
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, steps = header.get("version"), header.get("steps")
        if type(version) is not int or version != VERSION:  # `type(v) is int` also turns away 2.0 and True
            raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}: only version {VERSION} is read")
        if type(steps) is not int or steps < 0:
            raise CheckpointError(f"{path}: header field 'steps' must be an integer >= 0, got {steps!r}")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            cfg = ModelConfig.from_dict(header.get("config"))
            # each layer holds 3 * n_experts expert weights of at least one float each, so a config
            # that needs more than the body holds is refused before its shapes are listed
            if 12 * cfg.n_layers * cfg.n_experts > body:
                raise ValueError(f"{cfg.n_layers} layers of {cfg.n_experts} experts cannot fit in {body} bytes")
            shapes = param_shapes(cfg)
        except (KeyError, TypeError, ValueError, OverflowError) as e:  # OverflowError: a width beyond float range
            raise CheckpointError(f"{path}: bad model config: {e}") from e
        sizes = [math.prod(shape) for shape in shapes.values()]
        if body != 4 * sum(sizes):  # checked before reading, so a huge config allocates nothing
            raise CheckpointError(f"{path}: body holds {body} bytes, the config's weights need {4 * sum(sizes)}")
        flat = np.fromfile(fh, dtype="<f4")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    weights = {name: Tensor(part.reshape(shape), requires_grad=True) for (name, shape), part in zip(shapes.items(), parts)}
    return cfg, weights, steps
