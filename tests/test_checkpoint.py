import json

import numpy as np
import pytest

from modse import cli
from modse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from modse.gradcheck import micro_config
from modse.model import init_weights, param_shapes


def micro_checkpoint(path, steps=3):
    cfg = micro_config()
    weights = init_weights(cfg)
    save_checkpoint(path, cfg, weights, steps)
    return cfg, weights


def micro_body(tmp_path):
    """The float32 body of a micro-config checkpoint: the right size for `micro_config()`."""
    p = tmp_path / "body.ckpt"
    micro_checkpoint(p)
    return p.read_bytes().partition(b"\n")[2]


def write_checkpoint(path, body, **fields):
    """A version-2 header for `micro_config()`, with `fields` replacing its entries, then `body`."""
    header = {"format": "modse-ckpt", "version": 2, "config": micro_config().to_dict(), "steps": 0, **fields}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return path


def test_roundtrip_exact(tmp_path):
    p = tmp_path / "ck.bin"
    cfg, w = micro_checkpoint(p)
    loaded_cfg, loaded, steps = load_checkpoint(p)
    assert loaded_cfg == cfg
    assert steps == 3
    assert list(loaded) == list(w)
    for name in w:
        assert np.array_equal(loaded[name].values, w[name].values)
        assert loaded[name].values.dtype == np.float32
        assert loaded[name].requires_grad


def test_roundtrip_through_modse_train(tmp_path, monkeypatch):
    returned = []

    def recording_train(*args, **kwargs):
        returned.append(cli_train(*args, **kwargs))
        return returned[-1]

    cli_train = cli.train
    monkeypatch.setattr(cli, "train", recording_train)
    model = {**micro_config().to_dict(), "vocab_size": 258, "seq_len": 8, "batch_size": 2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model}))
    assert cli.main(["train", "--config", str(config), "--steps", "2", "--out", str(tmp_path / "run")]) == 0

    cfg, weights, steps = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    assert cfg.to_dict() == model
    assert steps == 2
    (_, trained), = returned
    assert list(weights) == list(trained)
    for name, t in trained.items():
        assert weights[name].shape == t.shape
        assert weights[name].values.tobytes() == t.values.tobytes(), name


def test_header_is_single_json_line_then_raw_floats(tmp_path):
    p = tmp_path / "ck.bin"
    cfg, w = micro_checkpoint(p, steps=0)
    line, _, body = p.read_bytes().partition(b"\n")
    header = json.loads(line)
    assert header == {"format": "modse-ckpt", "version": 2, "config": cfg.to_dict(), "steps": 0}
    assert len(body) == 4 * sum(t.size for t in w.values())
    assert body == b"".join(w[name].values.astype("<f4").tobytes() for name in param_shapes(cfg))


def test_truncated_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    micro_checkpoint(p)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="body holds"):
        load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    micro_checkpoint(p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="body holds"):
        load_checkpoint(p)


def test_wrong_format_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(p)


def test_version_1_file_is_rejected_naming_its_version(tmp_path):
    # the version-1 layout: the header listed each tensor, and the config rode in an untyped "meta" object
    cfg, w = micro_config(), init_weights(micro_config())
    tensors = [{"name": name, "shape": list(t.shape)} for name, t in w.items()]
    header = {"format": "modse-ckpt", "version": 1, "meta": {"config": cfg.to_dict(), "steps": 0}, "tensors": tensors}
    body = b"".join(t.values.astype("<f4").tobytes() for t in w.values())
    p = tmp_path / "ck.bin"
    p.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1: only version 2"):
        load_checkpoint(p)


@pytest.mark.parametrize("version", [None, 3, 2.0, True, "2"])
def test_header_version_must_be_the_integer_2(tmp_path, version):
    p = write_checkpoint(tmp_path / "ck.bin", micro_body(tmp_path), version=version)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(p)


@pytest.mark.parametrize("missing", ["config", "steps"])
def test_header_without_field_rejected(tmp_path, missing):
    header = {"format": "modse-ckpt", "version": 2, "config": micro_config().to_dict(), "steps": 0}
    del header[missing]
    p = tmp_path / "ck.bin"
    p.write_bytes(json.dumps(header).encode() + b"\n" + micro_body(tmp_path))
    with pytest.raises(CheckpointError, match=missing):
        load_checkpoint(p)


@pytest.mark.parametrize("steps", [-1, 2.0, True, "3", [3]])
def test_steps_must_be_a_non_negative_integer(tmp_path, steps):
    p = write_checkpoint(tmp_path / "ck.bin", micro_body(tmp_path), steps=steps)
    with pytest.raises(CheckpointError, match="'steps' must be an integer >= 0"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "config",
    [
        {"dim": "x"},
        {"dim": -2},
        {"dim": 16.5},
        {"dim": 16.0},
        {"dim": True},
        {"n_layers": 0},
        {"expert_ratios": 5},
        {"expert_ratios": [[0.75], [0.5, 0.5]]},
        {"expert_ratios": [[0.75, 0.5], [0.5, 0.5]]},  # ModelConfig takes it; param_shapes refuses the pair sum
        {"h_base": 10**400},  # a width beyond float range: param_shapes raises OverflowError
        {"name": "a"},
        [16],
    ],
)
def test_bad_config_rejected(tmp_path, config):
    config = {**micro_config().to_dict(), **config} if isinstance(config, dict) else config
    p = write_checkpoint(tmp_path / "ck.bin", micro_body(tmp_path), config=config)
    with pytest.raises(CheckpointError, match="bad model config"):
        load_checkpoint(p)


@pytest.mark.parametrize("shape", [[4 * 10**12, 4 * 10**12], [2**62, 4], [10**20, 16]])
def test_shape_larger_than_the_file_rejected(tmp_path, shape):
    # the embedding is [vocab_size, dim]; the body's size is checked before any array is made
    vocab_size, dim = shape
    config = {**micro_config().to_dict(), "vocab_size": vocab_size, "dim": dim, "h_base": dim // 2}
    p = write_checkpoint(tmp_path / "ck.bin", micro_body(tmp_path), config=config)
    with pytest.raises(CheckpointError, match="body holds"):
        load_checkpoint(p)


def test_more_layers_than_the_body_can_hold_rejected_before_listing_shapes(tmp_path):
    config = {**micro_config().to_dict(), "n_layers": 10**12}
    p = write_checkpoint(tmp_path / "ck.bin", micro_body(tmp_path), config=config)
    with pytest.raises(CheckpointError, match="cannot fit"):
        load_checkpoint(p)


def test_invalid_utf8_header_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(b'{"format": "modse-ckpt\xff"}\n')
    with pytest.raises(CheckpointError, match="bad checkpoint header"):
        load_checkpoint(p)
