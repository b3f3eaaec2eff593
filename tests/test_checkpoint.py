import json

import numpy as np
import pytest

from modse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from modse.tensor import Tensor


def small_weights():
    rng = np.random.default_rng(0)
    return {
        "a": Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
        "b.gamma": Tensor(np.asarray(1.0, dtype=np.float32), requires_grad=True),
        "c": Tensor(rng.normal(size=(2,)).astype(np.float32), requires_grad=True),
    }


def test_roundtrip_exact(tmp_path):
    w = small_weights()
    p = tmp_path / "ck.bin"
    save_checkpoint(p, w, meta={"note": 1})
    loaded, meta = load_checkpoint(p)
    assert meta == {"note": 1}
    assert list(loaded) == list(w)
    for name in w:
        assert np.array_equal(loaded[name].values, w[name].values)
        assert loaded[name].values.dtype == np.float32


def test_header_is_single_json_line_then_raw_floats(tmp_path):
    w = small_weights()
    p = tmp_path / "ck.bin"
    save_checkpoint(p, w, meta={})
    raw = p.read_bytes()
    line, _, body = raw.partition(b"\n")
    header = json.loads(line)
    assert header["format"] == "modse-ckpt"
    total = sum(int(np.prod(e["shape"])) if e["shape"] else 1 for e in header["tensors"])
    assert len(body) == 4 * total
    first = np.frombuffer(body[: w["a"].size * 4], dtype="<f4").reshape(3, 4)
    assert np.array_equal(first, w["a"].values)


def test_truncated_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, small_weights(), meta={})
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, small_weights(), meta={})
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(p)


def test_wrong_format_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(p)


@pytest.mark.parametrize("missing", ["tensors", "meta"])
def test_header_without_section_rejected(tmp_path, missing):
    p = tmp_path / "ck.bin"
    header = {"format": "modse-ckpt", "version": 1, "meta": {}, "tensors": []}
    del header[missing]
    p.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(CheckpointError, match="'tensors' list and a 'meta' object"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "a"},
        {"shape": [2]},
        {"name": "a", "shape": ["x"]},
        {"name": "a", "shape": [-1, -2]},
        {"name": ["a"], "shape": [2]},
        {"name": "a", "shape": [float("inf")]},
        {"name": "a", "shape": [0, 10**30]},
        {"name": "a", "shape": [2.9]},
        {"name": "a", "shape": [2.0]},
        {"name": "a", "shape": [True, 2]},
        {"name": "a", "shape": "2"},
        ["a", [2]],
    ],
)
def test_bad_tensor_entry_rejected(tmp_path, entry):
    p = tmp_path / "ck.bin"
    header = {"format": "modse-ckpt", "version": 1, "meta": {}, "tensors": [entry]}
    p.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 8)
    with pytest.raises(CheckpointError, match="tensor entry 0"):
        load_checkpoint(p)


def test_repeated_tensor_name_rejected(tmp_path):
    # enough bytes for both: without the check the second "a" would replace the first
    p = tmp_path / "ck.bin"
    entries = [{"name": "a", "shape": [2]}, {"name": "a", "shape": [3]}]
    header = {"format": "modse-ckpt", "version": 1, "meta": {}, "tensors": entries}
    p.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 20)
    with pytest.raises(CheckpointError, match="tensor entry 1 repeats the name 'a'"):
        load_checkpoint(p)


@pytest.mark.parametrize("shape", [[4 * 10**12, 4 * 10**12], [2**62, 4], [10**20]])
def test_shape_larger_than_the_file_rejected(tmp_path, shape):
    p = tmp_path / "ck.bin"
    header = {"format": "modse-ckpt", "version": 1, "meta": {}, "tensors": [{"name": "a", "shape": shape}]}
    p.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * 8)
    with pytest.raises(CheckpointError, match="truncated buffer for a"):
        load_checkpoint(p)


def test_invalid_utf8_header_rejected(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(b'{"format": "modse-ckpt\xff"}\n')
    with pytest.raises(CheckpointError, match="bad checkpoint header"):
        load_checkpoint(p)
