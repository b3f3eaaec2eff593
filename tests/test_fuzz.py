"""Byte-level fuzzing of the trace, checkpoint, config and loss CSV readers.

Flipped, deleted or inserted bytes in a valid file must either load or raise
the reader's typed error (`TraceFormatError`, `CheckpointError`,
`ConfigError`, `AlignmentError`), never another exception. An edited loss
CSV must load exactly as the per-line reader of its one form below does, or
raise naming the line where that reader first rejects it. An edited JSONL
trace must load if and only if the per-line reader below loads it and every
record line is the line the writer writes for that record, and then to the
same records.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse import trace
from modse.analytics import AlignmentError
from modse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from modse.cli import ConfigError, _load_config, _read_loss_csv
from modse.gradcheck import micro_config
from modse.model import ModelConfig, init_weights
from modse.optim import OptimizerConfig
from modse.trace import (
    RECORD_DTYPE,
    RoutingTrace,
    TraceFormatError,
    TraceHeader,
    make_records,
    read_trace,
    write_trace,
)

# (kind, position modulo the length, bytes)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "delete", "insert"]),
        st.integers(0, 2**16),
        st.binary(min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=3,
)


def apply_edits(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, chunk in edits:
        pos %= max(len(out), 1)
        if kind == "insert":
            out[pos:pos] = chunk
        elif kind == "delete":
            del out[pos : pos + len(chunk)]
        elif out:
            out[pos] ^= chunk[0] or 1
    return bytes(out)


def reference_read_jsonl(path):
    """The per-line reader: one json.loads per line, every record field a JSON integer."""
    # lines end at "\n" alone: str.splitlines would also break at U+0085 or U+2028 inside a string,
    # and Path.read_text would turn a "\r" into a line break
    lines = path.read_bytes().decode("utf-8").removesuffix("\n").split("\n")
    header = TraceHeader.from_dict(json.loads(lines[0]))
    records = np.zeros(len(lines) - 1, dtype=RECORD_DTYPE)
    for i, line in enumerate(lines[1:]):
        obj = json.loads(line)
        records[i] = row = tuple(obj[name] for name in RECORD_DTYPE.names)
        if not all(type(v) is int for v in row):
            raise ValueError(f"record {i}: fields {row} are not all integers")
    return RoutingTrace(header, records)


def writer_lines(records) -> bytes:
    """The record lines a writer emits: one json.dumps of each record's dict."""
    return "".join(json.dumps(dict(zip(RECORD_DTYPE.names, r))) + "\n" for r in records.tolist()).encode()


def assert_jsonl_reads_as_reference(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "BLOCK_LINES", 4)  # 12 records in three blocks
        try:
            loaded = read_trace(p)
        except TraceFormatError:
            loaded = None
    try:
        expected = reference_read_jsonl(p)
    except Exception:
        expected = None
    if expected is None or p.read_bytes().partition(b"\n")[2] != writer_lines(expected.records):
        assert loaded is None
        return
    assert loaded is not None
    assert loaded.header == expected.header
    assert loaded.records.tobytes() == expected.records.tobytes()


def sample_trace(count=12):
    rng = np.random.default_rng(2)
    records = make_records(
        epoch=rng.integers(0, 3, count),
        layer=rng.integers(0, 2, count),
        token=np.arange(count),
        rank=rng.integers(0, 2, count),
        expert=rng.integers(0, 4, count),
    )
    header = TraceHeader(spec_hash="abc", n_experts=4, n_layers=2, top_k=2, expert_sizes=(12, 4, 8, 8))
    return RoutingTrace(header, records)


def version_1_binary(t: RoutingTrace) -> bytes:
    """An MDSTRC01 trace: 28-byte records, the five fields then a float32 gate weight and loss."""
    v1 = np.zeros(len(t), dtype=RECORD_DTYPE.descr + [("weight", "<f4"), ("ce", "<f4")])
    for name in RECORD_DTYPE.names:
        v1[name] = t.records[name]
    v1["weight"], v1["ce"] = 0.5, 1.25
    blob = json.dumps({**t.header.to_dict(), "version": 1}).encode("utf-8")
    return b"MDSTRC01" + len(blob).to_bytes(4, "little") + blob + v1.tobytes()


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_jsonl_trace_loads_as_the_per_line_reader_or_raises(tmp_path_factory, edits):
    tmp = tmp_path_factory.getbasetemp()
    write_trace(tmp / "base.jsonl", sample_trace())
    p = tmp / "fuzz.jsonl"
    p.write_bytes(apply_edits((tmp / "base.jsonl").read_bytes(), edits))
    assert_jsonl_reads_as_reference(p)


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"expert": 1}', b'"expert": 1e0}'),
        (b'"expert": 1}', b'"expert": 1.0}'),
        (b'"abc"', '"a\u0085bc"'.encode()),
        (b'"abc"', '"a\u2028bc"'.encode()),
        (b'"expert": 1}', b'"expert":1}'),
        (b'"expert": 1}\n', b'"expert": 1}\r\n'),
        (b'"format"', b'\r"format"'),
    ],
    ids=["exponent", "fraction", "nel-in-header", "line-separator-in-header", "no-space", "crlf", "cr-in-header"],
)
def test_jsonl_trace_edge_edits_read_as_reference(tmp_path, old, new):
    # edits the random ones rarely reach: a float record field, a header string holding a character that
    # str.splitlines breaks at but a line ending in "\n" alone does not, and valid JSON in another layout
    write_trace(tmp_path / "base.jsonl", sample_trace())
    p = tmp_path / "edited.jsonl"
    p.write_bytes((tmp_path / "base.jsonl").read_bytes().replace(old, new, 1))
    assert p.read_bytes() != (tmp_path / "base.jsonl").read_bytes()
    assert_jsonl_reads_as_reference(p)


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_binary_trace_loads_or_raises(tmp_path_factory, edits):
    tmp = tmp_path_factory.getbasetemp()
    write_trace(tmp / "base.bin", sample_trace(), binary=True)
    p = tmp / "fuzz.bin"
    p.write_bytes(apply_edits((tmp / "base.bin").read_bytes(), edits))
    try:
        read_trace(p)
    except TraceFormatError:
        pass


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_version_1_binary_trace_loads_or_raises(tmp_path_factory, edits):
    p = tmp_path_factory.getbasetemp() / "fuzz-v1.bin"
    p.write_bytes(apply_edits(version_1_binary(sample_trace()), edits))
    try:
        read_trace(p)
    except TraceFormatError:
        pass


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_checkpoint_loads_or_raises(tmp_path_factory, edits):
    tmp = tmp_path_factory.getbasetemp()
    cfg = micro_config()
    save_checkpoint(tmp / "base.ckpt", cfg, init_weights(cfg), steps=3)
    p = tmp / "fuzz.ckpt"
    p.write_bytes(apply_edits((tmp / "base.ckpt").read_bytes(), edits))
    try:
        load_checkpoint(p)
    except CheckpointError:
        pass


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_config_loads_or_raises(tmp_path_factory, edits):
    tmp = tmp_path_factory.getbasetemp()
    base = json.dumps({"model": ModelConfig().to_dict(), "optimizer": vars(OptimizerConfig())}, indent=2)
    p = tmp / "fuzz.json"
    p.write_bytes(apply_edits(base.encode("utf-8"), edits))
    try:
        _load_config(str(p))
    except ConfigError:
        pass


# a row of the one form holds only these characters
LOSS_ROW = re.compile(r"[0-9,.eE+\-]*")


def reference_read_loss_csv(path):
    """The one loss CSV form, read line by line: (ids, losses), or the number of the first line outside it.

    The header line is `token_index,loss`, then one or more rows of LOSS_ROW
    characters, lines split at "\\n" alone and the last one perhaps without
    it; every row holds a Python int in [0, 2**63) and a finite Python float,
    and no id twice (the first repeat is the line named once every row is valid).
    Line 0 stands for the whole file: not UTF-8, or no row after the header.
    """
    try:
        lines = path.read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return 0
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        return 0
    if lines[0] != "token_index,loss":
        return 1
    ids, losses = [], []
    for i, row in enumerate(lines[1:], start=2):
        try:
            tok, loss = row.split(",")
            ids.append(int(tok))
            losses.append(float(loss))
        except ValueError:
            return i
        if not (LOSS_ROW.fullmatch(row) and 0 <= ids[-1] < 2**63 and math.isfinite(losses[-1])):
            return i
    seen = set()
    for i, tok in enumerate(ids, start=2):
        if tok in seen:
            return i
        seen.add(tok)
    return np.asarray(ids, dtype=np.int64), np.asarray(losses, dtype=np.float64)


def assert_loss_csv_reads_as_reference(p):
    expected = reference_read_loss_csv(p)
    if isinstance(expected, int):
        with pytest.raises(AlignmentError) as refused:
            _read_loss_csv(str(p))
        assert str(refused.value).startswith(f"{p}:{expected}: " if expected else f"{p}: "), str(refused.value)
        return
    ids, losses = _read_loss_csv(str(p))
    expected_ids, expected_losses = expected
    assert ids.dtype == expected_ids.dtype and ids.tobytes() == expected_ids.tobytes()
    assert losses.dtype == expected_losses.dtype and losses.tobytes() == expected_losses.tobytes()


@given(edits=EDITS)
@settings(max_examples=150, deadline=None)
def test_loss_csv_loads_or_raises(tmp_path_factory, edits):
    tmp = tmp_path_factory.getbasetemp()
    base = "token_index,loss\n" + "".join(f"{i},{(i + 1) / 7:.6f}\n" for i in range(12))
    p = tmp / "fuzz.csv"
    p.write_bytes(apply_edits(base.encode("utf-8"), edits))
    assert_loss_csv_reads_as_reference(p)


@pytest.mark.parametrize(
    "body",
    [
        "",
        "\n\n",
        "0,1.5\n\n1,2.5",
        "0005,+.5\n-0,-0.0\n",
        "1,4.9e-324\n2,0.1000000000000000055511151231257827\n",
        "1,1e400\n",
        "1,1e-400\n",
        "9223372036854775808,1\n",
        "1e5,1\n",
        "1.0,2\n",
        "1,2,3\n",
        "1,\n",
        " 1 , 2.5 \n",
        "1_0,1_5\n",
        "1,nan\n",
        "1,-inf\n",
        "1,2\n  \n3,4\n",
        "1\x1c,2\n",
        "1,2\x0b3,4\n",
        "1\x85,2\n",
        "1,2\u20283,4\n",
        "1\xa0,2\n",
        "1,2\r\n3,4\r\n",
        "1,2\n3,4",
        "+5,1e+5\n",
        "1,1.e5\n",
        "7,1\n3,2\n+07,3\n3,4\n",
        "7,1\n7,1\nx\n",
    ],
)
def test_loss_csv_edge_rows_read_as_reference(tmp_path, body):
    # rows the one loadtxt must refuse, or parse to the same bits, that random edits rarely reach
    p = tmp_path / "losses.csv"
    p.write_text("token_index,loss\n" + body, encoding="utf-8", newline="")
    assert_loss_csv_reads_as_reference(p)
