"""Routing-trace files: one record per (token, layer, rank) routing event.

A record is the routing decision alone: epoch, layer, token, rank and
expert, all integers. Two on-disk formats carry it and load identically:

* JSONL: a mandatory header line, then one JSON object per record with
  those five keys.
* Binary: magic ``MDSTRC02``, a u32 little-endian header length, the same
  header JSON in UTF-8, then fixed-width 20-byte little-endian records.

Version-1 traces still load: their JSONL lines also carry ``weight`` and
``ce`` keys, which both parsers ignore, and ``MDSTRC01`` files hold 28-byte
records whose trailing float32 gate weight and loss are skipped.

JSONL is written and read a block of ``BLOCK_LINES`` records at a time, so
memory stays bounded by the block. The writer formats each block with one
fixed template and writes the same bytes that ``json.dumps`` of each
record's dict writes. The reader checks a block against the grammar of that
template, each ``%d`` a JSON non-negative integer (a version-1 line may add
its ``weight``/``ce`` tail), with one regular-expression match; a block that
matches has its keys stripped and is parsed with one ``np.loadtxt`` into the
record dtype, which refuses a value beyond its field's range. Any other
block, valid JSON in another layout included, is read line by line with
``json.loads``. There every field must be a JSON integer: a float or a
boolean is a bad record, not a value to round, and the first bad record is
named by its file-wide offset.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

MAGIC = b"MDSTRC02"

# JSONL records formatted or parsed in one go; bounds the transient memory of both.
BLOCK_LINES = 512

RECORD_DTYPE = np.dtype(
    [
        ("epoch", "<u4"),
        ("layer", "<u4"),
        ("token", "<u8"),
        ("rank", "<u2"),
        ("expert", "<u2"),
    ]
)

# Record layout of each binary magic: version 1 followed the five fields with
# a float32 gate weight and per-token loss, which reading skips.
_BINARY_DTYPES = {
    MAGIC: RECORD_DTYPE,
    b"MDSTRC01": np.dtype(
        {"names": RECORD_DTYPE.names, "formats": [RECORD_DTYPE[n] for n in RECORD_DTYPE.names], "itemsize": 28}
    ),
}


class TraceFormatError(ValueError):
    """Malformed trace file or out-of-range record field."""


@dataclass(frozen=True)
class TraceHeader:
    spec_hash: str
    n_experts: int
    n_layers: int
    top_k: int
    expert_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["expert_sizes"] = list(self.expert_sizes)
        return {"format": "modse-trace", "version": 2, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceHeader":
        if not isinstance(d, dict) or d.get("format") != "modse-trace":
            found = d.get("format") if isinstance(d, dict) else d
            raise TraceFormatError(f"not a trace header: {found!r}")
        missing = [name for name in ("spec_hash", "n_experts", "n_layers", "top_k", "expert_sizes") if name not in d]
        if missing:
            raise TraceFormatError(f"trace header lacks field {missing[0]!r}")
        # JSON integers only: `type(v) is int` turns away floats and bools, which int() would cast
        counts = {name: d[name] for name in ("n_experts", "n_layers", "top_k")}
        for name, v in counts.items():
            if type(v) is not int or v < 1:
                raise TraceFormatError(f"trace header field {name!r} must be an integer >= 1, got {v!r}")
        if counts["top_k"] > counts["n_experts"]:
            raise TraceFormatError(f"trace header top_k {counts['top_k']} exceeds n_experts {counts['n_experts']}")
        sizes = d["expert_sizes"]
        if not isinstance(sizes, list) or not all(type(w) is int and w >= 1 for w in sizes):
            raise TraceFormatError(f"trace header expert_sizes must be a list of integers >= 1, got {sizes!r}")
        if len(sizes) != counts["n_experts"]:
            raise TraceFormatError(
                f"trace header lists {len(sizes)} expert sizes for n_experts={counts['n_experts']}"
            )
        return cls(spec_hash=d["spec_hash"], expert_sizes=tuple(sizes), **counts)


@dataclass
class RoutingTrace:
    header: TraceHeader
    records: np.ndarray  # RECORD_DTYPE

    def __post_init__(self):
        self.records = np.asarray(self.records, dtype=RECORD_DTYPE)
        validate_records(self.header, self.records)

    def __len__(self) -> int:
        return len(self.records)


def validate_records(header: TraceHeader, records: np.ndarray) -> None:
    """Every index field below its header bound, so counts can index by it."""
    for field, bound, limit in (
        ("layer", "n_layers", header.n_layers),
        ("rank", "top_k", header.top_k),
        ("expert", "n_experts", header.n_experts),
    ):
        bad = np.nonzero(records[field] >= limit)[0]
        if bad.size:
            raise TraceFormatError(f"record {bad[0]}: {field} {records[field][bad[0]]} >= {bound} {limit}")


def make_records(epoch, layer, token, rank, expert) -> np.ndarray:
    """Assemble aligned field arrays into a record block."""
    n = len(np.atleast_1d(token))
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    rec["epoch"] = epoch
    rec["layer"] = layer
    rec["token"] = token
    rec["rank"] = rank
    rec["expert"] = expert
    return rec


# The line json.dumps writes for a record's dict.
_LINE = '{"epoch": %d, "layer": %d, "token": %d, "rank": %d, "expert": %d}\n'


class TraceWriter:
    """Streams records to a JSONL or binary trace file."""

    def __init__(self, path: str | Path, header: TraceHeader, binary: bool = False):
        self.path = Path(path)
        self.binary = binary
        if binary:
            self._fh = open(self.path, "wb")
            blob = json.dumps(header.to_dict(), sort_keys=True).encode("utf-8")
            self._fh.write(MAGIC)
            self._fh.write(len(blob).to_bytes(4, "little"))
            self._fh.write(blob)
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._fh.write(json.dumps(header.to_dict(), sort_keys=True) + "\n")

    def write(self, records: np.ndarray) -> None:
        records = np.asarray(records, dtype=RECORD_DTYPE)
        if self.binary:
            self._fh.write(records.tobytes())
            return
        for start in range(0, len(records), BLOCK_LINES):
            self._fh.write("".join([_LINE % r for r in records[start : start + BLOCK_LINES].tolist()]))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_trace(path: str | Path, trace: RoutingTrace, binary: bool = False) -> None:
    with TraceWriter(path, trace.header, binary=binary) as w:
        w.write(trace.records)


def read_trace(path: str | Path) -> RoutingTrace:
    """Load a trace file, sniffing JSONL vs binary, and the binary version, by the magic prefix."""
    path = Path(path)
    with open(path, "rb") as fh:
        dtype = _BINARY_DTYPES.get(fh.read(len(MAGIC)))
        if dtype is not None:
            raw = fh.read()
            hlen = int.from_bytes(raw[:4], "little")
            try:
                header = TraceHeader.from_dict(json.loads(raw[4 : 4 + hlen]))
            except (ValueError, RecursionError) as e:  # JSON, UTF-8 or header-field errors
                raise TraceFormatError(f"{path}: bad binary header: {e}") from e
            body = raw[4 + hlen :]
            if len(body) % dtype.itemsize != 0:
                raise TraceFormatError(f"{path}: truncated binary record block")
            return RoutingTrace(header, np.frombuffer(body, dtype=dtype).astype(RECORD_DTYPE))

    try:
        with open(path, encoding="utf-8") as fh:
            return _read_jsonl(path, fh)
    except UnicodeDecodeError as e:
        raise TraceFormatError(f"{path}: not UTF-8 text: {e}") from e


# Errors a record line can raise while it is parsed or converted.
_RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)

# A block of lines exactly as TraceWriter writes them: _LINE with each %d a
# JSON non-negative integer, optionally followed by a version-1 writer's
# "weight" and "ce" members, which reading drops.
_JSON_INT = "(?:0|[1-9][0-9]*)"
_JSON_FLOAT = f"(?:-?{_JSON_INT}(?:\\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|-?Infinity)"
_V1_TAIL = f', "weight": {_JSON_FLOAT}(?:, "ce": {_JSON_FLOAT})?'
_HEAD, _CLOSE = _LINE.rsplit("}", 1)
_CANONICAL_BLOCK = re.compile(
    "(?:%s(?:%s)?\\}%s)*" % (_JSON_INT.join(map(re.escape, _HEAD.split("%d"))), _V1_TAIL, re.escape(_CLOSE))
)
_V1_MEMBERS = re.compile(', "weight": [^}]*')
# Deletes the keys and punctuation of _LINE, leaving "epoch,layer,token,rank,expert\n".
_KEYS = str.maketrans("", "", "".join(set(_LINE.replace("%d", "")) - set(",\n")))


def _read_jsonl(path: Path, fh) -> RoutingTrace:
    first = fh.readline()
    if not first:
        raise TraceFormatError(f"{path}: empty file")
    try:
        header = TraceHeader.from_dict(json.loads(first))
    except (ValueError, RecursionError) as e:  # JSON or header-field errors
        raise TraceFormatError(f"{path}: bad header line: {e}") from e
    blocks, offset = [], 0
    while lines := list(itertools.islice(fh, BLOCK_LINES)):
        block = _parse_canonical("".join(lines))
        blocks.append(block if block is not None else _parse_lines(path, lines, offset))
        offset += len(lines)
    records = np.concatenate(blocks) if blocks else np.zeros(0, dtype=RECORD_DTYPE)
    return RoutingTrace(header, records)


def _parse_canonical(text: str) -> np.ndarray | None:
    """Records of a block in the writer's exact layout, or None for any other text.

    The grammar admits only digit runs where the template has %d, so after
    the keys are deleted every line is five comma-separated integers;
    loadtxt raises for one beyond its field's range, which the per-line
    reader then reports with its offset.
    """
    if not _CANONICAL_BLOCK.fullmatch(text):
        return None
    if '"weight"' in text:
        text = _V1_MEMBERS.sub("", text)
    body = io.StringIO(text.translate(_KEYS))
    try:
        return np.loadtxt(body, dtype=RECORD_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def _parse_lines(path: Path, lines: list[str], offset: int) -> np.ndarray:
    """Parse record lines one by one; a bad one raises with its file-wide offset."""
    records = np.zeros(len(lines), dtype=RECORD_DTYPE)
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
            records[i] = row = tuple(obj[name] for name in RECORD_DTYPE.names)
            if set(map(type, row)) != {int}:
                raise ValueError(f"fields {row} are not all integers")
        except _RECORD_ERRORS as e:  # ValueError covers bad JSON
            raise TraceFormatError(f"{path}: bad record at offset {offset + i}: {e}") from e
    return records
