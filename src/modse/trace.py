"""Routing-trace files: one record per (token, layer, rank) routing event.

A record is the routing decision alone: epoch, layer, token, rank and
expert, all integers. Two on-disk formats carry it and load identically:

* JSONL: a mandatory header line, then one JSON object per record with
  those five keys.
* Binary: magic ``MDSTRC02``, a u32 little-endian header length, the same
  header JSON in UTF-8, then fixed-width 20-byte little-endian records.

The readers accept only what ``TraceWriter`` writes. A version-1 trace
(magic ``MDSTRC01``, or a header with ``"version": 1``) is refused with an
error naming its version.

JSONL is written and read a block of ``BLOCK_LINES`` records at a time, so
memory stays bounded by the block. The writer formats each line with one
fixed template, the bytes ``json.dumps`` of the record's dict writes. The
reader matches a block against that template's grammar, each ``%d`` a JSON
non-negative integer, with one regular expression, and parses the matched
lines with one ``np.loadtxt`` into the record dtype. The first line outside
the grammar, or with a value beyond its field's range, is a bad record
named by its file-wide offset.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

MAGIC = b"MDSTRC02"
VERSION = 2

# JSONL records formatted or parsed in one go; bounds the transient memory of both.
BLOCK_LINES = 512

RECORD_DTYPE = np.dtype([("epoch", "<u4"), ("layer", "<u4"), ("token", "<u8"), ("rank", "<u2"), ("expert", "<u2")])


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
        return {"format": "modse-trace", "version": VERSION, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceHeader":
        if not isinstance(d, dict) or d.get("format") != "modse-trace":
            found = d.get("format") if isinstance(d, dict) else d
            raise TraceFormatError(f"not a trace header: {found!r}")
        if type(d.get("version")) is not int or d["version"] != VERSION:
            raise TraceFormatError(f"unsupported trace version {d.get('version')!r}: only version {VERSION} is read")
        missing = [name for name in ("spec_hash", "n_experts", "n_layers", "top_k", "expert_sizes") if name not in d]
        if missing:
            raise TraceFormatError(f"trace header lacks field {missing[0]!r}")
        if type(d["spec_hash"]) is not str:  # a list or dict would leave the frozen header unhashable
            raise TraceFormatError(f"trace header field 'spec_hash' must be a string, got {d['spec_hash']!r}")
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
            raise TraceFormatError(f"trace header lists {len(sizes)} expert sizes for n_experts={counts['n_experts']}")
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
        blob = json.dumps(header.to_dict(), sort_keys=True)  # ASCII: json.dumps escapes every other character
        if binary:
            self._fh = open(self.path, "wb")
            head = MAGIC + len(blob).to_bytes(4, "little") + blob.encode("ascii")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            head = blob + "\n"
        try:
            self._fh.write(head)
        except BaseException:  # the caller gets no writer to close
            self._fh.close()
            raise

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
    """Load a trace file, sniffing JSONL vs binary by the magic prefix."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic == MAGIC:  # read to the end in one sized read: read() would copy the bytes it had buffered
            raw = fh.read(os.fstat(fh.fileno()).st_size - len(MAGIC))
            hlen = int.from_bytes(raw[:4], "little")
            if len(raw) < 4 + hlen:
                raise TraceFormatError(f"{path}: truncated binary header")
            try:
                header = TraceHeader.from_dict(json.loads(raw[4 : 4 + hlen]))
            except (ValueError, RecursionError) as e:  # JSON, UTF-8 or header-field errors
                raise TraceFormatError(f"{path}: bad binary header: {e}") from e
            if (len(raw) - 4 - hlen) % RECORD_DTYPE.itemsize != 0:
                raise TraceFormatError(f"{path}: truncated binary record block")
            # a view of the bytes read, not a copy, so a read peaks at the file's size
            return RoutingTrace(header, np.frombuffer(raw, dtype=RECORD_DTYPE, offset=4 + hlen))
        if magic[:-2] == MAGIC[:-2]:
            version = magic[-2:].decode("latin-1")
            raise TraceFormatError(f"{path}: unsupported binary trace version {version}: only {MAGIC.decode()} is read")

    try:  # lines end at "\n" alone: a "\r" stays in its line, where the grammar refuses it
        with open(path, encoding="utf-8", newline="\n") as fh:
            return _read_jsonl(path, fh)
    except UnicodeDecodeError as e:
        raise TraceFormatError(f"{path}: not UTF-8 text: {e}") from e


# A run of lines exactly as TraceWriter writes them: _LINE with each %d a JSON non-negative integer.
_JSON_INT = "(?:0|[1-9][0-9]*)"
_RECORD_LINES = re.compile("(?:%s)*" % _JSON_INT.join(map(re.escape, _LINE.split("%d"))))
# Deletes the keys and punctuation of _LINE, leaving "epoch,layer,token,rank,expert\n".
_KEYS = str.maketrans("", "", "".join(set(_LINE.replace("%d", "")) - set(",\n")))
_load_rows = functools.partial(np.loadtxt, dtype=RECORD_DTYPE, delimiter=",", comments=None, ndmin=1)


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
        blocks.append(_parse_block(path, lines, offset))
        offset += len(lines)
    records = np.concatenate(blocks) if blocks else np.zeros(0, dtype=RECORD_DTYPE)
    return RoutingTrace(header, records)


def _parse_block(path: Path, lines: list[str], offset: int) -> np.ndarray:
    """Records of a block of lines; the first bad one raises with its file-wide offset.

    The grammar admits only digit runs where the template has %d, so each
    matched line, its keys deleted, is five comma-separated integers;
    loadtxt raises for one beyond its field's range, and only then are the
    rows parsed one by one to find it.
    """
    rows = _RECORD_LINES.match("".join(lines)).group().translate(_KEYS).splitlines()
    try:
        records = _load_rows(rows) if rows else None  # loadtxt warns on no rows
    except ValueError:
        for i, row in enumerate(rows):
            try:
                _load_rows([row])
            except ValueError:
                raise TraceFormatError(f"{path}: bad record at offset {offset + i}: field out of range") from None
        raise
    if len(rows) < len(lines):
        raise TraceFormatError(f"{path}: bad record at offset {offset + len(rows)}: not in the writer's layout")
    return records
