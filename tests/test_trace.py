import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse import trace
from modse.trace import (
    BLOCK_LINES,
    MAGIC,
    RECORD_DTYPE,
    RoutingTrace,
    TraceFormatError,
    TraceHeader,
    TraceWriter,
    make_records,
    read_trace,
    write_trace,
)


def header(n=4, layers=2, k=2, sizes=(12, 4, 8, 8)):
    return TraceHeader(spec_hash="abc", n_experts=n, n_layers=layers, top_k=k, expert_sizes=sizes)


def sample_records(count=10, seed=0):
    rng = np.random.default_rng(seed)
    return make_records(
        epoch=rng.integers(0, 3, count),
        layer=rng.integers(0, 2, count),
        token=np.arange(count),
        rank=rng.integers(0, 2, count),
        expert=rng.integers(0, 4, count),
    )


def reference_jsonl_lines(records):
    """The per-record writer the block writer replaced: one json.dumps per record dict."""
    return [json.dumps(dict(zip(RECORD_DTYPE.names, r))) for r in records.tolist()]


def write_v1_trace(path, header, records, weight, ce, binary=False):
    """The version-1 writer: each record also held a float32 gate weight and loss; a NaN loss was left out of JSONL."""
    head = {**header.to_dict(), "version": 1}
    weight, ce = np.float32(weight), np.asarray(ce, dtype=np.float32)
    if binary:
        v1 = np.zeros(len(records), dtype=RECORD_DTYPE.descr + [("weight", "<f4"), ("ce", "<f4")])
        for name in RECORD_DTYPE.names:
            v1[name] = records[name]
        v1["weight"], v1["ce"] = weight, ce
        blob = json.dumps(head, sort_keys=True).encode("utf-8")
        path.write_bytes(b"MDSTRC01" + len(blob).to_bytes(4, "little") + blob + v1.tobytes())
        return
    lines = [json.dumps(head, sort_keys=True)]
    for r, c in zip(records.tolist(), ce.tolist()):
        obj = {**dict(zip(RECORD_DTYPE.names, r)), "weight": float(weight)}
        if not math.isnan(c):
            obj["ce"] = c
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n")


# the line TraceWriter writes for make_records(0, 0, [0], 0, 1)
CANONICAL_LINE = trace._LINE.rstrip("\n") % (0, 0, 0, 0, 1)


def jsonl_with_body(path, body_lines):
    path.write_text("\n".join([json.dumps(header().to_dict()), *body_lines]) + "\n")
    return path


class TestRoundTrip:
    def test_jsonl(self, tmp_path):
        trace = RoutingTrace(header(), sample_records())
        p = tmp_path / "t.jsonl"
        write_trace(p, trace)
        loaded = read_trace(p)
        assert loaded.header == trace.header
        assert np.array_equal(loaded.records, trace.records)

    def test_binary(self, tmp_path):
        trace = RoutingTrace(header(), sample_records())
        p = tmp_path / "t.bin"
        write_trace(p, trace, binary=True)
        loaded = read_trace(p)
        assert loaded.header == trace.header
        assert np.array_equal(loaded.records, trace.records)

    def test_formats_agree_bitwise(self, tmp_path):
        trace = RoutingTrace(header(), sample_records(seed=3))
        a, b = tmp_path / "t.jsonl", tmp_path / "t.bin"
        write_trace(a, trace)
        write_trace(b, trace, binary=True)
        ta, tb = read_trace(a), read_trace(b)
        assert ta.records.tobytes() == tb.records.tobytes()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_records_roundtrip(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("trace")
        trace = RoutingTrace(header(), sample_records(count=7, seed=seed))
        for name, binary in (("a.jsonl", False), ("a.bin", True)):
            p = tmp / name
            write_trace(p, trace, binary=binary)
            assert np.array_equal(read_trace(p).records, trace.records)

    def test_streaming_writer_appends(self, tmp_path):
        p = tmp_path / "t.jsonl"
        with TraceWriter(p, header()) as w:
            w.write(make_records(0, 0, [0], 0, 1))
            w.write(make_records(0, 1, [0], 0, 2))
        assert len(read_trace(p)) == 2

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**64 - 1),
                st.integers(0, 1),
                st.integers(0, 3),
            ),
            max_size=20,
        ),
        block=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_jsonl_and_binary_give_the_same_record_bytes(self, tmp_path_factory, rows, block):
        tmp = tmp_path_factory.getbasetemp()
        # a header bound past the u32 range keeps every layer value valid
        trace_in = RoutingTrace(header(layers=2**32), np.array(rows, dtype=RECORD_DTYPE))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace, "BLOCK_LINES", block)
            write_trace(tmp / "h.jsonl", trace_in)
            write_trace(tmp / "h.bin", trace_in, binary=True)
            from_jsonl, from_bin = read_trace(tmp / "h.jsonl"), read_trace(tmp / "h.bin")
        assert from_jsonl.records.tobytes() == from_bin.records.tobytes() == trace_in.records.tobytes()


class TestBlockWriter:
    def test_matches_per_record_json_dumps(self, tmp_path):
        rec = sample_records(count=2 * BLOCK_LINES + 100, seed=5)
        rec["epoch"][-1] = 2**32 - 1
        # straddles the first block boundary
        rec["token"][BLOCK_LINES - 2 : BLOCK_LINES + 2] = [2**53 + 1, 2**64 - 1, 0, 2**63]
        p = tmp_path / "t.jsonl"
        with TraceWriter(p, header()) as w:
            w.write(rec[:5])
            w.write(rec[5:])
            w.write(rec[:0])
        assert p.read_text().splitlines()[1:] == reference_jsonl_lines(rec)


def count_loadtxt_calls(monkeypatch):
    """The row count of each loadtxt parse the reader makes, in order."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return load_rows(rows)

    load_rows = trace._load_rows
    monkeypatch.setattr(trace, "_load_rows", counted)
    return calls


class TestBlockReader:
    def extreme_records(self):
        rec = sample_records(count=2 * BLOCK_LINES + 37, seed=6)
        rec["token"][:3] = [2**53 + 1, 2**64 - 1, 10]
        rec["epoch"][-1] = 2**32 - 1
        return rec

    def test_writer_output_never_reaches_the_per_line_parser(self, tmp_path, monkeypatch):
        # one loadtxt per block, never the row-by-row search for an out-of-range field
        rec = self.extreme_records()
        p = tmp_path / "t.jsonl"
        with TraceWriter(p, header()) as w:
            w.write(rec[:5])
            w.write(rec[5:])
        calls = count_loadtxt_calls(monkeypatch)
        assert read_trace(p).records.tobytes() == rec.tobytes()
        assert calls == [BLOCK_LINES, BLOCK_LINES, 37]

    def test_version_1_writer_output_never_reaches_the_per_line_parser(self, tmp_path, monkeypatch):
        # a version-1 trace is refused at its header, before any record is parsed
        rec = self.extreme_records()
        ce = np.random.default_rng(6).standard_normal(len(rec)).astype(np.float32) * 1e3
        ce[::3] = np.nan  # line without "ce"
        p = tmp_path / "v1.jsonl"
        write_v1_trace(p, header(), rec, -0.0, ce)
        calls = count_loadtxt_calls(monkeypatch)
        with pytest.raises(TraceFormatError, match=f"{p}: bad header line: unsupported trace version 1:"):
            read_trace(p)
        assert calls == []

    @pytest.mark.parametrize(
        "line",
        [
            CANONICAL_LINE.replace(": ", ":"),
            CANONICAL_LINE.replace(", ", " ,  "),
            CANONICAL_LINE + " ",
            '{"expert": 1, "rank": 0, "token": 0, "layer": 0, "epoch": 0}',
            '{"epoch":0,"layer":0,"token":0,"rank":0,"expert":1,"weight":0.5,"ce":1.25}',
            CANONICAL_LINE[:-1] + ', "ce": 1.25, "weight": 0.5}',
            "  " + CANONICAL_LINE,
            CANONICAL_LINE[:-1] + ', "x": [1, 2]}',
            CANONICAL_LINE + "\r",
        ],
        ids=["no-spaces", "extra-spaces", "trailing-space", "reordered", "v1-compact", "v1-reordered",
             "leading-spaces", "extra-key", "crlf"],
    )
    def test_other_layouts_are_rejected(self, tmp_path, monkeypatch, line):
        # valid JSON holding the same record, in a layout TraceWriter does not write
        assert {name: json.loads(line)[name] for name in RECORD_DTYPE.names} == json.loads(CANONICAL_LINE)
        p = jsonl_with_body(tmp_path / "t.jsonl", [CANONICAL_LINE] * 3 + [line] + [CANONICAL_LINE] * 5)
        monkeypatch.setattr(trace, "BLOCK_LINES", 3)
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 3"):
            read_trace(p)

    def test_last_line_without_newline_rejected(self, tmp_path):
        p = jsonl_with_body(tmp_path / "t.jsonl", [CANONICAL_LINE] * 3)
        p.write_text(p.read_text().removesuffix("\n"))
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 2"):
            read_trace(p)

    def test_out_of_range_field_before_a_layout_error_is_named_first(self, tmp_path):
        out_of_range = CANONICAL_LINE.replace('"rank": 0', '"rank": 65536')
        p = jsonl_with_body(tmp_path / "t.jsonl", [CANONICAL_LINE, out_of_range, CANONICAL_LINE, "{broken"])
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 1: field out of range"):
            read_trace(p)

    @pytest.mark.parametrize(
        "bad",
        [
            CANONICAL_LINE.replace('"token"', '"tok0en"'),
            CANONICAL_LINE.replace('"token": 0', '"token": 01'),
            CANONICAL_LINE.replace('"epoch": 0', '"epoch": 4294967296'),
            CANONICAL_LINE.replace('"token": 0', '"token": 18446744073709551616'),
            CANONICAL_LINE.replace('"rank": 0', '"rank": 65536'),
        ],
        ids=["digit-in-key", "leading-zero", "epoch-past-u32", "token-past-u64", "rank-past-u16"],
    )
    def test_bad_canonical_record_reports_offset(self, tmp_path, bad):
        # two whole canonical blocks load before the bad record
        p = jsonl_with_body(tmp_path / "bad.jsonl", [CANONICAL_LINE] * 1300 + [bad, CANONICAL_LINE])
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 1300"):
            read_trace(p)


class TestValidation:
    def test_rank_out_of_range(self):
        with pytest.raises(TraceFormatError, match="rank"):
            RoutingTrace(header(k=2), make_records(0, 0, [0], 2, 1))

    def test_expert_out_of_range_reports_offset(self):
        rec = np.concatenate([sample_records(3), make_records(0, 0, [9], 0, 7)])
        with pytest.raises(TraceFormatError, match="record 3"):
            RoutingTrace(header(n=4), rec)

    def test_layer_out_of_range_reports_offset(self):
        rec = np.concatenate([sample_records(3), make_records(0, 5, [9], 0, 1)])
        with pytest.raises(TraceFormatError, match="record 3: layer 5 >= n_layers 2"):
            RoutingTrace(header(layers=2), rec)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_trace(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "something-else"}\n')
        with pytest.raises(TraceFormatError, match="not a trace header"):
            read_trace(p)

    def test_expert_sizes_must_match_n_experts(self):
        d = header(n=8).to_dict()
        d["expert_sizes"] = [1, 1, 1]
        with pytest.raises(TraceFormatError, match="3 expert sizes for n_experts=8"):
            TraceHeader.from_dict(d)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_experts", 2.9),
            ("n_experts", 4.0),
            ("n_experts", "4"),
            ("n_layers", True),
            ("n_layers", 0),
            ("top_k", 0),
            ("top_k", 5),
            ("top_k", False),
            ("expert_sizes", [12, 4, 0, 8]),
            ("expert_sizes", [12, -3, 8, 8]),
            ("expert_sizes", [12, 4, 8.0, 8]),
            ("expert_sizes", [12, 4, True, 8]),
            ("expert_sizes", "12488"),
            ("spec_hash", ["abc"]),
            ("spec_hash", 7),
        ],
    )
    def test_header_counts_must_be_positive_json_integers(self, tmp_path, field, value):
        # int() would cast 2.9 to 2 and true to 1; widths and counts below 1 describe no layer; a
        # spec_hash that is not a string would load, and leave the frozen header unhashable
        d = header().to_dict()
        d[field] = value
        with pytest.raises(TraceFormatError, match=f"trace header .*{field}"):
            TraceHeader.from_dict(d)
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(d) + "\n" + CANONICAL_LINE + "\n")
        with pytest.raises(TraceFormatError, match=field):
            read_trace(p)

    @pytest.mark.parametrize("field", ["spec_hash", "n_experts", "n_layers", "top_k", "expert_sizes"])
    def test_missing_header_field_rejected(self, tmp_path, field):
        d = header().to_dict()
        del d[field]
        with pytest.raises(TraceFormatError, match=f"lacks field '{field}'"):
            TraceHeader.from_dict(d)
        p = tmp_path / "t.bin"
        blob = json.dumps(d).encode()
        p.write_bytes(MAGIC + len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(TraceFormatError, match="bad binary header"):
            read_trace(p)

    def test_bad_record_reports_offset(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            '{"format":"modse-trace","version":2,"spec_hash":"x","n_experts":4,"n_layers":1,"top_k":2,"expert_sizes":[1,1,1,1]}\n'
            + CANONICAL_LINE
            + "\n{broken\n"
        )
        with pytest.raises(TraceFormatError, match="offset 1"):
            read_trace(p)

    @pytest.mark.parametrize(
        "bad",
        [
            CANONICAL_LINE.replace('"epoch": 0', '"epoch": "x"'),
            CANONICAL_LINE.replace('"epoch": 0', '"epoch": -1'),
            CANONICAL_LINE + ", " + CANONICAL_LINE,
            "",
            "[" + CANONICAL_LINE + "]",
            CANONICAL_LINE.replace('"rank": 0, ', ""),
            CANONICAL_LINE.replace('"expert": 1', '"expert": 1.7'),
            CANONICAL_LINE.replace('"epoch": 0', '"epoch": -0.5'),
            CANONICAL_LINE.replace('"token": 0', '"token": true'),
            CANONICAL_LINE.replace('"token": 0', '"token": 1e3'),
        ],
        ids=["not-a-number", "negative", "two-objects", "blank", "list", "missing-key",
             "float", "negative-float", "bool", "exponent"],
    )
    def test_bad_record_field_reports_offset(self, tmp_path, bad):
        # the bad record sits in the third block, after two blocks that parse
        assert bad != CANONICAL_LINE
        p = jsonl_with_body(tmp_path / "bad.jsonl", [CANONICAL_LINE] * 1300 + [bad, CANONICAL_LINE])
        assert 1300 > 2 * BLOCK_LINES
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 1300"):
            read_trace(p)

    @pytest.mark.parametrize(
        "split",
        [
            (CANONICAL_LINE[:-1] + ', "x": [1', "2]}"),
            (CANONICAL_LINE[:-1] + ', "x": [1', CANONICAL_LINE + "]}"),
            ('{"epoch": 0, "layer": 0', '"token": 0, "rank": 0, "expert": 1}'),
        ],
        ids=["array-tail", "array-of-record", "object-members"],
    )
    def test_record_split_over_two_lines_rejected(self, tmp_path, split):
        # a line holding two records keeps the block's value count equal to its line count
        p = jsonl_with_body(tmp_path / "bad.jsonl", [CANONICAL_LINE, *split, CANONICAL_LINE + ", " + CANONICAL_LINE])
        with pytest.raises(TraceFormatError, match="bad record at offset 1"):
            read_trace(p)

    def test_invalid_utf8_rejected_with_path(self, tmp_path):
        p = jsonl_with_body(tmp_path / "t.jsonl", [CANONICAL_LINE, CANONICAL_LINE])
        p.write_bytes(p.read_bytes().replace(b'"layer"', b'"lay\xffer"', 1))
        with pytest.raises(TraceFormatError, match=f"{p}: not UTF-8"):
            read_trace(p)

    def test_truncated_binary_header_rejected(self, tmp_path):
        # a header length past the end of the file; the shorter blob left may still parse as a header
        blob = json.dumps(header().to_dict()).encode()
        whole = MAGIC + len(blob).to_bytes(4, "little") + blob
        p = tmp_path / "t.bin"
        for data in (whole[:-1], whole[: len(MAGIC) + 2], MAGIC + (len(blob) + 20).to_bytes(4, "little") + blob):
            p.write_bytes(data)
            with pytest.raises(TraceFormatError, match=f"{p}: truncated binary header"):
                read_trace(p)

    def test_truncated_binary_rejected(self, tmp_path):
        trace = RoutingTrace(header(), sample_records(4))
        p = tmp_path / "t.bin"
        write_trace(p, trace, binary=True)
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(p)


    @pytest.mark.parametrize("binary", [False, True], ids=["jsonl", "binary"])
    def test_header_write_failure_closes_the_file(self, tmp_path, monkeypatch, binary):
        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                raise OSError(28, "No space left on device")

            def close(self):
                self.fh.close()

        opened = []
        monkeypatch.setattr(trace, "open", lambda *a, **kw: opened.append(FullDisk(open(*a, **kw))) or opened[-1], raising=False)
        with pytest.raises(OSError, match="No space left"):
            TraceWriter(tmp_path / "t.bin", header(), binary=binary)
        assert len(opened) == 1
        assert opened[0].fh.closed

    def test_binary_read_peaks_below_one_and_a_half_file_sizes(self, tmp_path):
        n = 1 << 20
        records = make_records(epoch=0, layer=np.arange(n) % 2, token=np.arange(n), rank=0, expert=np.arange(n) % 4)
        p = tmp_path / "t.bin"
        write_trace(p, RoutingTrace(header(), records), binary=True)
        del records
        tracemalloc.start()
        try:
            loaded = read_trace(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == n
        assert peak < 1.5 * p.stat().st_size


class TestFormatVersions:
    def test_record_layout(self, tmp_path):
        assert RECORD_DTYPE.names == ("epoch", "layer", "token", "rank", "expert")
        assert RECORD_DTYPE.itemsize == 20
        trace = RoutingTrace(header(), sample_records(6))
        p, q = tmp_path / "t.bin", tmp_path / "t.jsonl"
        write_trace(p, trace, binary=True)
        write_trace(q, trace)
        data = p.read_bytes()
        assert data[:8] == MAGIC == b"MDSTRC02"
        blob_len = int.from_bytes(data[8:12], "little")
        assert json.loads(data[12 : 12 + blob_len])["version"] == 2
        assert len(data) == 12 + blob_len + 20 * len(trace)
        assert json.loads(q.read_text().splitlines()[0])["version"] == 2

    @pytest.mark.parametrize(
        "binary, message",
        [(False, "bad header line: unsupported trace version 1:"), (True, "unsupported binary trace version 01:")],
        ids=["jsonl", "binary"],
    )
    def test_version_1_file_is_rejected_naming_its_version(self, tmp_path, binary, message):
        rec = sample_records(count=BLOCK_LINES + 9, seed=8)
        ce = np.random.default_rng(8).random(len(rec)).astype(np.float32)
        p = tmp_path / ("v1.bin" if binary else "v1.jsonl")
        write_v1_trace(p, header(), rec, 0.25, ce, binary=binary)
        with pytest.raises(TraceFormatError, match=f"{p}: {message}"):
            read_trace(p)

    def test_truncated_version_1_binary_rejected(self, tmp_path):
        p = tmp_path / "v1.bin"
        write_v1_trace(p, header(), sample_records(4), 0.5, np.zeros(4), binary=True)
        # 100 record bytes, which would parse as five 20-byte records: the magic alone refuses the file
        p.write_bytes(p.read_bytes()[:-12])
        with pytest.raises(TraceFormatError, match="unsupported binary trace version 01"):
            read_trace(p)

    @pytest.mark.parametrize("version", [1, 3, 2.0, True, "2", None], ids=["1", "3", "float", "bool", "string", "missing"])
    @pytest.mark.parametrize("binary", [False, True], ids=["jsonl", "binary"])
    def test_header_version_must_be_the_integer_2(self, tmp_path, binary, version):
        d = header().to_dict()
        if version is None:
            del d["version"]
        else:
            d["version"] = version
        with pytest.raises(TraceFormatError, match=f"unsupported trace version {version!r}"):
            TraceHeader.from_dict(d)
        blob = json.dumps(d).encode()
        p = tmp_path / "t.trace"
        p.write_bytes(MAGIC + len(blob).to_bytes(4, "little") + blob if binary else blob + b"\n")
        with pytest.raises(TraceFormatError, match=f"{p}: bad (binary )?header.*unsupported trace version"):
            read_trace(p)
