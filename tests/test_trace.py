import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse.trace import (
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
        weight=rng.random(count).astype(np.float32),
        ce=rng.random(count).astype(np.float32),
    )


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

    def test_missing_ce_roundtrips_as_nan(self, tmp_path):
        rec = make_records(0, 0, [1, 2], 0, 1, 0.5, ce=None)
        trace = RoutingTrace(header(), rec)
        p = tmp_path / "t.jsonl"
        write_trace(p, trace)
        loaded = read_trace(p)
        assert np.isnan(loaded.records["ce"]).all()
        assert "ce" not in p.read_text().splitlines()[1]

    def test_streaming_writer_appends(self, tmp_path):
        p = tmp_path / "t.jsonl"
        with TraceWriter(p, header()) as w:
            w.write(make_records(0, 0, [0], 0, 1, 0.5))
            w.write(make_records(0, 1, [0], 0, 2, 0.5))
        assert len(read_trace(p)) == 2


class TestValidation:
    def test_rank_out_of_range(self):
        with pytest.raises(TraceFormatError, match="rank"):
            RoutingTrace(header(k=2), make_records(0, 0, [0], 2, 1, 0.5))

    def test_expert_out_of_range_reports_offset(self):
        rec = np.concatenate([sample_records(3), make_records(0, 0, [9], 0, 7, 0.5)])
        with pytest.raises(TraceFormatError, match="record 3"):
            RoutingTrace(header(n=4), rec)

    def test_weight_out_of_range(self):
        with pytest.raises(TraceFormatError, match="weight"):
            RoutingTrace(header(), make_records(0, 0, [0], 0, 1, 1.5))

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
        good = '{"epoch":0,"layer":0,"token":0,"rank":0,"expert":1,"weight":0.5}'
        p.write_text(
            '{"format":"modse-trace","version":1,"spec_hash":"x","n_experts":4,"n_layers":1,"top_k":2,"expert_sizes":[1,1,1,1]}\n'
            + good
            + "\n{broken\n"
        )
        with pytest.raises(TraceFormatError, match="offset 1"):
            read_trace(p)

    @pytest.mark.parametrize("epoch", ['"x"', "-1"], ids=["not-a-number", "negative"])
    def test_bad_record_field_reports_offset(self, tmp_path, epoch):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            json.dumps(header().to_dict())
            + '\n{"epoch":0,"layer":0,"token":0,"rank":0,"expert":1,"weight":0.5}\n'
            + f'{{"epoch":{epoch},"layer":0,"token":1,"rank":0,"expert":1,"weight":0.5}}\n'
        )
        with pytest.raises(TraceFormatError, match=f"{p}: bad record at offset 1"):
            read_trace(p)

    def test_truncated_binary_rejected(self, tmp_path):
        trace = RoutingTrace(header(), sample_records(4))
        p = tmp_path / "t.bin"
        write_trace(p, trace, binary=True)
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(p)
