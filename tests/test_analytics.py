import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse.analytics import (
    AlignmentError,
    CountRow,
    CountTable,
    count_routing,
    counts_csv,
    default_size_classes,
    difficult_token_expert_distribution,
    difficult_token_table,
    distribution_csv,
    emit_heatmap,
    routing_counts,
    thresholds_csv,
)
from modse.fixtures import load_difficult_tokens, load_routing_epoch7
from modse.moe import build_paired_spec, homogeneous_spec
from modse.placement import DeviceModel, evaluate_workload, plan_baselines, plan_pairwise
from modse.trace import RoutingTrace, TraceHeader, make_records

# published aggregates for the hard-token distribution table
TOP12_PER_EXPERT = [2649, 3729, 4095, 2332, 2933, 2877, 2972, 2477]
TOP1_PER_EXPERT = [1560, 2313, 2342, 1166, 1566, 1363, 873, 849]
SUMS = {"top12_large": 10473, "top12_small": 8326, "top1_large": 6215, "top1_small": 3085}


def difficult_fixture_trace() -> tuple[RoutingTrace, np.ndarray]:
    """Expand the shipped per-(layer, rank, expert) counts into trace records."""
    fix = load_difficult_tokens()
    header = TraceHeader(
        spec_hash="fixture",
        n_experts=len(fix.expert_sizes),
        n_layers=fix.n_layers,
        top_k=2,
        expert_sizes=fix.expert_sizes,
    )
    chunks = []
    tok = 0
    for row in range(len(fix.layers)):
        for expert, count in enumerate(fix.counts[row]):
            n = int(count)
            if n == 0:
                continue
            chunks.append(
                make_records(
                    epoch=0,
                    layer=int(fix.layers[row]),
                    token=np.arange(tok, tok + n),
                    rank=int(fix.ranks[row]),
                    expert=expert,
                )
            )
            tok += n
    trace = RoutingTrace(header, np.concatenate(chunks))
    return trace, np.arange(tok)


class TestCountRouting:
    def test_single_record_one_hot_with_sentinel(self):
        header = TraceHeader("x", 4, 1, 2, (8, 8, 8, 8))
        trace = RoutingTrace(header, make_records(0, 0, [0], 0, 2))
        (row,) = count_routing(trace).rows
        assert (row.epoch, row.layer, row.rank) == (0, 0, 0)
        assert row.counts.tolist() == [0, 0, 1, 0]
        assert math.isinf(row.ratio)

    def test_uniform_trace_ratio_one(self):
        header = TraceHeader("x", 4, 1, 2, (8, 8, 8, 8))
        recs = make_records(0, 0, np.arange(12), 0, np.arange(12) % 4)
        (row,) = count_routing(RoutingTrace(header, recs)).rows
        assert row.ratio == 1.0

    def test_published_epoch7_layer0_top0_ratio(self):
        fix = load_routing_epoch7()
        counts = fix.row(0, 0)
        assert counts.tolist() == [
            16658651, 15442565, 18865092, 21987256, 22649968, 29079684, 30773936, 40200720,
        ]
        row = CountRow(7, 0, 0, counts)
        assert row.max == 40200720
        assert row.min == 15442565
        assert abs(row.ratio - 2.60) <= 0.005

    def test_counts_csv_rounds_ratio_to_two_decimals(self):
        fix = load_routing_epoch7()
        counts = np.zeros((1, max(fix.layers) + 1, max(fix.ranks) + 1, len(fix.expert_sizes)), dtype=np.int64)
        counts[0, fix.layers, fix.ranks] = fix.counts
        rows = [CountRow(7, layer, rank, counts[0, layer, rank]) for layer, rank in zip(fix.layers, fix.ranks)]
        text = counts_csv(CountTable(counts, rows), list(fix.expert_sizes))
        line0 = text.splitlines()[1]
        assert line0.endswith("40200720,15442565,2.60")

    def test_group_totals_are_equal_across_layers_and_ranks(self):
        # every token contributes one rank-r choice per layer
        rng = np.random.default_rng(0)
        header = TraceHeader("x", 4, 3, 2, (8, 8, 8, 8))
        chunks = []
        for layer in range(3):
            for rank in range(2):
                chunks.append(
                    make_records(0, layer, np.arange(40), rank, rng.integers(0, 4, 40))
                )
        table = count_routing(RoutingTrace(header, np.concatenate(chunks)))
        totals = {int(r.counts.sum()) for r in table.rows}
        assert totals == {40}



# widths (14, 2, 8, 8, 12, 4): three pairs, so three devices divide every plan
ORACLE_SPEC = build_paired_spec(4, 8, [(3.5, 0.5), (2.0, 2.0), (3.0, 1.0)])


@st.composite
def oracle_cases(draw):
    """A valid trace over sparse epochs, with layers and ranks left empty at random, and a routed-token subset."""
    layers = draw(st.integers(1, 4))
    top_k = draw(st.integers(1, 3))
    n = ORACLE_SPEC.n_experts
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7, 2**32 - 1]),
                st.integers(0, layers - 1),
                st.integers(0, 15),
                st.integers(0, top_k - 1),
                st.integers(0, n - 1),
            ),
            max_size=60,
        )
    )
    epoch, layer, token, rank, expert = (list(col) for col in zip(*events)) if events else ([],) * 5
    header = TraceHeader("oracle", n, layers, top_k, tuple(ORACLE_SPEC.expert_sizes))
    trace = RoutingTrace(header, make_records(epoch, layer, token, rank, expert))
    difficult = draw(st.sets(st.sampled_from(sorted(set(token))))) if token else set()
    return trace, events, difficult


class TestRoutingCountsOracle:
    """Every counter against a plain per-record Counter."""

    @given(oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_counters_match_per_record_oracle(self, case):
        trace, events, difficult = case
        n, layers = trace.header.n_experts, trace.header.n_layers
        sizes = ORACLE_SPEC.expert_sizes
        oracle = Counter((e, layer, r, x) for e, layer, _, r, x in events)

        epochs, counts = routing_counts(trace.records, layers, n)
        assert epochs.tolist() == sorted({e for e, *_ in events})
        k = 1 + max((r for *_, r, _ in events), default=-1)
        assert counts.shape == (len(epochs), layers, k, n)
        assert counts.dtype == np.int64
        for idx in np.ndindex(counts.shape):
            assert counts[idx] == oracle[(int(epochs[idx[0]]), *idx[1:])]

        table = count_routing(trace)
        groups = sorted({key[:3] for key in oracle})
        assert [(r.epoch, r.layer, r.rank) for r in table.rows] == groups
        for row in table.rows:
            assert row.counts.tolist() == [oracle[(row.epoch, row.layer, row.rank, x)] for x in range(n)]
        # one header line plus a row per group with events, none for empty groups
        assert len(counts_csv(table, list(sizes)).splitlines()) == 1 + len(groups)

        hard = Counter((layer, r, x) for _, layer, tok, r, x in events if tok in difficult)
        large, _ = default_size_classes(sizes)
        report = difficult_token_expert_distribution(trace, np.array(sorted(difficult), dtype=np.int64))
        grid = [[hard[(layer, 0, x)] for x in range(n)] for layer in range(layers)]
        assert report.per_layer_top1.tolist() == grid
        assert report.per_expert_top1.tolist() == [sum(col) for col in zip(*grid)]
        top12 = [sum(hard[(layer, r, x)] for layer in range(layers) for r in (0, 1)) for x in range(n)]
        assert report.per_expert_top12.tolist() == top12
        assert report.sum_large_top12 == sum(c for c, is_large in zip(top12, large) if is_large)

        plans = [plan_pairwise(ORACLE_SPEC, layers, DeviceModel(3))] + [
            plan_baselines(ORACLE_SPEC, layers, DeviceModel(3), s) for s in ("naive_contiguous", "size_sorted")
        ]
        for plan in plans:
            tokens, flops = [0] * 3, [0] * 3
            for _, layer, _, _, x in events:
                dev = plan.assignment[(layer, x)]
                tokens[dev] += 1
                flops[dev] += sizes[x]
            report = evaluate_workload(plan, trace, ORACLE_SPEC)
            assert report.per_device_tokens == tokens
            assert report.per_device_flop_proxy == flops
            assert report.imbalance_ratio == (math.inf if min(flops) == 0 else max(flops) / min(flops))

    def test_empty_records_give_empty_counts(self):
        records = make_records(0, 0, [0], 0, 0)[:0]
        epochs, counts = routing_counts(records, 2, 4)
        assert epochs.size == 0
        assert counts.shape == (0, 2, 0, 4)


class TestDifficultTokenTable:
    def test_equal_losses_give_zero_reduction(self):
        base = np.array([2.5, 1.0, 3.0])
        rows = difficult_token_table(base, base, [2.0, 1.05])
        assert [r.avg_loss_reduction for r in rows] == [0.0, 0.0]
        assert [r.token_count for r in rows] == [2, 2]

    def test_published_top_row_shape(self):
        # 180 tokens above 2.0 with mean reduction 0.58, plus sub-threshold filler
        rng = np.random.default_rng(1)
        base = np.concatenate([np.full(180, 2.5), rng.uniform(0.2, 1.9, 400)])
        modse = base.copy()
        modse[:180] -= 0.58
        rows = difficult_token_table(base, modse, [2.0, 1.05])
        assert rows[0].threshold == 2.0
        assert rows[0].token_count == 180
        assert rows[0].avg_loss_reduction == pytest.approx(0.58, abs=1e-12)

    def test_matches_filter_and_average_oracle(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0.0, 3.0, 500)
        modse = base - rng.normal(0.1, 0.3, 500)
        thresholds = [2.0, 1.8, 1.6, 1.4, 1.2, 1.05]
        rows = difficult_token_table(base, modse, thresholds)
        for row in rows:
            picked = [(b, m) for b, m in zip(base, modse) if b > row.threshold]
            assert row.token_count == len(picked)
            if picked:
                mean_red = sum(b - m for b, m in picked) / len(picked)
                assert row.avg_loss_reduction == pytest.approx(mean_red, rel=1e-12)

    @given(st.integers(0, 300))
    @settings(max_examples=30)
    def test_counts_monotone_as_threshold_decreases(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 3, 100)
        rows = difficult_token_table(base, base * 0.9, [2.5, 2.0, 1.0, 0.5])
        counts = [r.token_count for r in rows]
        assert counts == sorted(counts)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(AlignmentError, match="length"):
            difficult_token_table(np.zeros(3), np.zeros(4), [1.0])

    def test_non_descending_thresholds_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            difficult_token_table(np.zeros(3), np.zeros(3), [1.0, 2.0])

    def test_csv_rendering(self):
        rows = difficult_token_table(np.array([2.5]), np.array([1.9]), [2.0])
        assert thresholds_csv(rows) == "loss_threshold,avg_loss_red,n_tokens\n2,0.60,1\n"


class TestDifficultTokenDistribution:
    def test_published_sums_reproduced_exactly(self):
        trace, difficult = difficult_fixture_trace()
        sizes = np.array(trace.header.expert_sizes)
        large, small = default_size_classes(list(sizes))
        assert set(sizes[large]) == {6912, 6144, 4608}
        assert set(sizes[small]) == {3072, 1536, 768}
        report = difficult_token_expert_distribution(trace, difficult)
        assert report.per_expert_top12.tolist() == TOP12_PER_EXPERT
        assert report.per_expert_top1.tolist() == TOP1_PER_EXPERT
        assert report.sum_large_top12 == SUMS["top12_large"]
        assert report.sum_small_top12 == SUMS["top12_small"]
        assert report.sum_large_top1 == SUMS["top1_large"]
        assert report.sum_small_top1 == SUMS["top1_small"]
        # large + small + exactly-average classes partition all routed events
        middle12 = sum(
            int(c) for c, h in zip(report.per_expert_top12, report.expert_sizes) if h == 3840
        )
        assert report.sum_large_top12 + report.sum_small_top12 + middle12 == len(trace)

    def test_distribution_csv_contains_sums(self):
        trace, difficult = difficult_fixture_trace()
        report = difficult_token_expert_distribution(trace, difficult)
        text = distribution_csv(report)
        assert "sum_large,10473,6215" in text
        assert "sum_small,8326,3085" in text

    def test_empty_difficult_set_all_zero(self):
        trace, _ = difficult_fixture_trace()
        report = difficult_token_expert_distribution(trace, np.array([], dtype=np.int64))
        assert report.per_expert_top1.sum() == 0
        assert report.per_expert_top12.sum() == 0
        assert report.sum_large_top12 == 0

    def test_unrouted_difficult_token_rejected(self):
        # loss ids offset from the trace's token ids select no record; the first unrouted id is named
        trace, _ = difficult_fixture_trace()
        ids = np.array([5, 10**6 + 3, 10**6 + 1])
        with pytest.raises(AlignmentError, match="never routes difficult token 1000003$"):
            difficult_token_expert_distribution(trace, ids)

    def test_mass_conservation_on_per_layer_complete_trace(self):
        # each difficult token routed once per (layer, rank)
        rng = np.random.default_rng(3)
        n, layers, tokens = 4, 3, 25
        sizes = (12, 4, 8, 8)
        header = TraceHeader("x", n, layers, 2, sizes)
        chunks = []
        for layer in range(layers):
            e0 = rng.integers(0, n, tokens)
            e1 = (e0 + 1 + rng.integers(0, n - 1, tokens)) % n
            chunks.append(make_records(0, layer, np.arange(tokens), 0, e0))
            chunks.append(make_records(0, layer, np.arange(tokens), 1, e1))
        trace = RoutingTrace(header, np.concatenate(chunks))
        report = difficult_token_expert_distribution(trace, np.arange(tokens))
        assert report.per_expert_top1.sum() == tokens * layers
        assert report.per_expert_top12.sum() == 2 * tokens * layers
        assert report.per_layer_top1.sum(axis=1).tolist() == [tokens] * layers


class TestDefaultSizeClasses:
    @given(
        st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=6),
        st.integers(1, 50),
    )
    @settings(max_examples=60)
    def test_mean_width_split_is_the_h_base_split(self, fracs, h_base):
        d = 8
        ratios = []
        for f in fracs:
            delta = int(f * h_base) / d
            ratios.append((h_base / d + delta, h_base / d - delta))
        for spec in (build_paired_spec(d, h_base, ratios), homogeneous_spec(d, h_base, 2 * len(fracs))):
            large, small = default_size_classes(spec.expert_sizes)
            assert large.tolist() == [h > h_base for h in spec.expert_sizes]
            assert small.tolist() == [h < h_base for h in spec.expert_sizes]


class TestHeatmap:
    def test_csv_exact_two_by_two(self, tmp_path):
        emit_heatmap(np.array([[1, 0], [0, 1]]), tmp_path / "h.csv", tmp_path / "h.svg", [8, 8])
        assert (tmp_path / "h.csv").read_text() == "1,0\n0,1\n"

    def test_fixture_grid_row_sums(self, tmp_path):
        fix = load_difficult_tokens()
        grid = np.stack([fix.row(layer, 0) for layer in range(fix.n_layers)])
        emit_heatmap(grid, tmp_path / "h.csv", tmp_path / "h.svg", list(fix.expert_sizes))
        rows = [
            [int(v) for v in line.split(",")]
            for line in (tmp_path / "h.csv").read_text().splitlines()
        ]
        for layer, row in enumerate(rows):
            assert sum(row) == int(fix.row(layer, 0).sum())

    def test_columns_reordered_widest_first(self, tmp_path):
        grid = np.array([[1, 2, 3]])
        emit_heatmap(grid, tmp_path / "h.csv", tmp_path / "h.svg", [10, 30, 20])
        assert (tmp_path / "h.csv").read_text() == "2,3,1\n"
        svg = (tmp_path / "h.svg").read_text()
        labels = [svg.index(f">{w}</text>") for w in (30, 20, 10)]
        assert labels == sorted(labels)

    def test_equal_counts_single_fill(self, tmp_path):
        emit_heatmap(np.full((2, 3), 7), tmp_path / "h.csv", tmp_path / "h.svg", [8, 8, 8])
        svg = (tmp_path / "h.svg").read_text()
        fills = {part.split('"')[0] for part in svg.split('fill="rgb(')[1:]}
        assert len(fills) == 1
        assert svg.startswith("<svg")
        assert "http" not in svg.split("xmlns")[1][40:]  # self-contained, no external refs

    def test_non_rectangular_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rectangular"):
            emit_heatmap(np.zeros(3), tmp_path / "h.csv", tmp_path / "h.svg", [8, 8, 8])
