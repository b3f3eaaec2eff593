import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modse.fixtures import load_routing_epoch7
from modse.model import DEFAULT_EXPERT_RATIOS
from modse.moe import build_paired_spec, homogeneous_spec
from modse.placement import (
    DeviceModel,
    PlanningError,
    TraceRangeError,
    average_selected_hidden_size,
    evaluate_workload,
    plan_baselines,
    plan_pairwise,
)
from modse.trace import RECORD_DTYPE, RoutingTrace, TraceHeader, make_records

PUBLISHED_RATIOS = [(4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5)]


def spec_300m():
    return build_paired_spec(1536, 3840, PUBLISHED_RATIOS)


def make_trace(spec, layers, records):
    header = TraceHeader(
        spec_hash="t",
        n_experts=spec.n_experts,
        n_layers=layers,
        top_k=2,
        expert_sizes=tuple(spec.expert_sizes),
    )
    return RoutingTrace(header, records)


def uniform_trace(spec, layers, per_expert=5):
    recs = []
    tok = 0
    for layer in range(layers):
        for e in range(spec.n_experts):
            for _ in range(per_expert):
                recs.append((0, layer, tok, 0, e))
                tok += 1
    return make_trace(spec, layers, np.array(recs, dtype=RECORD_DTYPE))


class TestPairwisePlan:
    def test_published_spec_one_layer_four_devices(self):
        plan = plan_pairwise(spec_300m(), 1, DeviceModel(4))
        assert plan.per_device_params == [3 * 1536 * 7680] * 4

    def test_two_devices_two_pairs_each(self):
        plan = plan_pairwise(spec_300m(), 1, DeviceModel(2))
        assert plan.per_device_params == [2 * 3 * 1536 * 7680] * 2
        per_dev = {}
        for (layer, e), dev in np.ndenumerate(plan.assignment):
            per_dev.setdefault(dev, []).append(e)
        assert sorted(len(v) for v in per_dev.values()) == [4, 4]

    def test_pair_members_share_device(self):
        plan = plan_pairwise(spec_300m(), 3, DeviceModel(4))
        for layer in range(3):
            for j in range(4):
                assert plan.assignment[(layer, 2 * j)] == plan.assignment[(layer, 2 * j + 1)]

    def test_homogeneous_spec_balanced(self):
        plan = plan_pairwise(homogeneous_spec(64, 160, 8), 2, DeviceModel(2))
        assert len(set(plan.per_device_params)) == 1

    def test_indivisible_pair_count_rejected(self):
        with pytest.raises(PlanningError, match="divisible"):
            plan_pairwise(spec_300m(), 1, DeviceModel(3))

    def test_multi_layer_rotation_balances_fewer_pairs_than_devices(self):
        # 2 pairs over 4 devices balances out after 2 layers of rotation
        spec = build_paired_spec(8, 8, [(1.5, 0.5), (1.25, 0.75)])
        plan = plan_pairwise(spec, 2, DeviceModel(4))
        assert len(set(plan.per_device_params)) == 1

    @given(
        n_pairs=st.integers(1, 5),
        layers=st.integers(1, 5),
        devices=st.integers(1, 8),
        h_base=st.integers(2, 64),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=80)
    def test_equal_totals_whenever_divisible(self, n_pairs, layers, devices, h_base, seed):
        if (n_pairs * layers) % devices != 0:
            return
        rng = np.random.default_rng(seed)
        d = 4
        pairs = []
        for _ in range(n_pairs):
            delta = int(rng.integers(0, h_base))
            pairs.append(((h_base + delta) / d, (h_base - delta) / d))
        spec = build_paired_spec(d, h_base, pairs)
        plan = plan_pairwise(spec, layers, DeviceModel(devices))
        assert len(set(plan.per_device_params)) == 1
        assert plan.assignment.shape == (layers, spec.n_experts)
        assert ((0 <= plan.assignment) & (plan.assignment < devices)).all()


class TestBaselinePlans:
    def test_contiguous_in_spec_order_happens_to_balance(self):
        plan = plan_baselines(spec_300m(), 1, DeviceModel(4), "naive_contiguous")
        assert plan.per_device_params == [3 * 1536 * 7680] * 4

    def test_contiguous_descending_is_unbalanced(self):
        plan = plan_baselines(spec_300m(), 1, DeviceModel(4), "naive_contiguous", order="descending")
        expect = [s * 3 * 1536 for s in (13056, 8448, 6912, 2304)]
        assert plan.per_device_params == expect
        assert len(set(plan.per_device_params)) > 1

    def test_size_sorted_greedy_recovers_balance_here(self):
        plan = plan_baselines(spec_300m(), 1, DeviceModel(4), "size_sorted")
        assert plan.per_device_params == [3 * 1536 * 7680] * 4

    def test_single_device_trivially_balanced(self):
        plan = plan_baselines(spec_300m(), 1, DeviceModel(1), "naive_contiguous")
        assert plan.per_device_params == [8 * 3 * 1536 * 3840]

    def test_indivisible_expert_count_rejected(self):
        with pytest.raises(PlanningError, match="divisible"):
            plan_baselines(spec_300m(), 1, DeviceModel(3), "naive_contiguous")

    def test_every_expert_assigned_exactly_once(self):
        for strategy in ("naive_contiguous", "size_sorted"):
            plan = plan_baselines(spec_300m(), 2, DeviceModel(4), strategy)
            assert plan.assignment.shape == (2, 8)
            assert ((0 <= plan.assignment) & (plan.assignment < 4)).all()


SPECS = {
    "homogeneous": homogeneous_spec(64, 160, 8),
    "toy": build_paired_spec(64, 160, list(DEFAULT_EXPERT_RATIOS)),  # widths 288, 32, 256, 64, 192, 128, 160, 160
}
PAIRWISE = [[0, 0, 1, 1, 2, 2, 3, 3], [0, 0, 1, 1, 2, 2, 3, 3]]
CONTIGUOUS = [[0, 0, 0, 0, 1, 1, 1, 1], [2, 2, 2, 2, 3, 3, 3, 3]]
ROUND_ROBIN = [[0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 3, 0, 1, 2, 3]]
TOY_SIZE_SORTED = [[0, 0, 2, 2, 2, 2, 0, 1], [1, 1, 3, 3, 3, 3, 0, 1]]
EXACT_ASSIGNMENTS = {
    ("homogeneous", "pairwise", "as_is"): PAIRWISE,
    ("homogeneous", "naive_contiguous", "as_is"): CONTIGUOUS,
    ("homogeneous", "naive_contiguous", "descending"): CONTIGUOUS,
    ("homogeneous", "size_sorted", "as_is"): ROUND_ROBIN,
    ("homogeneous", "size_sorted", "descending"): ROUND_ROBIN,
    ("toy", "pairwise", "as_is"): PAIRWISE,
    ("toy", "naive_contiguous", "as_is"): CONTIGUOUS,
    ("toy", "naive_contiguous", "descending"): [[0, 1, 0, 1, 0, 1, 0, 1], [2, 3, 2, 3, 2, 3, 2, 3]],
    ("toy", "size_sorted", "as_is"): TOY_SIZE_SORTED,
    ("toy", "size_sorted", "descending"): TOY_SIZE_SORTED,
}


class TestExactAssignments:
    """Which device holds each expert, at 2 layers and 4 devices: per-device totals alone miss a changed tie order."""

    @pytest.mark.parametrize("spec,strategy,order", EXACT_ASSIGNMENTS, ids=list(map("-".join, EXACT_ASSIGNMENTS)))
    def test_assignment(self, spec, strategy, order):
        if strategy == "pairwise":
            plan = plan_pairwise(SPECS[spec], 2, DeviceModel(4))
        else:
            plan = plan_baselines(SPECS[spec], 2, DeviceModel(4), strategy, order=order)
        assert plan.assignment.tolist() == EXACT_ASSIGNMENTS[spec, strategy, order]


class TestWorkload:
    def test_uniform_trace_pairwise_ratio_exactly_one(self):
        spec = spec_300m()
        plan = plan_pairwise(spec, 2, DeviceModel(4))
        report = evaluate_workload(plan, uniform_trace(spec, 2), spec)
        assert report.imbalance_ratio == 1.0
        assert len(set(report.per_device_flop_proxy)) == 1

    def test_single_expert_trace_gives_inf_sentinel(self):
        spec = spec_300m()
        plan = plan_pairwise(spec, 1, DeviceModel(4))
        recs = make_records(0, 0, np.arange(10), 0, 3)
        report = evaluate_workload(plan, make_trace(spec, 1, recs), spec)
        assert math.isinf(report.imbalance_ratio)
        assert report.per_device_tokens[plan.assignment[(0, 3)]] == 10

    def test_epoch7_fixture_vs_per_record_oracle(self):
        # published layer-0 top-0 counts, scaled down so the trace is materializable
        fix = load_routing_epoch7()
        counts = fix.row(0, 0) // 10000
        spec = spec_300m()
        # fixture columns are width-ordered; map onto spec expert indices
        sizes = list(spec.expert_sizes)
        col_to_expert = []
        used = set()
        for width in fix.expert_sizes:
            idx = next(i for i in range(len(sizes)) if sizes[i] == width and i not in used)
            used.add(idx)
            col_to_expert.append(idx)
        recs = []
        tok = 0
        for col, c in enumerate(counts):
            for _ in range(int(c)):
                recs.append((7, 0, tok, 0, col_to_expert[col]))
                tok += 1
        rec_arr = np.array(recs, dtype=RECORD_DTYPE)
        trace = make_trace(spec, 1, rec_arr)
        plan = plan_pairwise(spec, 1, DeviceModel(4))
        report = evaluate_workload(plan, trace, spec)

        # independent per-record accumulation
        tokens = [0] * 4
        flops = [0] * 4
        for r in rec_arr:
            dev = plan.assignment[(int(r["layer"]), int(r["expert"]))]
            tokens[dev] += 1
            flops[dev] += sizes[int(r["expert"])]
        assert report.per_device_tokens == tokens
        assert report.per_device_flop_proxy == flops
        assert report.imbalance_ratio == pytest.approx(max(flops) / min(flops))

    def test_record_order_invariance(self):
        spec = spec_300m()
        plan = plan_pairwise(spec, 2, DeviceModel(2))
        trace = uniform_trace(spec, 2, per_expert=3)
        rng = np.random.default_rng(0)
        shuffled = make_trace(spec, 2, rng.permutation(trace.records))
        a = evaluate_workload(plan, trace, spec)
        b = evaluate_workload(plan, shuffled, spec)
        assert a.per_device_flop_proxy == b.per_device_flop_proxy

    def test_out_of_range_expert_rejected(self):
        spec = spec_300m()
        plan = plan_pairwise(spec, 1, DeviceModel(4))
        # bypass RoutingTrace validation by widening the header, then evaluate
        # against the narrower spec
        wide = TraceHeader("t", 16, 1, 2, tuple(spec.expert_sizes) * 2)
        trace = RoutingTrace(wide, make_records(0, 0, [0], 0, 12))
        with pytest.raises(TraceRangeError, match="expert"):
            evaluate_workload(plan, trace, spec)


class TestAverageSelectedHiddenSize:
    def test_uniform_routing_gives_h_base_exactly(self):
        spec = spec_300m()
        assert average_selected_hidden_size(uniform_trace(spec, 2)) == 3840.0

    def test_all_tokens_to_widest(self):
        spec = spec_300m()
        recs = make_records(0, 0, np.arange(7), 0, 0)  # expert 0 is the 4.5-ratio one
        assert average_selected_hidden_size(make_trace(spec, 1, recs)) == 6912.0

    def test_skewed_counts_match_weighted_mean(self):
        spec = spec_300m()
        counts = {0: 5, 1: 2, 4: 3}
        recs = []
        tok = 0
        for e, c in counts.items():
            for _ in range(c):
                recs.append((0, 0, tok, 0, e))
                tok += 1
        trace = make_trace(spec, 1, np.array(recs, dtype=RECORD_DTYPE))
        sizes = spec.expert_sizes
        expect = sum(sizes[e] * c for e, c in counts.items()) / sum(counts.values())
        assert average_selected_hidden_size(trace) == pytest.approx(expect, rel=1e-15)

    def test_empty_trace_rejected(self):
        spec = spec_300m()
        with pytest.raises(ValueError, match="empty"):
            average_selected_hidden_size(make_trace(spec, 1, np.zeros(0, dtype=RECORD_DTYPE)))


class TestPlanJson:
    def test_schema_and_roundtrip(self, tmp_path):
        import json

        plan = plan_pairwise(spec_300m(), 1, DeviceModel(2))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = json.loads(path.read_text())
        assert loaded["strategy"] == "pairwise"
        assert loaded["device_count"] == 2
        assert loaded["per_device_params"] == plan.per_device_params
        assert {(e["layer"], e["expert"]): e["device"] for e in loaded["assignment"]} == {
            cell: int(dev) for cell, dev in np.ndenumerate(plan.assignment)
        }
