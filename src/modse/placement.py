"""Expert-to-device planning and trace-driven workload evaluation.

Devices are logical; nothing executes remotely. The pairwise strategy keeps
both members of each width pair on one device, so every device ends up with
exactly the same parameter count whenever the pair count divides evenly. Two
baselines (contiguous slicing and largest-first greedy) exist to show the
pairing is doing real work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import routing_counts
from .moe import PairedExpertSpec
from .trace import RoutingTrace

STRATEGIES = ("pairwise", "naive_contiguous", "size_sorted")


class PlanningError(ValueError):
    """Device count incompatible with the expert layout."""


class TraceRangeError(ValueError):
    """Trace references a layer or expert outside the plan."""


@dataclass(frozen=True)
class DeviceModel:
    device_count: int

    def __post_init__(self):
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")


@dataclass
class PlacementPlan:
    strategy: str
    device_count: int
    assignment: dict[tuple[int, int], int]  # (layer, expert) -> device
    per_device_params: list[int]

    def to_json_dict(self) -> dict:
        entries = [
            {"layer": layer, "expert": expert, "device": dev}
            for (layer, expert), dev in sorted(self.assignment.items())
        ]
        return {
            "strategy": self.strategy,
            "device_count": self.device_count,
            "assignment": entries,
            "per_device_params": self.per_device_params,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")


@dataclass
class WorkloadReport:
    per_device_tokens: list[int]
    per_device_flop_proxy: list[int]
    imbalance_ratio: float  # max/min of the flop proxy; inf when some device saw nothing


def _expert_params(spec: PairedExpertSpec, expert: int) -> int:
    return 3 * spec.d_model * spec.expert_sizes[expert]


def _totals(spec: PairedExpertSpec, assignment: dict[tuple[int, int], int], d: int) -> list[int]:
    totals = [0] * d
    for (_, expert), dev in assignment.items():
        totals[dev] += _expert_params(spec, expert)
    return totals


def plan_pairwise(spec: PairedExpertSpec, layers: int, devices: DeviceModel) -> PlacementPlan:
    """Round-robin width pairs over devices, both pair members together.

    Every pair carries the same parameter count (widths sum to 2*h_base), so
    equal pair counts give exactly equal per-device totals. The round-robin
    runs continuously across layers, which spreads each layer over devices
    and guarantees equality whenever pairs*layers is divisible by the device
    count.
    """
    d = devices.device_count
    n_pairs = len(spec.pairs)
    if (n_pairs * layers) % d != 0:
        raise PlanningError(
            f"pairwise plan needs pairs*layers divisible by devices: "
            f"{n_pairs} pairs * {layers} layers not divisible by {d}"
        )
    assignment: dict[tuple[int, int], int] = {}
    for layer in range(layers):
        for j in range(n_pairs):
            dev = (layer * n_pairs + j) % d
            assignment[(layer, 2 * j)] = dev
            assignment[(layer, 2 * j + 1)] = dev
    return PlacementPlan("pairwise", d, assignment, _totals(spec, assignment, d))


def plan_baselines(
    spec: PairedExpertSpec,
    layers: int,
    devices: DeviceModel,
    strategy: str,
    order: str = "as_is",
) -> PlacementPlan:
    """Comparison strategies that ignore the pairing.

    naive_contiguous slices the per-layer expert list into equal chunks, in
    spec order or descending-width order (`order="descending"`); size_sorted
    assigns widest-first to the currently lightest device.
    """
    if strategy not in ("naive_contiguous", "size_sorted"):
        raise ValueError(f"unknown baseline strategy {strategy!r}")
    if order not in ("as_is", "descending"):
        raise ValueError(f"unknown order {order!r}")
    d = devices.device_count
    n = spec.n_experts
    if (n * layers) % d != 0:
        raise PlanningError(
            f"{strategy} plan needs experts*layers divisible by devices: "
            f"{n} experts * {layers} layers not divisible by {d}"
        )

    flat: list[tuple[int, int]] = []
    for layer in range(layers):
        experts = list(range(n))
        if order == "descending":
            experts.sort(key=lambda e: -spec.expert_sizes[e])
        flat.extend((layer, e) for e in experts)

    assignment: dict[tuple[int, int], int] = {}
    if strategy == "naive_contiguous":
        chunk = len(flat) // d
        for pos, key in enumerate(flat):
            assignment[key] = pos // chunk
    else:
        flat.sort(key=lambda key: -spec.expert_sizes[key[1]])
        loads = [0] * d
        for key in flat:
            dev = min(range(d), key=lambda i: (loads[i], i))
            assignment[key] = dev
            loads[dev] += _expert_params(spec, key[1])
    return PlacementPlan(strategy, d, assignment, _totals(spec, assignment, d))


def evaluate_workload(plan: PlacementPlan, trace: RoutingTrace, spec: PairedExpertSpec) -> WorkloadReport:
    """Accumulate routed tokens and token*width work per device under `plan`."""
    n = spec.n_experts
    layers = 1 + max(layer for layer, _ in plan.assignment)
    rec = trace.records
    if rec.size:
        if int(rec["expert"].max()) >= n:
            raise TraceRangeError(f"trace expert {int(rec['expert'].max())} out of range for {n} experts")
        if int(rec["layer"].max()) >= layers:
            raise TraceRangeError(f"trace layer {int(rec['layer'].max())} outside plan with {layers} layers")

    counts = routing_counts(rec, layers, n)[1].sum(axis=(0, 2))  # [layers, n]
    sizes = spec.expert_sizes

    tokens = [0] * plan.device_count
    flops = [0] * plan.device_count
    for (layer, expert), dev in plan.assignment.items():
        c = int(counts[layer, expert])
        tokens[dev] += c
        flops[dev] += c * sizes[expert]
    lo, hi = min(flops), max(flops)
    ratio = math.inf if lo == 0 else hi / lo
    return WorkloadReport(tokens, flops, ratio)


def average_selected_hidden_size(trace: RoutingTrace) -> float:
    """Mean expert width over all routing events, widths from the trace header."""
    if len(trace) == 0:
        raise ValueError("average_selected_hidden_size: empty trace")
    sizes = np.asarray(trace.header.expert_sizes, dtype=np.float64)
    return float(sizes[trace.records["expert"].astype(np.int64)].mean())
