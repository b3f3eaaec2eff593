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
    assignment: np.ndarray  # [layers, n_experts] int: the device of each layer's expert
    per_device_params: list[int]

    def to_json_dict(self) -> dict:
        entries = [
            {"layer": layer, "expert": expert, "device": dev}
            for layer, row in enumerate(self.assignment.tolist())
            for expert, dev in enumerate(row)
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


def _per_device(assignment: np.ndarray, device_count: int, amounts) -> list[int]:
    """Each device's sum of `amounts`, given per (layer, expert) cell or per expert.

    The sums are of Python integers, so they are exact however wide the experts.
    """
    totals = np.zeros(device_count, dtype=object)
    np.add.at(totals, assignment, np.broadcast_to(np.asarray(amounts, dtype=object), assignment.shape))
    return totals.tolist()


def _plan(strategy: str, spec: PairedExpertSpec, assignment: np.ndarray, d: int) -> PlacementPlan:
    params = [3 * spec.d_model * width for width in spec.expert_sizes]
    return PlacementPlan(strategy, d, assignment, _per_device(assignment, d, params))


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
    pair_devices = np.arange(layers * n_pairs).reshape(layers, n_pairs) % d
    return _plan("pairwise", spec, np.repeat(pair_devices, 2, axis=1), d)


def plan_baselines(
    spec: PairedExpertSpec,
    layers: int,
    devices: DeviceModel,
    strategy: str,
    order: str = "as_is",
) -> PlacementPlan:
    """Comparison strategies that ignore the pairing.

    naive_contiguous slices the layer-major list of experts into equal
    chunks, each layer's experts in spec order or descending-width order
    (`order="descending"`); size_sorted assigns widest-first, ties in
    layer-major then expert order, to the currently lightest device.
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

    sizes = spec.expert_sizes
    assignment = np.empty((layers, n), dtype=np.int64)
    if strategy == "naive_contiguous":
        experts = sorted(range(n), key=lambda e: -sizes[e]) if order == "descending" else list(range(n))
        assignment[:, experts] = np.arange(layers * n).reshape(layers, n) // (layers * n // d)
    else:
        loads = [0] * d  # widths: parameters are 3*d_model times them, so the choices are the same
        for cell in sorted(range(layers * n), key=lambda cell: -sizes[cell % n]):
            dev = loads.index(min(loads))
            assignment.flat[cell] = dev
            loads[dev] += sizes[cell % n]
    return _plan(strategy, spec, assignment, d)


def evaluate_workload(plan: PlacementPlan, trace: RoutingTrace, spec: PairedExpertSpec) -> WorkloadReport:
    """Accumulate routed tokens and token*width work per device under `plan`."""
    layers, n = plan.assignment.shape[0], spec.n_experts
    rec = trace.records
    if rec.size:
        if int(rec["expert"].max()) >= n:
            raise TraceRangeError(f"trace expert {int(rec['expert'].max())} out of range for {n} experts")
        if int(rec["layer"].max()) >= layers:
            raise TraceRangeError(f"trace layer {int(rec['layer'].max())} outside plan with {layers} layers")

    counts = routing_counts(rec, layers, n)[1].sum(axis=(0, 2))  # [layers, n]
    tokens = _per_device(plan.assignment, plan.device_count, counts)
    flops = _per_device(plan.assignment, plan.device_count, counts * np.array(spec.expert_sizes, dtype=object))
    lo, hi = min(flops), max(flops)
    ratio = math.inf if lo == 0 else hi / lo
    return WorkloadReport(tokens, flops, ratio)


def average_selected_hidden_size(trace: RoutingTrace) -> float:
    """Mean expert width over all routing events, widths from the trace header."""
    if len(trace) == 0:
        raise ValueError("average_selected_hidden_size: empty trace")
    sizes = np.asarray(trace.header.expert_sizes, dtype=np.float64)
    return float(sizes[trace.records["expert"].astype(np.int64)].mean())
