"""Post-hoc analyses over routing traces and per-token loss files.

Everything here is a pure function of its inputs. `routing_counts` counts
routing events once, into `counts[epoch, layer, rank, expert]` from one
`np.bincount`; the max/min evenness table, the hard-token expert-width
distribution, the analyze heatmap and `placement.evaluate_workload`'s
workload are slices or sums of it. The rest are loss-threshold tables and a
CSV/SVG heatmap emitter. Expert widths, always the trace header's, label
the count columns, order the heatmap widest-first and split the experts at
the mean width into two boolean masks. Ratios keep full precision until
`format_ratio` renders them with two decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trace import RoutingTrace


class AlignmentError(ValueError):
    """Per-token loss arrays do not describe the same tokens."""


# ---------------------------------------------------------------------------
# routing counts


@dataclass
class CountRow:
    epoch: int
    layer: int
    rank: int
    counts: np.ndarray  # [N] int64

    @property
    def max(self) -> int:
        return int(self.counts.max())

    @property
    def min(self) -> int:
        return int(self.counts.min())

    @property
    def ratio(self) -> float:
        return math.inf if self.min == 0 else self.max / self.min


@dataclass
class CountTable:
    counts: np.ndarray  # [E, L, K, N] from routing_counts; each row's counts is a view into it
    rows: list[CountRow]


def routing_counts(records: np.ndarray, n_layers: int, n_experts: int) -> tuple[np.ndarray, np.ndarray]:
    """Routing events per (epoch, layer, rank, expert) from one bincount.

    Returns the distinct epochs present, ascending, and an int64 array
    `counts[E, L, K, N]`: E indexes those epochs and K is the highest rank
    present plus one. Every record must have layer < n_layers and
    expert < n_experts, as RoutingTrace validation ensures.
    """
    epochs, epoch_index = np.unique(records["epoch"], return_inverse=True)
    k = int(records["rank"].max()) + 1 if records.size else 0
    key = epoch_index.astype(np.int64) * n_layers + records["layer"]
    key = (key * k + records["rank"]) * n_experts + records["expert"]
    shape = (len(epochs), n_layers, k, n_experts)
    return epochs, np.bincount(key, minlength=math.prod(shape)).reshape(shape)


def count_routing(trace: RoutingTrace) -> CountTable:
    """Exact token counts per (epoch, layer, rank, expert): a row per group with events, sorted by key."""
    epochs, counts = routing_counts(trace.records, trace.header.n_layers, trace.header.n_experts)
    groups = np.argwhere(counts.sum(axis=3) > 0).tolist()
    rows = [CountRow(int(epochs[e]), layer, rank, counts=counts[e, layer, rank]) for e, layer, rank in groups]
    return CountTable(counts, rows)


def format_ratio(ratio: float) -> str:
    return "inf" if math.isinf(ratio) else f"{ratio:.2f}"


def counts_csv(table: CountTable, expert_sizes: list[int]) -> str:
    lines = ["epoch,layer,rank," + ",".join(map(str, expert_sizes)) + ",max,min,max/min"]
    for r in table.rows:
        counts = ",".join(str(int(c)) for c in r.counts)
        lines.append(f"{r.epoch},{r.layer},{r.rank},{counts},{r.max},{r.min},{format_ratio(r.ratio)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# difficult tokens


@dataclass
class ThresholdRow:
    threshold: float
    token_count: int
    avg_loss_reduction: float  # 0.0 when no token clears the threshold


def difficult_token_table(
    baseline_losses: np.ndarray, modse_losses: np.ndarray, thresholds: list[float]
) -> list[ThresholdRow]:
    """Loss-reduction rows for tokens whose baseline loss exceeds each threshold.

    Both loss arrays must describe the same tokens in the same order;
    thresholds must be strictly descending, so each selection is a superset
    of the previous one.
    """
    base = np.asarray(baseline_losses, dtype=np.float64).reshape(-1)
    other = np.asarray(modse_losses, dtype=np.float64).reshape(-1)
    if base.shape != other.shape:
        raise AlignmentError(f"loss arrays differ in length: {base.shape[0]} vs {other.shape[0]}")
    if any(later >= earlier for earlier, later in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly descending, got {thresholds}")
    rows = []
    for t in thresholds:
        sel = base > t
        n = int(sel.sum())
        red = float((base[sel] - other[sel]).mean()) if n else 0.0
        rows.append(ThresholdRow(threshold=float(t), token_count=n, avg_loss_reduction=red))
    return rows


def thresholds_csv(rows: list[ThresholdRow]) -> str:
    lines = ["loss_threshold,avg_loss_red,n_tokens"]
    for r in rows:
        lines.append(f"{r.threshold:g},{r.avg_loss_reduction:.2f},{r.token_count}")
    return "\n".join(lines) + "\n"


@dataclass
class DifficultTokenReport:
    expert_sizes: list[int]
    per_expert_top1: np.ndarray  # [N] rank-0 events per expert
    per_expert_top12: np.ndarray  # [N] rank-0 and rank-1 events per expert
    sum_large_top1: int
    sum_small_top1: int
    sum_large_top12: int
    sum_small_top12: int
    per_layer_top1: np.ndarray  # [layers, N] rank-0 events, the heatmap grid


def difficult_token_expert_distribution(trace: RoutingTrace, difficult_token_ids: np.ndarray) -> DifficultTokenReport:
    """Count where the difficult tokens were routed, by expert and width class.

    Per-index widths come from the trace header, which fixes the expert
    numbering; the classes are `default_size_classes` of those widths, so
    exactly-average experts are excluded from both sums. AlignmentError
    names the first difficult token the trace never routes.
    """
    sizes = list(trace.header.expert_sizes)
    large, small = default_size_classes(sizes)
    ids = np.asarray(difficult_token_ids, dtype=np.uint64)  # token's dtype: isin would compare int64 as float64
    difficult = trace.records[np.isin(trace.records["token"], ids)]
    routed = np.isin(ids, difficult["token"])
    if not routed.all():
        raise AlignmentError(f"the trace never routes difficult token {ids[~routed][0]}")
    _, counts = routing_counts(difficult, trace.header.n_layers, trace.header.n_experts)
    by_rank = counts.sum(axis=0)  # [layers, K, N]
    grid = by_rank[:, :1].sum(axis=1)  # rank-0 events per (layer, expert)
    top1 = grid.sum(axis=0)
    top12 = by_rank[:, :2].sum(axis=(0, 1))
    return DifficultTokenReport(
        expert_sizes=sizes,
        per_expert_top1=top1,
        per_expert_top12=top12,
        sum_large_top1=int(top1[large].sum()),
        sum_small_top1=int(top1[small].sum()),
        sum_large_top12=int(top12[large].sum()),
        sum_small_top12=int(top12[small].sum()),
        per_layer_top1=grid,
    )


def default_size_classes(expert_sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over the experts: wider than the mean width, and narrower; exactly-average in neither.

    Compared in Python integers, so exact for any width a trace header holds:
    w is large when w*N > sum(sizes) and small when w*N < sum(sizes). Paired
    widths sum to 2*h_base per pair, so their mean, and the dividing line, is h_base.
    """
    n, total = len(expert_sizes), sum(expert_sizes)
    return np.array([w * n > total for w in expert_sizes]), np.array([w * n < total for w in expert_sizes])


def distribution_csv(report: DifficultTokenReport) -> str:
    lines = ["expert_size,tokens_top1_and_2,tokens_top1"]
    for h, c12, c1 in zip(report.expert_sizes, report.per_expert_top12, report.per_expert_top1):
        lines.append(f"{h},{int(c12)},{int(c1)}")
    lines.append(f"sum_large,{report.sum_large_top12},{report.sum_large_top1}")
    lines.append(f"sum_small,{report.sum_small_top12},{report.sum_small_top1}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# heatmap


def emit_heatmap(counts, csv_path: str | Path, svg_path: str | Path, expert_sizes: list[int]) -> None:
    """Write a CSV and a self-contained SVG of a layer x expert grid of counts.

    Columns are reordered widest-first (stable, so equal widths keep their
    relative order) in both outputs, and the SVG labels them by width.
    """
    grid = np.asarray(counts, dtype=np.int64)
    if grid.ndim != 2:
        raise ValueError(f"heatmap needs a rectangular grid, got shape {grid.shape}")
    if len(expert_sizes) != grid.shape[1]:
        raise ValueError("expert_sizes length does not match grid columns")
    order = sorted(range(grid.shape[1]), key=lambda j: -expert_sizes[j])
    grid = grid[:, order]
    csv_text = "\n".join(",".join(map(str, row)) for row in grid.tolist()) + "\n"
    Path(csv_path).write_text(csv_text, encoding="utf-8")
    Path(svg_path).write_text(_heatmap_svg(grid, [expert_sizes[j] for j in order]), encoding="utf-8")


def _heatmap_svg(grid: np.ndarray, sizes: list[int]) -> str:
    rows, cols = grid.shape
    cell, pad_left, pad_top = 42, 64, 28
    width = pad_left + cols * cell + 8
    height = pad_top + rows * cell + 8
    top = float(grid.max()) if grid.size else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, label in enumerate(sizes):
        parts.append(
            f'<text x="{pad_left + j * cell + cell / 2:.0f}" y="{pad_top - 8}" text-anchor="middle">{label}</text>'
        )
    for i in range(rows):
        parts.append(
            f'<text x="{pad_left - 6}" y="{pad_top + i * cell + cell / 2 + 4:.0f}" text-anchor="end">L{i}</text>'
        )
        for j in range(cols):
            frac = 0.0 if top == 0 else grid[i, j] / top
            # white -> dark blue ramp
            r = int(255 - 205 * frac)
            g = int(255 - 165 * frac)
            b = int(255 - 95 * frac)
            x, y = pad_left + j * cell, pad_top + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="rgb({r},{g},{b})" stroke="#999"/>')
            parts.append(
                f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" text-anchor="middle">{grid[i, j]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
