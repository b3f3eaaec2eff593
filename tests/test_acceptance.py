"""Acceptance criteria, one test per criterion (A1..A10).

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines. Tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from modse import gradcheck
from modse.data import synthetic_corpus
from modse.fixtures import load_difficult_tokens, load_routing_epoch7
from modse.model import ModelConfig
from modse.moe import build_paired_spec, homogeneous_spec
from modse.analytics import CountRow, difficult_token_expert_distribution
from modse.optim import OptimizerConfig
from modse.placement import DeviceModel, average_selected_hidden_size, plan_baselines, plan_pairwise
from modse.tensor import Tensor
from modse.trace import RoutingTrace, TraceHeader, make_records
from modse.train import balance_loss, train

PUBLISHED_RATIOS = [(4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5)]
REFERENCE_PAIRS = {
    (1536, 3840): [(6912, 768), (6144, 1536), (4608, 3072), (3840, 3840)],
    (2048, 5120): [(9216, 1024), (8192, 2048), (6144, 4096), (5120, 5120)],
}


def ok(name: str, detail: str = ""):
    print(f"{name}: PASS {detail}".rstrip())


def test_A1_pairing_fidelity():
    t0 = time.time()
    for (d, h), expected in REFERENCE_PAIRS.items():
        spec = build_paired_spec(d, h, PUBLISHED_RATIOS)
        assert spec.pairs == tuple(expected)
        for large, small in spec.pairs:
            assert large + small == 2 * h
    assert time.time() - t0 < 1.0
    ok("A1 pairing fidelity")


def test_A2_parameter_parity():
    configs = [(64, 160), (1536, 3840), (2048, 5120)]
    for d, h in configs:
        diverse = build_paired_spec(d, h, PUBLISHED_RATIOS)
        uniform = homogeneous_spec(d, h, 8)
        diverse_total = sum(3 * d * hh for hh in diverse.expert_sizes)
        uniform_total = sum(3 * d * hh for hh in uniform.expert_sizes)
        assert diverse_total == uniform_total
    ok("A2 parameter parity", f"({len(configs)} configs, exact)")


def test_A3_gradient_correctness():
    t0 = time.time()
    results = gradcheck.run_all("micro")
    elapsed = time.time() - t0
    for r in results:
        assert r.worst_err <= r.tol, f"{r.name}: {r.worst_err:.3e} > {r.tol}"
    assert elapsed < 120.0
    detail = ", ".join(f"{r.name}={r.worst_err:.2e}" for r in results)
    ok("A3 gradient correctness", f"({detail}, {elapsed:.0f}s)")


def _gate_output_from_probs(probs):
    from modse.moe import GateOutput

    probs = np.asarray(probs, dtype=np.float64)
    idx = np.argsort(-probs, axis=1, kind="stable")[:, :2]
    return GateOutput(topk_indices=idx, logits=Tensor(np.log(np.maximum(probs, 1e-300)), dtype=np.float64))


def test_A4_balance_loss_values():
    n = 4
    base = np.full(n, 0.6 / (n - 1))
    base[0] = 0.4
    uniform = np.stack([np.roll(base, s) for s in range(n) for _ in range(5)])
    stats = balance_loss(_gate_output_from_probs(uniform), alpha=0.01)
    assert abs(stats.loss.item() - 0.01) <= 1e-12

    collapse = np.zeros((6, n))
    collapse[:, 0] = 1.0
    stats = balance_loss(_gate_output_from_probs(collapse), alpha=0.01)
    assert stats.loss.item() == 0.01 * n

    rng = np.random.default_rng(0)
    raw = rng.random((100, 8)) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    stats = balance_loss(_gate_output_from_probs(probs), alpha=0.01)
    t = probs.shape[0]
    f = np.zeros(8)
    P = np.zeros(8)
    for row in probs:
        f[int(np.argmax(row))] += 1 / t
        P += row / t
    assert abs(stats.loss.item() - 0.01 * 8 * float(f @ P)) <= 1e-10
    ok("A4 balance-loss values")


def test_A5_placement_equality():
    for (d, h) in REFERENCE_PAIRS:
        spec = build_paired_spec(d, h, PUBLISHED_RATIOS)
        for dcount in (1, 2, 4):
            plan = plan_pairwise(spec, 1, DeviceModel(dcount))
            assert len(set(plan.per_device_params)) == 1
            assert sum(plan.per_device_params) == sum(3 * d * hh for hh in spec.expert_sizes)
        baseline = plan_baselines(spec, 1, DeviceModel(4), "naive_contiguous", order="descending")
        assert len(set(baseline.per_device_params)) > 1
    ok("A5 placement equality", "(pairwise exact-equal; descending contiguous unequal)")


def test_A6_analytics_fixtures():
    fix = load_routing_epoch7()
    ratio = CountRow(7, 0, 0, fix.row(0, 0)).ratio
    assert abs(ratio - 2.60) <= 0.005

    dfix = load_difficult_tokens()
    header = TraceHeader("fixture", 8, dfix.n_layers, 2, dfix.expert_sizes)
    chunks = []
    tok = 0
    for row in range(len(dfix.layers)):
        for expert, count in enumerate(dfix.counts[row]):
            if count:
                chunks.append(
                    make_records(0, int(dfix.layers[row]), np.arange(tok, tok + count),
                                 int(dfix.ranks[row]), expert)
                )
                tok += int(count)
    trace = RoutingTrace(header, np.concatenate(chunks))
    report = difficult_token_expert_distribution(trace, np.arange(tok))
    assert report.sum_large_top12 == 10473
    assert report.sum_small_top12 == 8326
    assert report.sum_large_top1 == 6215
    assert report.sum_small_top1 == 3085
    ok("A6 analytics fixtures", f"(ratio {ratio:.4f}; sums 10473/8326 and 6215/3085)")


def test_A7_training_smoke():
    cfg = ModelConfig()  # toy defaults: d=64, 2 layers, N=8, k=2, scaled ratios
    assert cfg.expert_spec().pairs == ((288, 32), (256, 64), (192, 128), (160, 160))
    opt = OptimizerConfig(warmup_steps=50, total_steps=500)
    corpus = synthetic_corpus(cfg.seed)
    t0 = time.time()
    records, _ = train(cfg, opt, corpus, steps=500)
    elapsed = time.time() - t0
    initial, final = records[0].ce_loss, records[-1].ce_loss
    assert final <= initial - 0.5, f"CE {initial:.3f} -> {final:.3f}"
    assert elapsed < 600.0
    ok("A7 training smoke", f"(CE {initial:.2f} -> {final:.2f} in {elapsed / 60:.1f} min)")


def _mean_top1_ratio(records, last=100):
    vals = []
    for r in records[-last:]:
        for f in r.per_layer_f:
            f = np.asarray(f)
            vals.append(np.inf if f.min() == 0 else float(f.max() / f.min()))
    return float(np.mean(vals))


def test_A8_balance_loss_effect():
    def run(alpha):
        cfg = ModelConfig(
            dim=32, n_layers=1, n_heads=2, n_experts=8, top_k=2, h_base=80,
            expert_ratios=PUBLISHED_RATIOS, seq_len=64, batch_size=8, seed=7,
        )
        opt = OptimizerConfig(warmup_steps=20, total_steps=200, alpha=alpha)
        records, _ = train(cfg, opt, synthetic_corpus(7, n_docs=1500), 200)
        return _mean_top1_ratio(records)

    with_loss = run(0.01)
    without = run(0.0)
    assert with_loss < without, f"{with_loss} !< {without}"
    ok("A8 balance-loss effect", f"(mean max/min ratio {with_loss:.2f} vs {without})")


def test_A9_workload_metric():
    spec = build_paired_spec(1536, 3840, PUBLISHED_RATIOS)
    header = TraceHeader("u", 8, 1, 2, tuple(spec.expert_sizes))
    recs = make_records(0, 0, np.arange(8 * 13), 0, np.arange(8 * 13) % 8)
    trace = RoutingTrace(header, recs)
    assert average_selected_hidden_size(trace) == 3840.0
    ok("A9 workload metric", "(uniform trace -> exactly h_base)")


def test_A10_determinism(tmp_path):
    cfg = {
        "model": {
            "dim": 32, "n_layers": 2, "n_heads": 2, "n_experts": 8, "top_k": 2,
            "vocab_size": 258, "h_base": 80,
            "expert_ratios": [[4.5, 0.5], [4.0, 1.0], [3.0, 2.0], [2.5, 2.5]],
            "seq_len": 32, "batch_size": 4, "seed": 11,
        },
        "optimizer": {"warmup_steps": 2, "total_steps": 6, "lr_peak": 1e-3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    digests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        r = subprocess.run(
            [sys.executable, "-m", "modse", "train", "--config", str(cfg_path),
             "--steps", "6", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        digests.append(
            tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("checkpoint.bin", "metrics.jsonl")
            )
        )
    assert digests[0] == digests[1]
    ok("A10 determinism", "(bitwise-identical checkpoint and metrics)")
