#!/usr/bin/env python3
"""Compare routing evenness with and without the balance penalty.

Trains the same seeded small model once per alpha and reports the mean
top-1 max/min routing ratio over the final quarter of training, at least the
last step (inf means some expert received no top-1 tokens at all, i.e. the
router collapsed).
"""

import argparse

import numpy as np

from modse.data import synthetic_corpus
from modse.model import ModelConfig
from modse.optim import OptimizerConfig
from modse.train import train


def mean_ratio(records, last):
    vals = []
    for r in records[-last:]:
        for f in r.per_layer_f:
            f = np.asarray(f)
            vals.append(np.inf if f.min() == 0 else f.max() / f.min())
    return float(np.mean(vals))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--alphas", type=float, nargs="*", default=[0.0, 0.001, 0.01, 0.1])
    args = ap.parse_args()

    corpus = synthetic_corpus(args.seed, n_docs=1500)
    last = max(1, args.steps // 4)
    for alpha in args.alphas:
        cfg = ModelConfig(
            dim=32, n_layers=1, n_heads=2, n_experts=8, top_k=2, h_base=80,
            expert_ratios=((4.5, 0.5), (4.0, 1.0), (3.0, 2.0), (2.5, 2.5)),
            seq_len=64, batch_size=8, seed=args.seed,
        )
        opt = OptimizerConfig(warmup_steps=max(1, args.steps // 10), total_steps=args.steps, alpha=alpha)
        records, _ = train(cfg, opt, corpus, args.steps)
        ratio = mean_ratio(records, last)
        final_f = np.asarray(records[-1].per_layer_f[0])
        print(
            f"alpha={alpha:<6g} mean top-1 max/min ratio over the last {last} of {args.steps} steps {ratio:8.3f}"
            f"   final f {np.round(final_f, 3)}"
        )


if __name__ == "__main__":
    main()
