#!/usr/bin/env python3
"""Ablations: random bases, auxiliary data sources, anchor counts, cost.

Reproduces the side studies at desk scale: random projections preserve
distances but not gradient structure; random labels on held-out features
estimate the subspace about as well as correct ones; more anchors help;
and the power-iteration flop count matches its analytic model.
"""

import numpy as np

from gep.data import Dataset
from gep.harness import bench_command
from gep.linalg import RandomStream
from gep.models import per_sample_gradients
from gep.release import (
    GepConfig,
    build_anchor_basis,
    projection_error_rate,
    single_group_layout,
)
from gep.tasks import lowrank_regression_task

task = lowrank_regression_task(
    seed=0, n=200, input_dim=99, rank=12, tail=0.15, m_aux=200
)
grads = per_sample_gradients(task.model, task.private)
anchor_grads = per_sample_gradients(task.model, task.aux)
stream = RandomStream(0)

print("=" * 70)
print("1. Power-iteration basis vs random basis")
print("=" * 70)
print(f"{'k':>4s} {'power':>10s} {'random':>10s} {'ratio':>8s}")
for k in (10, 20, 40, 80):
    errs = {}
    for mode in ("power", "random"):
        basis = build_anchor_basis(
            anchor_grads,
            single_group_layout(100, k),
            GepConfig(k=k, m=200, t=2),
            stream.generator(0, k),
            basis_mode=mode,
        )
        errs[mode] = projection_error_rate(grads, basis)
    print(f"{k:>4d} {errs['power']:>10.4f} {errs['random']:>10.4f} "
          f"{errs['random'] / errs['power']:>8.1f}x")
print("-> preserving pairwise distances is not enough to reconstruct gradients\n")

print("=" * 70)
print("2. Auxiliary data source ablation (k = 20)")
print("=" * 70)
rng = stream.generator(1)
sources = {
    "held-out, correct labels": task.aux,
    "held-out, random labels": task.aux.with_labels(rng.standard_normal(task.aux.n)),
    "pure Gaussian features": Dataset(
        rng.standard_normal((task.aux.n, 99)), rng.standard_normal(task.aux.n)
    ),
}
for name, aux in sources.items():
    a_grads = per_sample_gradients(task.model, aux)
    basis = build_anchor_basis(
        a_grads,
        single_group_layout(100, 20),
        GepConfig(k=20, m=task.aux.n, t=2),
        stream.generator(2),
    )
    print(f"{name:<28s} projection error = "
          f"{projection_error_rate(grads, basis):.4f}")
print("-> labels barely matter; matching FEATURES is what counts\n")

print("=" * 70)
print("3. Anchor count (k = 20)")
print("=" * 70)
for m in (50, 100, 200):
    a_grads = per_sample_gradients(task.model, task.aux.subset(np.arange(m)))
    basis = build_anchor_basis(
        a_grads,
        single_group_layout(100, 20),
        GepConfig(k=20, m=m, t=2),
        stream.generator(3, m),
    )
    print(f"m = {m:>4d}: projection error = {projection_error_rate(grads, basis):.4f}")
print("-> more anchor gradients sharpen the subspace estimate\n")

print("=" * 70)
print("4. Cost of one power iteration vs the flop model")
print("=" * 70)
bench_command(m=100, k=20, p=1000, groups=(1, 2, 5))
print("-> grouping divides the dominant 2mkp term by the group count")
