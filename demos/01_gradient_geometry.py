#!/usr/bin/env python3
"""Why anchor subspaces work: per-sample gradients are highly redundant.

This walk-through measures the stable rank of gradient matrices on a small
over-parameterized MLP, shows exact subspace recovery when gradients are
exactly low-rank, and sweeps the projection error as the basis grows.
"""

import numpy as np

from gep.linalg import RandomStream
from gep.models import make_group_layout, per_sample_gradients
from gep.release import (
    GepConfig,
    build_anchor_basis,
    projection_error_rate,
    single_group_layout,
    stable_rank,
)
from gep.tasks import lowrank_regression_task, mlp_cluster_task

print("=" * 70)
print("1. Stable rank of a gradient matrix (MLP on clustered data)")
print("=" * 70)
task = mlp_cluster_task(seed=0)
grads = per_sample_gradients(task.model, task.private)
n, p = grads.shape
sr = stable_rank(grads)
print(f"gradient matrix: {n} samples x {p} parameters")
print(f"stable rank: {sr:.1f}  (vs. max possible {min(n, p)})")
print("-> the per-sample gradients concentrate in a tiny subspace\n")

print("=" * 70)
print("2. Exact recovery: gradients confined to a 5-dim subspace")
print("=" * 70)
exact = lowrank_regression_task(seed=1, n=200, input_dim=99, rank=5, m_aux=10)
g = per_sample_gradients(exact.model, exact.private)
g_anchor = per_sample_gradients(exact.model, exact.aux)
basis = build_anchor_basis(
    g_anchor,
    single_group_layout(100, 5),
    GepConfig(k=5, m=10, t=10),
    RandomStream(1).generator(0),
)
err = projection_error_rate(g, basis)
print(f"10 anchor gradients, 5 basis vectors, 10 power iterations")
print(f"relative projection error of the mean gradient: {err:.2e}")
print("-> with enough anchors, an exactly low-rank subspace is recovered\n")

print("=" * 70)
print("3. Approximately low-rank gradients: error falls as k grows")
print("=" * 70)
approx = lowrank_regression_task(
    seed=2, n=200, input_dim=99, rank=12, tail=0.15, m_aux=100
)
g = per_sample_gradients(approx.model, approx.private)
g_anchor = per_sample_gradients(approx.model, approx.aux)
print(f"{'k':>4s} {'projection error':>18s}")
for k in (5, 10, 20, 40, 80):
    basis = build_anchor_basis(
        g_anchor,
        single_group_layout(100, k),
        GepConfig(k=k, m=100, t=2),
        RandomStream(2).generator(k),
    )
    print(f"{k:>4d} {projection_error_rate(g, basis):>18.4f}")
print("-> diminishing returns once the strong directions are covered\n")

print("=" * 70)
print("4. The residual is irreducible: its stable rank is much higher")
print("=" * 70)
grads = per_sample_gradients(task.model, task.private)
stream = RandomStream(0)
relabeled = task.aux.with_labels(
    stream.generator(1).integers(0, task.model.output_dim, size=task.aux.n)
)
anchor_grads = per_sample_gradients(task.model, relabeled)
layout = make_group_layout(task.model, 40)
basis = build_anchor_basis(
    anchor_grads, layout, GepConfig(k=40, m=task.aux.n, t=2), stream.generator(2)
)
sr_g, sr_r = stable_rank(grads), stable_rank(grads, basis)
print(f"stable rank of gradients: {sr_g:.1f}")
print(f"stable rank of residuals after removing 40 anchor directions: {sr_r:.1f}")
print(f"ratio: {sr_r / sr_g:.1f}x")
print("-> what is left behind looks like noise; compressing it further is hard")
