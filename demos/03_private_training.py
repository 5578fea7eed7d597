#!/usr/bin/env python3
"""Private training end to end: anchor-subspace releases vs the baseline.

Trains a logistic model at (eps=8, delta=1e-5) with every release method,
the random-basis ablation included, on a task whose label signal is split
between a strong low-rank part and a weak dense part.  The
embedding+residual release stays unbiased and wins; the embedding-only
variant hits its bias floor; full-dimensional perturbation pays noise on
every coordinate.
"""

from dataclasses import replace

from gep.accounting import DpBudget
from gep.release import METHODS, GepConfig
from gep.tasks import split_signal_task
from gep.training import TrainConfig, dp_train, gd_train

task = split_signal_task(seed=0, n=1000, input_dim=99, m_aux=300, n_eval=400)
base = TrainConfig(
    model=task.model,
    gep=GepConfig(k=12, m=300, t=2, s1=10.0, s2=2.0),
    budget=DpBudget(8.0, 1e-5),
    steps=80,
    aux_data=task.aux,
    lr=0.3,
    momentum=0.9,
    weight_decay=0.0,
    seed=0,
)

print("task: n=1000 private samples, p =", task.model.p, "parameters")
print(f"budget: eps={base.budget.epsilon}, delta={base.budget.delta}, "
      f"T={base.steps} full-batch steps\n")

print(f"{'method':<16s} {'eval accuracy':>14s} {'eval loss':>12s} {'eps spent':>11s}")
for method in METHODS:
    model, metrics = dp_train(replace(base, method=method), task.private, task.eval)
    final = metrics[-1]
    print(f"{method:<16s} {final.eval_accuracy:>14.3f} {final.eval_loss:>12.4f} "
          f"{final.epsilon_spent:>11.3f}")

model, metrics = gd_train(base, task.private, task.eval)
print(f"{'(non-private)':<16s} {metrics[-1].eval_accuracy:>14.3f} "
      f"{metrics[-1].eval_loss:>12.4f} {'-':>11s}")

print("\nper-step view of the winning run (every 10th step):")
model, metrics = dp_train(base, task.private, task.eval)
print(f"{'step':>5s} {'train loss':>12s} {'eval acc':>10s} {'proj err':>10s} {'eps':>8s}")
for m in metrics[::10]:
    print(f"{m.step:>5d} {m.train_loss:>12.4f} {m.eval_accuracy:>10.3f} "
          f"{m.projection_error_rate:>10.3f} {m.epsilon_spent:>8.3f}")
