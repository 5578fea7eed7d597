"""Ready-made synthetic tasks used by the experiments and demos.

Each builder is deterministic in its seed and returns plain library
objects (models and datasets), so tests and demo scripts can share the
same reference setups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, split_pool, synth_dataset
from .linalg import RandomStream
from .models import ModelSpec, init_model

__all__ = [
    "TaskBundle",
    "lowrank_regression_task",
    "mlp_cluster_task",
    "logistic_mixture_task",
    "split_signal_task",
    "toy_regression_task",
]

# Substream purposes for task construction, here and in
# ``harness.build_task``.
_DATA = 0
_AUX = 1
_INIT = 2
_SPLIT = 3


@dataclass(frozen=True, eq=False)
class TaskBundle:
    """A model plus the datasets a training run needs."""

    model: ModelSpec
    private: Dataset
    eval: Dataset
    aux: Dataset


def lowrank_regression_task(
    seed: int,
    n: int = 200,
    input_dim: int = 99,
    rank: int = 5,
    tail: float = 0.0,
    m_aux: int = 10,
) -> TaskBundle:
    """Linear regression whose gradients at the zero model span ``rank`` dims.

    Private and auxiliary features come from the same distribution; with
    ``tail == 0`` the per-sample gradients sit in an exact ``rank``
    dimensional subspace (the feature subspace plus the bias direction),
    and a positive ``tail`` makes them approximately low-rank instead.
    """
    stream = RandomStream(seed)
    n_eval = max(20, n // 5)
    params = {
        "n": n + m_aux + n_eval,
        "input_dim": input_dim,
        "rank": rank,
        "tail": tail,
    }
    # one pooled draw so every split shares the same feature subspace
    full = synth_dataset("lowrank-gradient-task", params, stream.generator(_DATA))
    aux, holdout, private = split_pool(full, m_aux, n_eval)
    model = init_model("linear", input_dim, 1)
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)


def mlp_cluster_task(
    seed: int,
    n: int = 512,
    input_dim: int = 20,
    classes: int = 4,
    hidden_dim: int = 64,
    m_aux: int = 256,
    subspace_dim: int = 5,
    noise: float = 0.6,
) -> TaskBundle:
    """Over-parameterized MLP on clustered data: strongly redundant gradients."""
    stream = RandomStream(seed)
    params = {
        "n": n + m_aux + n // 4,
        "input_dim": input_dim,
        "classes": classes,
        "sep": 3.0,
        "noise": noise,
        "subspace_dim": subspace_dim,
    }
    full = synth_dataset("gaussian-mixture", params, stream.generator(_DATA))
    # the rows after the pool are shuffled, then a fifth of them is eval
    rest = full.n - m_aux
    perm = stream.generator(_SPLIT).permutation(rest)
    order = np.concatenate([np.arange(m_aux), m_aux + perm])
    aux, holdout, private = split_pool(full.subset(order), m_aux, max(1, rest // 5))
    private = private.subset(np.arange(min(n, private.n)))
    model = init_model(
        "mlp", input_dim, classes, hidden_dim, rng=stream.generator(_INIT), scale=1.0
    )
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)


def logistic_mixture_task(
    seed: int,
    n: int = 2000,
    input_dim: int = 199,
    classes: int = 2,
    m_aux: int = 200,
    n_eval: int = 500,
    subspace_dim: int = 8,
    sep: float = 1.0,
    noise: float = 1.0,
) -> TaskBundle:
    """Convex classification with partially low-dimensional structure.

    Cluster centers live in a small subspace while the within-cluster
    noise is full dimensional, so gradients have a strong low-rank part
    and a genuine residual.
    """
    stream = RandomStream(seed)
    params = {
        "n": n + m_aux + n_eval,
        "input_dim": input_dim,
        "classes": classes,
        "sep": sep,
        "noise": noise,
        "subspace_dim": subspace_dim,
    }
    full = synth_dataset("gaussian-mixture", params, stream.generator(_DATA))
    aux, holdout, private = split_pool(full, m_aux, n_eval)
    model = init_model("logistic", input_dim, classes)
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)


def split_signal_task(
    seed: int,
    n: int = 2000,
    input_dim: int = 199,
    m_aux: int = 400,
    n_eval: int = 500,
    subspace_dim: int = 6,
    sep: float = 3.0,
    cluster_weight: float = 2.0,
    dense_weight: float = 2.0,
    feature_scale: float = 1.0,
) -> TaskBundle:
    """Binary classification with a capturable and a non-capturable signal.

    The feature spike carries most of the label signal and is easy for an
    anchor subspace to find; a weak dense direction carries the rest and
    never spikes in the feature covariance, so subspace-only estimators
    plateau below the achievable accuracy.
    """
    stream = RandomStream(seed)
    params = {
        "n": n + m_aux + n_eval,
        "input_dim": input_dim,
        "subspace_dim": subspace_dim,
        "sep": sep,
        "cluster_weight": cluster_weight,
        "dense_weight": dense_weight,
        "feature_scale": feature_scale,
    }
    full = synth_dataset("split-signal", params, stream.generator(_DATA))
    aux, holdout, private = split_pool(full, m_aux, n_eval)
    model = init_model("logistic", input_dim, 2)
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)


def toy_regression_task(seed: int, n: int = 32, input_dim: int = 4) -> TaskBundle:
    """A tiny exactly solvable regression for noiseless reduction checks."""
    stream = RandomStream(seed)
    rng = stream.generator(_DATA)
    features = rng.standard_normal((n, input_dim))
    true_w = rng.standard_normal(input_dim + 1)
    labels = np.hstack([features, np.ones((n, 1))]) @ true_w
    private = Dataset(features, labels, name="toy-regression")
    rng_eval = stream.generator(_SPLIT)
    eval_features = rng_eval.standard_normal((n // 2, input_dim))
    eval_labels = np.hstack([eval_features, np.ones((n // 2, 1))]) @ true_w
    holdout = Dataset(eval_features, eval_labels, name="toy-regression-eval")
    aux_features = stream.generator(_AUX).standard_normal((n // 2, input_dim))
    aux_labels = stream.generator(_AUX, 1).standard_normal(n // 2)
    aux = Dataset(aux_features, aux_labels, name="toy-regression-aux")
    model = init_model("linear", input_dim, 1)
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)
