"""Tasks: :func:`build_task` turns a run config into a model and its data.

``gep train`` and the split-signal, logistic-mixture and low-rank presets
build through it.  Presets are deterministic in their seed, so tests and
demos share the same reference setups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError, RunConfig
from .data import (
    Dataset, SynthParams, _apply_standardize, ingest_csv, split_pool, standardize_stats,
    synth_dataset,
)
from .linalg import RandomStream
from .models import ModelSpec, init_model

__all__ = [
    "TaskBundle", "build_task", "lowrank_regression_task", "mlp_cluster_task",
    "logistic_mixture_task", "split_signal_task", "toy_regression_task",
]

# Substream purposes for task construction.
_DATA = 0
_AUX = 1
_INIT = 2
_SPLIT = 3
_AUX_LABELS = 4


@dataclass(frozen=True, eq=False)
class TaskBundle:
    """A model plus the datasets a training run needs."""

    model: ModelSpec
    private: Dataset
    eval: Dataset
    aux: Dataset


def _task_rows(cfg: RunConfig, stream: RandomStream, n_public: int) -> Dataset:
    """Every row of the task in split order: the CSV's after a shuffle, or
    a synthetic draw of ``n_public`` rows and then ``data.n`` private ones."""
    if cfg["data.kind"] == "csv":
        full = ingest_csv(str(cfg["data.path"]), str(cfg["data.label_column"]))
        return full.subset(stream.generator(_SPLIT).permutation(full.n))
    # each SynthParams field is the data.* key of its name
    data = cfg.section("data")
    params = {f.name: data[f.name] for f in fields(SynthParams)}
    params["n"] += n_public
    return synth_dataset(str(cfg["data.kind"]), SynthParams(**params), stream.generator(_DATA))


def build_task(cfg: RunConfig, m_aux: int) -> TaskBundle:
    """Materialize datasets and the initial model for a configuration.

    Data generation is keyed by ``data.seed`` only, so every training seed
    sees the same datasets.  The rows, synthesized or the CSV's after a
    shuffle, split as :func:`~gep.data.split_pool` does: ``m_aux`` rows
    of public pool (none with ``aux.source = synthetic``), then the eval
    set, ``data.eval_fraction`` (positive, finite) of ``data.n`` to the
    nearest row, then the private set, with the substreams of this module.
    A CSV's rows are shuffled with the ``data.seed`` stream, and every row
    after the pool and the eval set is private, so ``data.n`` sets only
    the eval set's size.
    ``per-feature-standardize`` takes its statistics from the pool alone,
    so it needs one.  A classification model has ``data.classes``
    outputs, and a label outside ``[0, data.classes)`` is a ConfigError.
    Only an ``mlp`` reads ``model.hidden_dim``; other models have none.
    """
    stream = RandomStream(int(cfg["data.seed"]))
    n = int(cfg["data.n"])
    fraction = float(cfg["data.eval_fraction"])
    if not (fraction > 0.0 and math.isfinite(n * fraction)):  # NaN fails both
        raise ConfigError(f"key 'data.eval_fraction': {fraction!r} is no positive, finite share")
    n_eval = max(1, round(n * fraction))
    heldout = str(cfg["aux.source"]).startswith("heldout")
    n_pool = m_aux if heldout else 0
    standardize = cfg["data.normalize"] == "per-feature-standardize"
    if standardize and not heldout:
        raise ConfigError(
            "data.normalize = per-feature-standardize needs a public pool "
            "(aux.source = heldout-*) to take its statistics from"
        )

    # the three splits are row-range views of one table
    pool, eval_set, private = split_pool(
        _task_rows(cfg, stream, n_pool + n_eval), n_pool, n_eval
    )
    if standardize:
        stats = standardize_stats(pool.features)
        pool, eval_set, private = (
            Dataset(_apply_standardize(part.features, stats), part.labels, part.name)
            for part in (pool, eval_set, private)
        )
    aux = pool if heldout else Dataset(
        stream.generator(_AUX).standard_normal((m_aux, private.d)),
        np.zeros(m_aux, dtype=np.int64),
        name="synthetic-aux",
    )

    kind = str(cfg["model.kind"])
    labels = np.concatenate([pool.labels, eval_set.labels, private.labels])
    if kind == "linear":
        output_dim = 1
    elif np.issubdtype(labels.dtype, np.integer):
        output_dim = int(cfg["data.classes"])
        if labels.min() < 0 or labels.max() >= output_dim:
            raise ConfigError(f"labels must lie in [0, data.classes = {output_dim})")
    else:
        raise ConfigError("classification model requires integer labels")
    model = init_model(
        kind,
        private.d,
        output_dim,
        int(cfg["model.hidden_dim"]) if kind == "mlp" else 0,
        rng=stream.generator(_INIT),
        scale=float(cfg["model.init_scale"]),
    )
    return TaskBundle(model=model, private=private, eval=eval_set, aux=aux)


def _preset_task(seed: int, n: int, m_aux: int, n_eval: int, model: str, **data) -> TaskBundle:
    """The task of a zero-initialized ``model`` on ``n`` private, ``m_aux``
    pool and ``n_eval`` eval rows; each keyword is the ``data.*`` key of its
    name, and ``n_eval`` becomes ``data.eval_fraction = n_eval / n``, so a
    run can record the preset as a config."""
    if n < 1:  # the eval fraction n_eval / n needs a private row
        raise ValueError(f"a task needs n >= 1 private rows, got {n}")
    cfg = RunConfig({
        "data.seed": seed, "data.n": n, "data.eval_fraction": n_eval / n, "aux.m": m_aux,
        "model.kind": model,
        **{f"data.{key}": value for key, value in data.items()},
    })
    return build_task(cfg, m_aux)


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
    return _preset_task(
        seed, n, m_aux, max(20, n // 5), "linear",
        kind="lowrank-gradient-task", input_dim=input_dim, rank=rank, tail=tail,
    )


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
    """Over-parameterized MLP on clustered data: strongly redundant gradients.

    No config: :func:`build_task` does not shuffle the rows after the pool,
    and without this shuffle the benchmark's ``mlp-wide`` mean accuracy at
    seeds 0-1 falls from 0.786 to 0.694 (gp) and 0.61 to 0.568 (gep).
    """
    stream = RandomStream(seed)
    params = SynthParams(
        n=n + m_aux + n // 4, input_dim=input_dim, classes=classes, sep=3.0,
        noise=noise, subspace_dim=subspace_dim,
    )
    full = synth_dataset("gaussian-mixture", params, stream.generator(_DATA))
    # the rows after the pool are shuffled; n // 4 of them, a fifth, are eval
    perm = stream.generator(_SPLIT).permutation(full.n - m_aux)
    order = np.concatenate([np.arange(m_aux), m_aux + perm])
    aux, holdout, private = split_pool(full.subset(order), m_aux, max(1, n // 4))
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
    return _preset_task(
        seed, n, m_aux, n_eval, "logistic", kind="gaussian-mixture", input_dim=input_dim,
        classes=classes, sep=sep, noise=noise, subspace_dim=subspace_dim,
    )


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
    return _preset_task(
        seed, n, m_aux, n_eval, "logistic", kind="split-signal", input_dim=input_dim,
        subspace_dim=subspace_dim, sep=sep, cluster_weight=cluster_weight,
        dense_weight=dense_weight, feature_scale=feature_scale,
    )


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
    aux_labels = stream.generator(_AUX_LABELS).standard_normal(n // 2)
    aux = Dataset(aux_features, aux_labels, name="toy-regression-aux")
    model = init_model("linear", input_dim, 1)
    return TaskBundle(model=model, private=private, eval=holdout, aux=aux)
