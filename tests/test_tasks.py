"""Task builder tests: the presets and ``gep train`` share one split.

Every pooled preset and ``harness.build_task`` split their rows with
``data.split_pool``: public pool, then eval, then private.  The presets'
outputs are pinned two ways.  Against a reference split of the same
pooled draw, written out here as the presets did it before they shared
``split_pool``, they must match bitwise on any machine.  Their digests,
taken over float32 roundings so that a BLAS kernel's last bit on another
CPU does not move them, pin the draws themselves.
"""

import hashlib

import numpy as np
import pytest

from gep.config import RunConfig
from gep.data import synth_dataset
from gep.harness import build_task
from gep.linalg import RandomStream
from gep.tasks import (
    logistic_mixture_task,
    lowrank_regression_task,
    mlp_cluster_task,
    split_signal_task,
)

CRITERION_6 = dict(
    n=2000, input_dim=199, m_aux=400, n_eval=500, subspace_dim=6, sep=3.0,
    cluster_weight=1.5, dense_weight=4.0, feature_scale=0.5,
)

# name: (builder, seed, keyword arguments, digest of its outputs)
PRESETS = {
    "lowrank-0": (lowrank_regression_task, 0, {}, "91275ee8cac0f0d4"),
    "lowrank-3-tail": (
        lowrank_regression_task, 3,
        dict(n=120, input_dim=39, rank=4, tail=0.05, m_aux=40), "423c05c432b66ec9",
    ),
    "lowrank-1-small": (
        lowrank_regression_task, 1,
        dict(n=60, input_dim=9, rank=3, m_aux=7), "30fde6d5fae0f8d1",
    ),
    "mlp-0": (mlp_cluster_task, 0, {}, "4d7e5b3054e2d3c4"),
    "mlp-wide": (
        mlp_cluster_task, 0,
        dict(n=1000, input_dim=64, classes=10, hidden_dim=128, m_aux=400), "bebe2e9ddb434d70",
    ),
    "mlp-toy": (
        mlp_cluster_task, 0,
        dict(n=100, input_dim=8, classes=4, hidden_dim=8, m_aux=40), "20b92d8843314195",
    ),
    "mlp-3-odd": (
        mlp_cluster_task, 3,
        dict(n=17, input_dim=12, classes=3, hidden_dim=10, m_aux=30), "e7307e3a805e9859",
    ),
    "logistic-3": (
        logistic_mixture_task, 3,
        dict(n=120, input_dim=29, m_aux=40, n_eval=10), "c4c9d5d521d5ddf1",
    ),
    "logistic-5": (
        logistic_mixture_task, 5,
        dict(n=40, input_dim=9, m_aux=20, n_eval=20), "72121abce78443fd",
    ),
    "split-c6-0": (split_signal_task, 0, CRITERION_6, "9ce7c22ae43145ca"),
    "split-c6-1": (split_signal_task, 1, CRITERION_6, "f17bb154392011b6"),
    "split-toy": (
        split_signal_task, 0, dict(n=200, input_dim=19, m_aux=40, n_eval=50),
        "a29659673058b1d5",
    ),
}


def _digest(task) -> str:
    h = hashlib.sha256()
    for part in (task.private, task.eval, task.aux):
        for arr in (part.features, part.labels):
            h.update(np.ascontiguousarray(
                arr if arr.dtype.kind == "i" else arr.astype(np.float32)
            ).tobytes())
    h.update(task.model.theta.astype(np.float32).tobytes())
    model = task.model
    h.update(repr((model.kind, model.input_dim, model.output_dim, model.hidden_dim)).encode())
    return h.hexdigest()[:16]


def _reference_split(builder, seed: int, kw: dict):
    """(aux, eval, private) rows of the pooled draw, split the old way."""
    stream = RandomStream(seed)
    if builder is mlp_cluster_task:
        n, m_aux = kw.get("n", 512), kw.get("m_aux", 256)
        params = {
            "n": n + m_aux + n // 4, "input_dim": kw.get("input_dim", 20),
            "classes": kw.get("classes", 4), "sep": 3.0, "noise": 0.6,
            "subspace_dim": 5,
        }
        full = synth_dataset("gaussian-mixture", params, stream.generator(0))
        rest = full.subset(np.arange(m_aux, full.n))
        perm = stream.generator(3).permutation(rest.n)
        n_eval = max(1, int(np.floor(rest.n * 0.2)))
        private = rest.subset(perm[n_eval:])
        private = private.subset(np.arange(min(n, private.n)))
        return full.subset(np.arange(m_aux)), rest.subset(perm[:n_eval]), private
    if builder is lowrank_regression_task:
        n, m_aux = kw.get("n", 200), kw.get("m_aux", 10)
        n_eval = max(20, n // 5)
        params = {
            "n": n + m_aux + n_eval, "input_dim": kw.get("input_dim", 99),
            "rank": kw.get("rank", 5), "tail": kw.get("tail", 0.0),
        }
        kind = "lowrank-gradient-task"
    elif builder is logistic_mixture_task:
        n, m_aux, n_eval = kw["n"], kw["m_aux"], kw["n_eval"]
        params = {
            "n": n + m_aux + n_eval, "input_dim": kw["input_dim"], "classes": 2,
            "sep": 1.0, "noise": 1.0, "subspace_dim": 8,
        }
        kind = "gaussian-mixture"
    else:
        n, m_aux, n_eval = kw["n"], kw["m_aux"], kw["n_eval"]
        params = {**kw, "n": n + m_aux + n_eval}
        kind = "split-signal"
    full = synth_dataset(kind, params, stream.generator(0))
    return (
        full.subset(np.arange(m_aux)),
        full.subset(np.arange(m_aux, m_aux + n_eval)),
        full.subset(np.arange(m_aux + n_eval, full.n)),
    )


def _same_rows(a, b) -> bool:
    return (
        a.features.tobytes() == b.features.tobytes()
        and a.labels.dtype == b.labels.dtype
        and a.labels.tobytes() == b.labels.tobytes()
    )


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_pooled_presets_are_unchanged(name):
    builder, seed, kw, digest = PRESETS[name]
    task = builder(seed, **kw)
    aux, holdout, private = _reference_split(builder, seed, kw)
    assert _same_rows(task.aux, aux)
    assert _same_rows(task.eval, holdout)
    assert _same_rows(task.private, private)
    assert _digest(task) == digest


def test_a_train_config_builds_the_criterion_6_task():
    """``gep train`` can run the criterion-6 and ``logreg-full`` task."""
    cfg = RunConfig({
        "data.kind": "split-signal",
        "data.seed": 0,
        "data.n": 2000,
        "data.input_dim": 199,
        "data.eval_fraction": 0.25,
        "aux.m": 400,
        "data.subspace_dim": 6,
        "data.sep": 3.0,
        "data.cluster_weight": 1.5,
        "data.dense_weight": 4.0,
        "data.feature_scale": 0.5,
    })
    built = build_task(cfg, 400)
    preset = split_signal_task(0, **CRITERION_6)
    assert _same_rows(built.private, preset.private)
    assert _same_rows(built.eval, preset.eval)
    assert _same_rows(built.aux, preset.aux)
    assert (built.model.kind, built.model.output_dim) == ("logistic", 2)
    assert built.model.theta.tobytes() == preset.model.theta.tobytes()
