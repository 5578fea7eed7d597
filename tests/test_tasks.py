"""Task builder tests: the presets and ``gep train`` share one builder.

``gep.tasks.build_task`` builds every config's task, and the split-signal,
logistic-mixture and low-rank presets are configs built through it; the
MLP preset splits its shuffled rows itself.  All of them split with
``data.split_pool``: public pool, then eval, then private.  The presets'
outputs are pinned two ways.  Against a reference split of the same
pooled draw, written out here as the presets did it before they shared
``split_pool``, they must match bitwise on any machine.  Their digests,
taken over float32 roundings so that a BLAS kernel's last bit on another
CPU does not move them, pin the draws themselves.  A preset's config
survives its text form, so a run that records it rebuilds the task.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import gep.tasks
from gep.config import RunConfig, emit_config, parse_config
from gep.data import SynthParams, synth_dataset
from gep.linalg import RandomStream
from gep.tasks import (
    build_task,
    logistic_mixture_task,
    lowrank_regression_task,
    mlp_cluster_task,
    split_signal_task,
    toy_regression_task,
)
from gep.training import PURPOSE_ANCHOR_LABELS, random_labels

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
    model = task.model
    h.update(_block_order(model).astype(np.float32).tobytes())
    h.update(repr((model.kind, model.input_dim, model.output_dim, model.hidden_dim)).encode())
    return h.hexdigest()[:16]


def _block_order(model) -> np.ndarray:
    """theta with an MLP's layers as W1, b1, W2, b2, the order the digests
    were first taken in; each layer is stored as [W | b]."""
    if model.kind != "mlp":
        return model.theta
    d, h = model.input_dim, model.hidden_dim
    layers = np.split(model.theta, [h * (d + 1)])
    blocks = []
    for layer, width in zip(layers, (d, h)):
        rows = layer.reshape(-1, width + 1)
        blocks += [rows[:, :width].ravel(), rows[:, width]]
    return np.concatenate(blocks)


def _reference_split(builder, seed: int, kw: dict):
    """(aux, eval, private) rows of the pooled draw, split the old way."""
    stream = RandomStream(seed)
    if builder is mlp_cluster_task:
        n, m_aux = kw.get("n", 512), kw.get("m_aux", 256)
        params = SynthParams(
            n=n + m_aux + n // 4, input_dim=kw.get("input_dim", 20),
            classes=kw.get("classes", 4), sep=3.0, noise=0.6,
            subspace_dim=5,
        )
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
        params = SynthParams(
            n=n + m_aux + n_eval, input_dim=kw.get("input_dim", 99),
            rank=kw.get("rank", 5), tail=kw.get("tail", 0.0),
        )
        kind = "lowrank-gradient-task"
    elif builder is logistic_mixture_task:
        n, m_aux, n_eval = kw["n"], kw["m_aux"], kw["n_eval"]
        params = SynthParams(
            n=n + m_aux + n_eval, input_dim=kw["input_dim"], classes=2,
            sep=1.0, noise=1.0, subspace_dim=8,
        )
        kind = "gaussian-mixture"
    else:
        n, m_aux, n_eval = kw["n"], kw["m_aux"], kw["n_eval"]
        split = {key: v for key, v in kw.items() if key not in ("m_aux", "n_eval")}
        params = SynthParams(**{"subspace_dim": 6, **split, "n": n + m_aux + n_eval})
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


def test_building_a_task_holds_its_rows_about_twice():
    # the generator's features and the design they are copied into; the
    # splits are views of that design, not copies of it
    # a small build first, so one-time allocations stay out of the peak
    split_signal_task(0, n=20, input_dim=5, m_aux=4, n_eval=4, subspace_dim=2)
    tracemalloc.start()
    try:
        task = split_signal_task(0, **CRITERION_6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    design_bytes = sum(part.design.nbytes for part in (task.aux, task.eval, task.private))
    assert peak <= 2.5 * design_bytes, peak / design_bytes


@pytest.mark.parametrize(
    "name", sorted(name for name, spec in PRESETS.items() if spec[0] is not mlp_cluster_task)
)
def test_a_preset_config_rebuilds_its_task_from_text(name, monkeypatch):
    builder, seed, kw, _ = PRESETS[name]
    handed = []

    def recording(cfg, m_aux):
        handed.append((cfg, m_aux))
        return build_task(cfg, m_aux)

    monkeypatch.setattr(gep.tasks, "build_task", recording)
    task = builder(seed, **kw)
    ((cfg, m_aux),) = handed
    rebuilt = build_task(parse_config(emit_config(cfg)), m_aux)
    for part in ("private", "eval", "aux"):
        assert _same_rows(getattr(rebuilt, part), getattr(task, part))
    assert rebuilt.model.theta.tobytes() == task.model.theta.tobytes()
    spec = ("kind", "input_dim", "output_dim", "hidden_dim")
    assert [getattr(rebuilt.model, f) for f in spec] == [getattr(task.model, f) for f in spec]


@pytest.mark.parametrize("n, n_eval", [(22, 15), (23, 13), (39, 31)])
def test_the_eval_set_is_its_fraction_of_n_to_the_nearest_row(n, n_eval):
    assert math.floor(n * (n_eval / n)) == n_eval - 1  # a floor lands one row short
    cfg = RunConfig({"data.n": n, "data.eval_fraction": n_eval / n, "aux.m": 5})
    task = build_task(cfg, 5)
    assert (task.eval.n, task.private.n, task.aux.n) == (n_eval, n, 5)


@pytest.mark.parametrize("kind, hidden_dim", [("logistic", 0), ("linear", 0), ("mlp", 32)])
def test_only_an_mlp_reads_model_hidden_dim(kind, hidden_dim):
    cfg = RunConfig({"data.n": 50, "aux.m": 10, "model.kind": kind})
    assert build_task(cfg, 10).model.hidden_dim == hidden_dim


def test_toy_aux_labels_are_not_a_relabeling_draw():
    # the aux labels have a one-label substream of their own: drawn at
    # (1, 1), they were step 1's anchor relabeling in a run of the same seed
    task = toy_regression_task(0)
    rng = RandomStream(0).generator(1, PURPOSE_ANCHOR_LABELS)
    relabeled = random_labels(task.model, task.aux.n, rng)
    assert not np.array_equal(task.aux.labels, relabeled)
