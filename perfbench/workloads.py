"""The four workloads of the gep benchmark.

Each workload is driven through the library's public entry points only:
``dp_train`` for the three training workloads and ``gep.cli.main`` for the
command-line grid.  Datasets use a fixed data seed.  A training seed
drives the private noise, anchor relabeling, basis starts and Poisson
batches: the workload seed picks the training seeds of the timed sweeps,
while accuracy is read at fixed reference seeds, so it guards what is
computed rather than sampling seed-to-seed variance.  Every call goes
through a module attribute looked up at call time, so the traced run
sees the same code path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import gep
import gep.cli
import gep.config
import gep.harness
import gep.models
import gep.training
from gep import DpBudget, GepConfig, TrainConfig
from gep.tasks import mlp_cluster_task, split_signal_task

METHODS = ("gep", "bgep", "gp")
REFERENCE_SEEDS = (0, 1)
DATA_SEED = 0
BUDGET = DpBudget(8.0, 1e-5)
# Noiseless-release check: thresholds no gradient row reaches.
HUGE_CLIP = 1e12
RELEASE_RTOL = 1e-10


@dataclass
class Outcome:
    """What one sweep produced: times, fingerprints, accuracy, failures."""

    seconds: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, object] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    runs: int = 0
    failed: set[str] = field(default_factory=set)  # keys of failed runs
    messages: list[str] = field(default_factory=list)

    def fail(self, key: str, message: str) -> None:
        self.failed.add(key)
        self.messages.append(f"{key}: {message}")


def workload_seed(seed: int, index: int) -> int:
    """Training seed of the index-th sweep; never one of REFERENCE_SEEDS."""
    return 10_000 * (seed + 1) + index


def noiseless_first_step(task, gep_cfg: GepConfig, label: str) -> list[str]:
    """One noiseless dp_train step with huge thresholds must be plain GD.

    With ``lr=1``, no momentum or decay, the first update is exactly the
    released gradient, which must equal the batch mean gradient (computed
    by the reference ``per_sample_gradients``) for ``gep`` and ``gp``.
    """
    grads = gep.models.per_sample_gradients(task.model, task.private)
    mean = grads.sum(axis=0) / task.private.n
    failures = []
    for method in ("gep", "gp"):
        cfg = TrainConfig(
            model=task.model,
            gep=replace(gep_cfg, s1=HUGE_CLIP, s2=HUGE_CLIP),
            budget=BUDGET,
            steps=1,
            aux_data=task.aux,
            method=method,
            lr=1.0,
            momentum=0.0,
            weight_decay=0.0,
            lr_decay=False,
            sigma_override=0.0,
        )
        model, _ = gep.training.dp_train(cfg, task.private, task.eval)
        released = task.model.theta - model.theta
        err = float(np.linalg.norm(released - mean) / np.linalg.norm(mean))
        if not err <= RELEASE_RTOL:
            failures.append(
                f"{label}: noiseless {method} release differs from the "
                f"mean gradient by {err:.3g} relative (limit {RELEASE_RTOL:g})"
            )
    return failures


# ---------------------------------------------------------------------------
# dp_train workloads


@dataclass(frozen=True)
class TrainWorkload:
    """Timed ``dp_train`` calls, one per method per sweep."""

    name: str
    task: object  # (toy: bool) -> TaskBundle
    gep_cfg: object  # (toy: bool) -> GepConfig
    steps: int
    toy_steps: int
    train: dict
    reference_seeds: tuple = REFERENCE_SEEDS

    def prepare(self, work: str, seed: int, toy: bool) -> dict:
        return {"seed": seed, "toy": toy}

    def setup(self, ctx: dict) -> dict:
        """Build the task and calibrate sigma: what ``setup_s`` times."""
        toy = ctx["toy"]
        task = self.task(toy)
        base = TrainConfig(
            model=task.model,
            gep=self.gep_cfg(toy),
            budget=BUDGET,
            steps=self.toy_steps if toy else self.steps,
            aux_data=task.aux,
            **self.train,
        )
        # In the default joint release mode gep, bgep and gp share one
        # multiplier; the per-run epsilon check confirms it for each.
        sigma = gep.training.calibrate_noise_multiplier(base)
        return {**ctx, "task": task, "base": replace(base, sigma_override=sigma)}

    def setup_result(self, state: dict) -> float:
        return state["base"].sigma_override

    def steps_per_method(self, state: dict) -> int:
        return state["base"].steps

    def sweep(self, state: dict, seed: int, label: str) -> Outcome:
        out = Outcome()
        task, base = state["task"], state["base"]
        for method in METHODS:
            key = f"{method} seed {seed}"
            out.runs += 1
            t0 = time.perf_counter()
            try:
                model, steps = gep.training.dp_train(
                    replace(base, method=method, seed=seed), task.private, task.eval
                )
            except Exception as err:  # a failed run is counted, not fatal
                out.fail(key, f"raised {err!r}")
                continue
            out.seconds[method] = time.perf_counter() - t0
            out.fingerprint[method] = model.theta.tobytes()
            out.accuracy[method] = steps[-1].eval_accuracy
            spent = steps[-1].epsilon_spent
            if not np.all(np.isfinite(model.theta)):
                out.fail(key, "final theta is not finite")
            if not spent <= BUDGET.epsilon:
                out.fail(key, f"spent epsilon {spent} > {BUDGET.epsilon}")
            if not math.isfinite(steps[-1].eval_accuracy):
                out.fail(key, "eval accuracy is not finite")
        return out

    def release_check(self, state: dict) -> list[str]:
        return noiseless_first_step(state["task"], state["base"].gep, self.name)


def _logistic_task(toy: bool):
    if toy:
        return split_signal_task(DATA_SEED, n=200, input_dim=19, m_aux=40, n_eval=50)
    return split_signal_task(
        DATA_SEED, n=2000, input_dim=199, m_aux=400, n_eval=500, subspace_dim=6,
        sep=3.0, cluster_weight=1.5, dense_weight=4.0, feature_scale=0.5,
    )


def _logistic_gep(toy: bool) -> GepConfig:
    return GepConfig(k=6, m=40 if toy else 400, t=2, s1=10.0, s2=2.0)


def _mlp_task(toy: bool):
    if toy:
        return mlp_cluster_task(DATA_SEED, n=100, input_dim=8, classes=4, hidden_dim=8, m_aux=40)
    return mlp_cluster_task(DATA_SEED, n=1000, input_dim=64, classes=10, hidden_dim=128, m_aux=400)


def _mlp_gep(toy: bool) -> GepConfig:
    return GepConfig(k=4 if toy else 40, m=40 if toy else 400, t=1)


_LOGISTIC_TRAIN = {"lr": 1.2, "momentum": 0.5, "weight_decay": 0.0}

LOGREG_FULL = TrainWorkload(
    name="logreg-full",
    task=_logistic_task,
    gep_cfg=_logistic_gep,
    steps=5,
    toy_steps=3,
    train=_LOGISTIC_TRAIN,
)

MLP_WIDE = TrainWorkload(
    name="mlp-wide",
    task=_mlp_task,
    gep_cfg=_mlp_gep,
    steps=1,
    toy_steps=1,
    train={"lr": 1.0, "lr_decay": False},
)

POISSON_Q05 = TrainWorkload(
    name="poisson-q05",
    task=_logistic_task,
    gep_cfg=_logistic_gep,
    # Long enough that the accountant's once-per-call epsilon schedule
    # (about 30 ms at q=0.05) is a small share of each step.
    steps=200,
    toy_steps=4,
    train={**_LOGISTIC_TRAIN, "batch": "poisson", "q": 0.05},
)


# ---------------------------------------------------------------------------
# command-line grid workload

CSV_ROWS, CSV_FEATURES = 2000, 100
TOY_ROWS, TOY_FEATURES = 300, 10
GRID_EPSILONS = (2.0, 8.0)
GRID_SEEDS = 2


def write_csv(path: str, rows: int, features: int) -> None:
    """Binary labels from a low-dimensional logit over Gaussian features."""
    rng = np.random.default_rng(DATA_SEED)
    axes = np.linalg.qr(rng.standard_normal((features, 5)))[0].T
    latent = rng.standard_normal((rows, 5))
    x = 2.0 * latent @ axes + rng.standard_normal((rows, features))
    logits = 3.0 * latent @ rng.standard_normal(5)
    labels = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join([f"f{j}" for j in range(features)] + ["label"]) + "\n")
        for i in range(rows):
            handle.write(",".join(f"{v:.6f}" for v in x[i]) + f",{labels[i]}\n")


@dataclass(frozen=True)
class GridWorkload:
    """``gep train`` over methods x seeds x epsilons on a generated CSV."""

    name: str = "cli-grid"
    steps: int = 4
    toy_steps: int = 2
    # One reference sweep, at grid seeds 0 and 1: it gives the accuracy
    # and is repeated byte for byte at the end of the run.
    reference_seeds: tuple = REFERENCE_SEEDS[:1]

    def prepare(self, work: str, seed: int, toy: bool) -> dict:
        rows, features = (TOY_ROWS, TOY_FEATURES) if toy else (CSV_ROWS, CSV_FEATURES)
        ctx = {"seed": seed, "toy": toy, "work": work, "rows": rows,
               "csv": os.path.join(work, "data.csv")}
        write_csv(ctx["csv"], rows, features)
        return {**ctx, "config": self.config(ctx, self.reference_seeds[0])}

    def config(self, ctx: dict, first_seed: int) -> str:
        """Write (once) the grid config whose seeds start at ``first_seed``."""
        path = os.path.join(ctx["work"], f"grid-{first_seed}.cfg")
        if os.path.exists(path):
            return path
        toy = ctx["toy"]
        seeds = ", ".join(str(first_seed + j) for j in range(GRID_SEEDS))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f"method = {', '.join(METHODS)}\n"
                f"seeds = {seeds}\n"
                f"data.kind = csv\n"
                f"data.path = {ctx['csv']}\n"
                f"data.label_column = label\n"
                f"data.n = {ctx['rows']}\n"
                f"data.normalize = per-feature-standardize\n"
                f"aux.m = {40 if toy else 200}\n"
                f"gep.k = {4 if toy else 8}\n"
                f"train.steps = {self.toy_steps if toy else self.steps}\n"
                f"train.lr = 0.5\n"
                f"train.momentum = 0.5\n"
                f"sweep.epsilon = {', '.join(f'{e:g}' for e in GRID_EPSILONS)}\n"
            )
        return path

    def setup(self, ctx: dict) -> dict:
        """Load the run configuration: what ``setup_s`` times here."""
        return {**ctx, "cfg": gep.config.load_config(ctx["config"])}

    def setup_result(self, state: dict) -> dict:
        return state["cfg"].as_dict()

    def steps_per_method(self, state: dict) -> int:
        return GRID_SEEDS * len(GRID_EPSILONS) * int(state["cfg"]["train.steps"])

    def sweep(self, state: dict, seed: int, label: str) -> Outcome:
        """The whole grid with seeds ``seed, seed + 1, ...``."""
        out = Outcome()
        config = self.config(state, seed)
        out_dir = os.path.join(state["work"], f"sweep-{label}")
        runs = [
            f"{method}-eps{eps:g}-seed{seed + j}"
            for method in METHODS
            for eps in GRID_EPSILONS
            for j in range(GRID_SEEDS)
        ]
        for method in METHODS:
            mine = [run for run in runs if run.startswith(method + "-")]
            method_dir = os.path.join(out_dir, method)
            argv = ["train", "--config", config, "--method", method, "--out", method_dir]
            out.runs += len(mine)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = gep.cli.main(argv)
            except Exception as err:  # a failed sweep is counted, not fatal
                code = repr(err)
            else:
                out.seconds[method] = time.perf_counter() - t0
            if code != 0:
                for run in mine:
                    out.fail(run, f"gep train ended with {code}")
                continue
            self._check_outputs(method, method_dir, len(mine), out)
        return out

    def _check_outputs(self, method: str, method_dir: str, runs: int, out: Outcome) -> None:
        with open(os.path.join(method_dir, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        files = {}
        for name in sorted(os.listdir(method_dir)):
            if name.endswith(".metrics.jsonl"):
                with open(os.path.join(method_dir, name), "rb") as handle:
                    files[name] = handle.read()
        out.fingerprint[method] = files
        if len(files) != runs or len(summary) != runs:
            out.fail(method, f"{len(files)} metrics files for {runs} runs")
        accuracies = []
        for entry in summary:
            key = f"{method}-eps{entry['epsilon']:g}-seed{entry['seed']}"
            if not entry["epsilon_spent"] <= entry["epsilon"]:
                out.fail(key, f"spent epsilon {entry['epsilon_spent']} > {entry['epsilon']}")
            if not (
                math.isfinite(entry["final_accuracy"]) and math.isfinite(entry["final_eval_loss"])
            ):
                out.fail(key, "non-finite final accuracy or loss")
            accuracies.append(entry["final_accuracy"])
        if accuracies:
            out.accuracy[method] = float(np.mean(accuracies))

    def release_check(self, state: dict) -> list[str]:
        cfg = state["cfg"]
        m = int(cfg["aux.m"])
        task = gep.harness.build_task(cfg, m)
        gep_cfg = GepConfig(k=int(cfg["gep.k"]), m=m, t=int(cfg["gep.t"]))
        return noiseless_first_step(task, gep_cfg, self.name)


WORKLOADS = {w.name: w for w in (LOGREG_FULL, MLP_WIDE, POISSON_Q05, GridWorkload())}
