"""Experiment orchestration: runs, metrics files, summaries, cost checks.

A metrics file is newline-delimited JSON for one run: a header with the
schema, its version and the run (``asdict(RunSpec)``), then one record per
training step with the :class:`StepMetrics` fields in declaration order,
so identical runs emit byte-identical files.  ``train`` and ``report``
build the summary with the same function, from every metrics file in the
directory: ``summary.txt`` holds the mean +/- std final accuracy per
method, k and m (:func:`_summary_table`), and ``summary.json`` each run's
entry as strict JSON, where a value a run did not record is null.

Each configuration's task comes from :func:`gep.tasks.build_task`.  The
commands raise on bad input and failed runs; ``gep.cli.main`` turns each
exception into its message and exit code.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .accounting import (
    DpBudget,
    calibrate_sigma_closed_form,
    calibrate_sigma_search,
    epsilon_for_sigma,
    step_multiplier,
)
from .config import ConfigError, RunConfig, load_config
from .data import Dataset
from .linalg import RandomStream, count_flops
from .models import group_layout, init_model, make_group_layout, per_sample_factors
from .release import BASIS_MODES, GepConfig, build_anchor_basis, projection_error_rate
from .tasks import TaskBundle, build_task, logistic_mixture_task, lowrank_regression_task
from .training import (
    StepMetrics,
    TrainConfig,
    calibrate_noise_multiplier,
    dp_train,
    random_labels,
)

__all__ = [
    "METRICS_SCHEMA",
    "MetricsError",
    "RunSpec",
    "write_metrics",
    "read_metrics",
    "expand_runs",
    "train_command",
    "accountant_command",
    "bench_command",
    "project_error_command",
    "report_command",
]

METRICS_SCHEMA = {"schema": "gep-metrics", "version": 2}

ACCOUNTANT_MODES = ("closed", "search")
PROJECT_ERROR_TASKS = ("mixture", "lowrank")


class MetricsError(ValueError):
    """A metrics file, or a directory of them, that cannot be summarized."""


@dataclass(frozen=True)
class RunSpec:
    """One point of the sweep grid."""

    method: str
    seed: int
    k: int
    m: int
    epsilon: float

    @property
    def run_id(self) -> str:
        return (
            f"{self.method}-eps{self.epsilon:g}-k{self.k}-m{self.m}-seed{self.seed}"
        )


def write_metrics(path: str, run: RunSpec, steps: list[StepMetrics]) -> None:
    """Write a header naming ``run``, then one JSON record per step."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({**METRICS_SCHEMA, "run": asdict(run)}) + "\n")
        for step in steps:
            handle.write(json.dumps(asdict(step)) + "\n")


def read_metrics(path: str) -> tuple[RunSpec, list[dict]]:
    """The run a metrics file's header names, and its step records.

    Raises MetricsError, naming ``path``, for a file that is not valid JSON
    lines, has another schema or version, or whose header or rows do not
    hold a :class:`RunSpec` and :class:`StepMetrics` field for field.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
    except ValueError as err:  # not UTF-8, or a line that is not JSON
        raise MetricsError(f"{path}: not JSON lines ({err})") from None
    header = records[0] if records else {}
    if not isinstance(header, dict) or any(
        header.get(key) != value for key, value in METRICS_SCHEMA.items()
    ):
        raise MetricsError(
            f"{path}: not a {METRICS_SCHEMA['schema']} "
            f"version {METRICS_SCHEMA['version']} file"
        )
    run = header.get("run")
    # the annotations are strings ("int"), so a bool seed is no int here
    if not (
        isinstance(run, dict)
        and list(run) == [f.name for f in fields(RunSpec)]
        and all(type(run[f.name]).__name__ == f.type for f in fields(RunSpec))
    ):
        raise MetricsError(f"{path}: header names no run: {run!r}")
    names = [f.name for f in fields(StepMetrics)]
    rows = records[1:]
    if not all(isinstance(row, dict) and list(row) == names for row in rows):
        raise MetricsError(f"{path}: a row does not hold the StepMetrics fields")
    return RunSpec(**run), rows


def _results(out_dir: str) -> list[dict]:
    """The summary entry of every metrics file in ``out_dir``, by file name.

    Each entry is the file's run, its last step's accuracy, loss and spent
    epsilon (NaN, NaN and 0 for a run of no steps) and the file's path.
    Raises MetricsError for a file :func:`read_metrics` refuses.
    """
    paths = sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.endswith(".metrics.jsonl")
    )
    results = []
    for path in paths:
        run, rows = read_metrics(path)
        final = rows[-1] if rows else None
        results.append(
            {
                **asdict(run),
                "final_accuracy": final["eval_accuracy"] if final else math.nan,
                "final_eval_loss": final["eval_loss"] if final else math.nan,
                "epsilon_spent": final["epsilon_spent"] if final else 0.0,
                "metrics_path": path,
            }
        )
    return results


def expand_runs(cfg: RunConfig) -> list[RunSpec]:
    """Cartesian product of methods, seeds, and sweep lists.

    Raises ConfigError for an empty method or seed list, a grid of no
    runs, and when two runs share a run id (a repeated seed, or epsilons
    that agree to ``%g``'s six significant digits), since they would write
    one metrics file.
    """
    for key in ("method", "seeds"):
        if not cfg[key]:
            raise ConfigError(f"key {key!r} is empty, so the grid has no runs")
    ks = cfg["sweep.k"] or (cfg["gep.k"],)
    ms = cfg["sweep.m"] or (cfg["aux.m"],)
    epsilons = cfg["sweep.epsilon"] or (cfg["privacy.epsilon"],)
    runs = [
        RunSpec(method=method, seed=int(seed), k=int(k), m=int(m), epsilon=float(eps))
        for method, eps, k, m, seed in itertools.product(
            cfg["method"], epsilons, ks, ms, cfg["seeds"]
        )
    ]
    seen: set[str] = set()
    for run in runs:
        if run.run_id in seen:
            raise ConfigError(f"two runs are named {run.run_id!r}")
        seen.add(run.run_id)
    return runs


def _train_config(cfg: RunConfig, run: RunSpec, task: TaskBundle) -> TrainConfig:
    """The run's training config: each ``gep.*`` and ``train.*`` key is the
    field of its short name, and the run sets k, m, method and seed."""
    sigma_override = float(cfg["privacy.sigma_override"])
    return TrainConfig(
        **cfg.section("train"),
        model=task.model,
        gep=GepConfig(**{**cfg.section("gep"), "k": run.k, "m": run.m}),
        budget=DpBudget(run.epsilon, float(cfg["privacy.delta"])),
        aux_data=task.aux,
        method=run.method,
        seed=run.seed,
        aux_label_mode=(
            "fixed" if cfg["aux.source"] == "heldout-correct" else "random-each-step"
        ),
        sigma_override=None if sigma_override < 0 else sigma_override,
    )


def _with_sigma(train_cfg: TrainConfig, sigmas: dict[tuple, float]) -> TrainConfig:
    """``train_cfg`` with its calibrated noise multiplier set as the override.

    The multiplier is a function of the budget, q and steps alone, so
    ``sigmas`` holds one per key for the runs of one command: seeds,
    methods, k and m share it.  A run with an override or no steps is
    returned as it is; ``dp_train`` calibrates nothing for it.
    """
    if train_cfg.steps == 0 or train_cfg.sigma_override is not None:
        return train_cfg
    key = (train_cfg.budget, train_cfg.sampling_rate, train_cfg.steps)
    if key not in sigmas:
        sigmas[key] = calibrate_noise_multiplier(train_cfg)
    return replace(train_cfg, sigma_override=sigmas[key])


def _summary_table(results: list[dict]) -> str:
    """Rows: method x k x m; columns: epsilon; cells: mean +/- std final accuracy.

    A row's label names each of k and m that takes two values or more, as
    ``gep (k=2, m=8)``.  A cell whose runs record no accuracy, as a
    regression model's do, shows their final eval loss, marked ``loss``;
    one of zero-step runs, ``n/a``.  Each column is 18 wide, or one more
    than its widest entry.
    """
    cells: dict[tuple[str, int, int], dict[float, list[dict]]] = {}
    for res in results:
        key = (res["method"], res["k"], res["m"])
        cells.setdefault(key, {}).setdefault(res["epsilon"], []).append(res)
    epsilons = sorted({res["epsilon"] for res in results})
    swept = {axis for axis in ("k", "m") if len({res[axis] for res in results}) > 1}
    table = [["method"] + [f"eps={eps:g}" for eps in epsilons]]
    for method, k, m in sorted(cells):
        named = ", ".join(f"{axis}={v}" for axis, v in (("k", k), ("m", m)) if axis in swept)
        label = f"{method} ({named})" if named else method
        table.append([label] + [_summary_cell(cells[(method, k, m)].get(eps)) for eps in epsilons])
    widths = [max(18, *(len(entry) + 1 for entry in column)) for column in zip(*table)]
    return "\n".join(
        "".join(entry.ljust(width) for entry, width in zip(row, widths)) for row in table
    )


def _summary_cell(runs: list[dict] | None) -> str:
    if runs is None:
        return "-"
    for key, mark in (("final_accuracy", ""), ("final_eval_loss", "loss ")):
        values = sorted(run[key] for run in runs)  # the same digits in any order of runs
        if not any(math.isnan(value) for value in values):
            return f"{mark}{np.mean(values):.3f} +/- {np.std(values):.3f}"
    return "n/a"


def train_command(
    config_path: str,
    seed: int | None = None,
    out: str | None = None,
    method: str | None = None,
) -> int:
    """Run every sweep point of a configuration and write metrics + summary.

    One task, whose public pool holds the grid's largest m, serves every
    run, and ``dp_train`` keeps its first m anchors, so an m sweep's runs
    share their private and eval sets.  The task and every run's training
    config are built before the output directory is made, so a
    configuration error writes nothing; an output path that cannot be a
    directory (an existing file, or a path under one) is a configuration
    error too.  The summary covers every metrics file in the output
    directory, as :func:`report_command`'s does, including runs of earlier
    commands.  A run that diverges ends the command with
    :class:`gep.training.DivergenceError`; the metrics files of the runs
    before it are kept, and no summary is written.
    """
    cfg = load_config(config_path)
    overrides: dict[str, object] = {}
    if seed is not None:
        overrides["seeds"] = (int(seed),)
    if out is not None:
        overrides["out"] = out
    if method is not None:
        overrides["method"] = (method,)
    if overrides:
        cfg = cfg.updated(overrides)
    try:  # a value out of range, for the data or for a run
        runs = expand_runs(cfg)
        task = build_task(cfg, max(run.m for run in runs))
        plans = [(run, _train_config(cfg, run, task)) for run in runs]
    except ValueError as err:
        raise ConfigError(str(err)) from None

    out_dir = str(cfg["out"])
    try:  # a file, or a path under one
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {out_dir!r}: {err.strerror}") from None
    sigmas: dict[tuple, float] = {}  # one per (epsilon, delta, q, steps)
    for run, train_cfg in plans:
        model, steps = dp_train(_with_sigma(train_cfg, sigmas), task.private, task.eval)
        path = os.path.join(out_dir, f"{run.run_id}.metrics.jsonl")
        write_metrics(path, run, steps)
        print(f"run {run.run_id}: wrote {len(steps)} steps to {path}")

    results = _results(out_dir)
    summary = _summary_table(results)
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(summary + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        # strict JSON: a value a run did not record, such as a regression
        # run's accuracy, is null
        strict = [
            {key: None if isinstance(value, float) and not math.isfinite(value) else value
             for key, value in res.items()}
            for res in results
        ]
        json.dump(strict, handle, indent=2, allow_nan=False)
        handle.write("\n")
    print(summary)
    return 0


def accountant_command(
    eps: float, delta: float, steps: int, q: float = 1.0, mode: str = "closed"
) -> int:
    """Print a calibrated noise multiplier and its certificate.

    ``closed`` prints the per-release multiplier for two releases per step
    (embedding and residual), which is sqrt(2) times the step's; its
    verification composes ``steps`` steps, each at the multiplier
    :func:`gep.accounting.step_multiplier` gives for two unit-threshold
    releases at that sigma, and counts them as ``2 * steps`` releases.
    ``search`` prints the per-step multiplier ``dp_train`` calibrates.
    Both recompute epsilon on the grid that calibrated sigma.
    """
    if mode not in ACCOUNTANT_MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    try:  # the budget, then the calibration's own range checks
        budget = DpBudget(eps, delta)
        if mode == "closed":
            if q != 1.0:
                raise ConfigError("closed mode assumes full batches (q = 1)")
            sigma = calibrate_sigma_closed_form(budget, steps)
        else:
            sigma = calibrate_sigma_search(budget, q, steps)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    if mode == "closed":
        # Two releases per step: compose the steps, each at its pair's multiplier.
        spent, order = epsilon_for_sigma(step_multiplier(((1.0, sigma),) * 2), budget, 1.0, steps)
        print(f"closed-form sigma = {sigma:.6f} (per-release multiplier)")
        print(
            f"verification: composing {2 * steps} releases at sigma={sigma:.6f} "
            f"spends epsilon = {spent:.6f} <= {eps:g} at order {order:.4f}"
        )
    else:
        spent, order = epsilon_for_sigma(sigma, budget, q, steps)
        print(f"searched sigma = {sigma:.6f} (per-step multiplier, q={q:g})")
        print(
            f"verification: {steps} subsampled releases at sigma={sigma:.6f} "
            f"spend epsilon = {spent:.6f} <= {eps:g} at order {order:.4f}"
        )
    return 0


def _bench_case(m: int, k: int, p: int, groups: int, rng: np.random.Generator) -> dict:
    lengths = [p // groups] * groups
    lengths[-1] += p - sum(lengths)
    layout = group_layout([(f"g{i}", length) for i, length in enumerate(lengths)], k)
    anchor = rng.standard_normal((m, p))
    cfg = GepConfig(k=k, m=m, t=1, s1=1.0, s2=1.0)
    with count_flops() as counter:
        build_anchor_basis(anchor, layout, cfg, rng)
    model_cost = 2 * m * k * p / groups + p * k * k / (groups * groups)
    return {
        "groups": groups,
        "measured": counter.macs,
        "model": model_cost,
        "ratio": counter.macs / model_cost,
    }


def bench_command(
    m: int = 100, k: int = 20, p: int = 1000, groups: tuple[int, ...] = (1, 2, 5)
) -> int:
    """Compare measured multiply-adds of one power iteration to the cost model.

    The model is ``2mkp/g + p k^2 / g^2`` for ``g`` evenly split groups;
    measured counts include orthonormalization, so ratios up to 1.5 pass.
    """
    if any(g < 1 for g in groups):
        raise ConfigError("group counts must be >= 1")
    rng = np.random.default_rng(0)
    try:  # the layout's and the config's own range checks
        cases = [_bench_case(m, k, p, g, rng) for g in groups]
    except ValueError as err:
        raise ConfigError(str(err)) from None
    print(f"power iteration cost check: m={m} k={k} p={p}")
    print("groups  measured      model         ratio")
    ok = True
    for case in cases:
        in_band = 0.9 <= case["ratio"] <= 1.5
        ok = ok and in_band
        flag = "" if in_band else "  <-- outside [0.9, 1.5]"
        print(
            f"{case['groups']:<7d} {case['measured']:<13d} "
            f"{case['model']:<13.0f} {case['ratio']:.3f}{flag}"
        )
    return 0 if ok else 1


def project_error_command(
    seed: int = 0,
    ks: tuple[int, ...] = (2, 5, 10, 20, 40),
    n: int = 400,
    input_dim: int = 199,
    m_aux: int = 100,
    task_kind: str = "mixture",
) -> int:
    """Projection-error sweeps over basis modes, auxiliary sources, and m.

    ``task_kind="mixture"`` uses the partially low-rank classification
    task; ``"lowrank"`` uses the exactly low-rank regression task, where a
    power basis of sufficient size drives the error to numerical zero.
    """
    if task_kind not in PROJECT_ERROR_TASKS:
        raise ConfigError(f"unknown task {task_kind!r}")
    stream = RandomStream(seed)
    try:  # the task presets', the layout's and the config's range checks
        if task_kind == "lowrank":
            bundle = lowrank_regression_task(
                seed, n=n, input_dim=input_dim, rank=5, tail=0.0, m_aux=2 * m_aux
            )
            model = bundle.model
        else:
            bundle = logistic_mixture_task(
                seed, n=n, input_dim=input_dim, m_aux=2 * m_aux, subspace_dim=8
            )
            model = init_model(
                bundle.model.kind,
                bundle.model.input_dim,
                bundle.model.output_dim,
                rng=stream.generator(9),
                scale=0.1,
            )
        setups = [
            (k, make_group_layout(model, k), GepConfig(k=k, m=m_aux, t=5, s1=1.0, s2=1.0))
            for k in ks
        ]
    except ValueError as err:
        raise ConfigError(str(err)) from None
    grads = per_sample_factors(model, bundle.private)

    rng_labels = stream.generator(10)
    aux_pool = bundle.aux  # 2 * m_aux rows; the base table uses the first m_aux
    relabeled_pool = aux_pool.with_labels(random_labels(model, aux_pool.n, rng_labels))
    synthetic_labels = random_labels(model, m_aux, rng_labels)
    base = np.arange(m_aux)
    sources = {
        "heldout-random": relabeled_pool.subset(base),
        "heldout-correct": aux_pool.subset(base),
        "synthetic": Dataset(
            stream.generator(11).standard_normal((m_aux, bundle.private.d)),
            synthetic_labels,
            name="synthetic-aux",
        ),
    }

    print(f"projection error rate ({task_kind}: n={n}, p={model.p}, m={m_aux})")
    print("basis   source            " + "".join(f"k={k}".ljust(12) for k in ks))
    for basis_mode in BASIS_MODES:
        for source_name, aux in sources.items():
            anchor_grads = per_sample_factors(model, aux)
            row = [basis_mode.ljust(8) + source_name.ljust(18)]
            for k, layout, cfg in setups:
                basis = build_anchor_basis(
                    anchor_grads, layout, cfg, stream.generator(12, k), basis_mode
                )
                row.append(_rate_cell(projection_error_rate(grads, basis)).ljust(12))
            print("".join(row))

    # anchor-count sweep at the middle k: error should not grow with m
    k_mid, layout, cfg = setups[len(ks) // 2]
    print(f"\nanchor-count sweep at k={k_mid} (power basis, heldout-random)")
    print("m        error")
    for m_frac in (0.5, 1.0, 2.0):
        m_used = min(relabeled_pool.n, max(k_mid, int(round(m_aux * m_frac))))
        aux_m = relabeled_pool.subset(slice(0, m_used))
        anchor_grads = per_sample_factors(model, aux_m)
        basis = build_anchor_basis(
            anchor_grads, layout, replace(cfg, m=m_used), stream.generator(15, m_used)
        )
        print(f"{m_used:<8d} {_rate_cell(projection_error_rate(grads, basis))}")
    return 0


def _rate_cell(rate: float) -> str:
    """A table entry; an exactly-zero error prints as its rounding floor.

    Below 1e-12 the digits are rounding noise that any reordering of a sum
    changes, so they would make the tables irreproducible.
    """
    return "<1e-12" if rate < 1e-12 else f"{rate:.4g}"


def report_command(out: str) -> int:
    """Summarize every metrics file in a directory."""
    if not os.path.isdir(out):
        raise MetricsError(f"no such directory: {out}")
    results = _results(out)
    if not results:
        raise MetricsError(f"no metrics files found in {out}")
    print(_summary_table(results))
    return 0
