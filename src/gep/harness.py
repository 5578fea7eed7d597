"""Experiment orchestration: runs, metrics files, summaries, cost checks.

A metrics file is newline-delimited JSON for one run: a header with the
schema, its version and the run (``asdict(RunSpec)``), then one record per
training step with the :class:`StepMetrics` fields in declaration order,
so identical runs emit byte-identical files.  ``train`` and ``report``
build the summary with the same function, from every metrics file in the
directory.

The commands raise on bad input and failed runs; ``gep.cli.main`` turns
each exception into its message and exit code.
"""

from __future__ import annotations

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
)
from .config import ConfigError, RunConfig, load_config
from .data import (
    Dataset,
    _apply_standardize,
    ingest_csv,
    split_pool,
    standardize_stats,
    synth_dataset,
)
from .linalg import RandomStream, count_flops
from .models import group_layout, init_model, make_group_layout, per_sample_factors
from .release import BASIS_MODES, GepConfig, build_anchor_basis, projection_error_rate
from .tasks import _AUX, _DATA, _INIT, _SPLIT
from .tasks import TaskBundle, logistic_mixture_task, lowrank_regression_task
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
    "build_task",
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

    Raises ConfigError when two runs share a run id (a repeated seed, or
    epsilons that agree to ``%g``'s six significant digits), since they
    would write one metrics file.
    """
    methods = list(cfg["method"])
    seeds = list(cfg["seeds"])
    ks = list(cfg["sweep.k"]) or [cfg["gep.k"]]
    ms = list(cfg["sweep.m"]) or [cfg["aux.m"]]
    epsilons = list(cfg["sweep.epsilon"]) or [cfg["privacy.epsilon"]]
    runs = []
    for method in methods:
        for eps in epsilons:
            for k in ks:
                for m in ms:
                    for seed in seeds:
                        runs.append(
                            RunSpec(
                                method=method,
                                seed=int(seed),
                                k=int(k),
                                m=int(m),
                                epsilon=float(eps),
                            )
                        )
    seen: set[str] = set()
    for run in runs:
        if run.run_id in seen:
            raise ConfigError(f"two runs are named {run.run_id!r}")
        seen.add(run.run_id)
    return runs


def _task_rows(cfg: RunConfig, stream: RandomStream, n_public: int) -> Dataset:
    """Every row of the task in split order: the CSV's after a shuffle, or
    a synthetic draw of ``n_public`` rows and then ``data.n`` private ones."""
    if cfg["data.kind"] == "csv":
        full = ingest_csv(str(cfg["data.path"]), str(cfg["data.label_column"]))
        return full.subset(stream.generator(_SPLIT).permutation(full.n))
    # every data.* key by its short name; a generator reads the ones it uses
    params = {key[len("data."):]: value for key, value in cfg.as_dict().items()
              if key.startswith("data.")}
    params["n"] = int(cfg["data.n"]) + n_public
    return synth_dataset(str(cfg["data.kind"]), params, stream.generator(_DATA))


def build_task(cfg: RunConfig, m_aux: int) -> TaskBundle:
    """Materialize datasets and the initial model for a configuration.

    Data generation is keyed by ``data.seed`` only, so every training seed
    sees the same datasets.  The rows, synthesized or the CSV's after a
    shuffle, split as :func:`~gep.data.split_pool` does: ``m_aux`` rows
    of public pool (none with ``aux.source = synthetic``), then the eval
    set, then the private set, with the substreams of :mod:`gep.tasks`.
    ``per-feature-standardize`` takes its statistics from the pool alone,
    so it needs one.  A classification model has ``data.classes``
    outputs, and a label outside ``[0, data.classes)`` is a ConfigError.
    """
    stream = RandomStream(int(cfg["data.seed"]))
    n = int(cfg["data.n"])
    n_eval = max(1, int(math.floor(n * float(cfg["data.eval_fraction"]))))
    heldout = str(cfg["aux.source"]).startswith("heldout")
    n_pool = m_aux if heldout else 0
    standardize = cfg["data.normalize"] == "per-feature-standardize"
    if standardize and not heldout:
        raise ConfigError(
            "data.normalize = per-feature-standardize needs a public pool "
            "(aux.source = heldout-*) to take its statistics from"
        )

    # the splits alone keep the rows, so the whole table is freed here
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
        int(cfg["model.hidden_dim"]),
        rng=stream.generator(_INIT),
        scale=float(cfg["model.init_scale"]),
    )
    return TaskBundle(model=model, private=private, eval=eval_set, aux=aux)


def _train_config(cfg: RunConfig, run: RunSpec, task: TaskBundle) -> TrainConfig:
    sigma_override = float(cfg["privacy.sigma_override"])
    gep_cfg = GepConfig(
        k=run.k,
        m=run.m,
        t=int(cfg["gep.t"]),
        s1=float(cfg["gep.s1"]),
        s2=float(cfg["gep.s2"]),
    )
    return TrainConfig(
        model=task.model,
        gep=gep_cfg,
        budget=DpBudget(run.epsilon, float(cfg["privacy.delta"])),
        steps=int(cfg["train.steps"]),
        aux_data=task.aux,
        method=run.method,
        batch=str(cfg["train.batch"]),
        q=float(cfg["train.q"]),
        lr=float(cfg["train.lr"]),
        momentum=float(cfg["train.momentum"]),
        weight_decay=float(cfg["train.weight_decay"]),
        lr_decay=bool(cfg["train.lr_decay"]),
        seed=run.seed,
        aux_label_mode=(
            "fixed" if cfg["aux.source"] == "heldout-correct" else "random-each-step"
        ),
        sigma_override=None if sigma_override < 0 else sigma_override,
        track_spectra=bool(cfg["train.track_spectra"]),
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
    """Rows: method x k; columns: epsilon; cells: mean +/- std accuracy."""
    cells: dict[tuple[str, int], dict[float, list[float]]] = {}
    for res in results:
        key = (res["method"], res["k"])
        cells.setdefault(key, {}).setdefault(res["epsilon"], []).append(
            res["final_accuracy"]
        )
    epsilons = sorted({res["epsilon"] for res in results})
    multiple_k = len({k for _, k in cells}) > 1
    lines = []
    header = ["method".ljust(18)] + [f"eps={eps:g}".ljust(18) for eps in epsilons]
    lines.append("".join(header))
    for method, k in sorted(cells):
        label = f"{method} (k={k})" if multiple_k else method
        row = [label.ljust(18)]
        for eps in epsilons:
            accs = cells[(method, k)].get(eps)
            if accs is None:
                row.append("-".ljust(18))
            elif any(math.isnan(a) for a in accs):
                row.append("n/a".ljust(18))
            else:  # sorted: the same digits in any order of runs
                accs = sorted(accs)
                row.append(
                    f"{np.mean(accs):.3f} +/- {np.std(accs):.3f}".ljust(18)
                )
        lines.append("".join(row))
    return "\n".join(lines)


def train_command(
    config_path: str,
    seed: int | None = None,
    out: str | None = None,
    method: str | None = None,
) -> int:
    """Run every sweep point of a configuration and write metrics + summary.

    Every run's task and training config are built before the output
    directory is made, so a configuration error writes nothing.  The
    summary covers every metrics file in the output directory, as
    :func:`report_command`'s does, including runs of earlier commands.
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
    # the data config is fixed for the whole sweep: one task per aux.m
    tasks: dict[int, TaskBundle] = {}
    plans = []
    try:  # a value out of range, for the data or for a run
        for run in expand_runs(cfg):
            if run.m not in tasks:
                tasks[run.m] = build_task(cfg.updated({"aux.m": run.m}), run.m)
            plans.append((run, tasks[run.m], _train_config(cfg, run, tasks[run.m])))
    except ValueError as err:
        raise ConfigError(str(err)) from None

    out_dir = str(cfg["out"])
    os.makedirs(out_dir, exist_ok=True)
    sigmas: dict[tuple, float] = {}  # one per (epsilon, delta, q, steps)
    for run, task, train_cfg in plans:
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
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(summary)
    return 0


def accountant_command(
    eps: float, delta: float, steps: int, q: float = 1.0, mode: str = "closed"
) -> int:
    """Print a calibrated noise multiplier and its certificate."""
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
        # The closed form covers two releases per step; verify by composing.
        spent, order = epsilon_for_sigma(sigma, budget, 1.0, 2 * steps)
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
    rng = np.random.default_rng(0)
    print(f"power iteration cost check: m={m} k={k} p={p}")
    print("groups  measured      model         ratio")
    ok = True
    for g in groups:
        case = _bench_case(m, k, p, g, rng)
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
            for k in ks:
                layout = make_group_layout(model, k)
                cfg = GepConfig(k=k, m=m_aux, t=5, s1=1.0, s2=1.0)
                basis = build_anchor_basis(
                    anchor_grads, layout, cfg, stream.generator(12, k), basis_mode
                )
                row.append(_rate_cell(projection_error_rate(grads, basis)).ljust(12))
            print("".join(row))

    # anchor-count sweep at the middle k: error should not grow with m
    k_mid = ks[len(ks) // 2]
    print(f"\nanchor-count sweep at k={k_mid} (power basis, heldout-random)")
    print("m        error")
    for m_frac in (0.5, 1.0, 2.0):
        m_used = min(relabeled_pool.n, max(k_mid, int(round(m_aux * m_frac))))
        aux_m = relabeled_pool.subset(np.arange(m_used))
        anchor_grads = per_sample_factors(model, aux_m)
        layout = make_group_layout(model, k_mid)
        cfg = GepConfig(k=k_mid, m=m_used, t=5, s1=1.0, s2=1.0)
        basis = build_anchor_basis(anchor_grads, layout, cfg, stream.generator(15, m_used))
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
