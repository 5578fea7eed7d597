"""Harness and CLI tests: metrics files, commands, exit codes, determinism."""

import argparse
import inspect
import json
import math
import re

import numpy as np
import pytest

from gep import harness
from gep.cli import _build_parser, main
from gep.config import SCHEMA, ConfigError, RunConfig, _format_value, load_config
from gep.harness import (
    METRICS_SCHEMA,
    MetricsError,
    RunSpec,
    _summary_table,
    _train_config,
    accountant_command,
    build_task,
    expand_runs,
    project_error_command,
    read_metrics,
    report_command,
    write_metrics,
)
from gep.linalg import RandomStream
from gep.tasks import _SPLIT
from gep.training import StepMetrics

BASE_CONFIG = """
method = gp
seeds = 0
model.kind = logistic
data.kind = gaussian-mixture
data.n = 60
data.input_dim = 5
data.classes = 2
data.seed = 7
data.eval_fraction = 0.2
aux.m = 10
gep.k = 2
gep.s1 = 5.0
gep.s2 = 1.0
train.steps = 3
train.lr = 0.2
privacy.epsilon = 8.0
privacy.delta = 1e-5
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# one gp run's header fields, and one of its step rows byte for byte
_RUN = {"method": "gp", "seed": 0, "k": 2, "m": 10, "epsilon": 8.0}
_ROW = (
    '{"step": 0, "train_loss": 0.5, "eval_loss": 0.6, "eval_accuracy": 0.75, '
    '"projection_error_rate": NaN, "stable_rank_g": NaN, "stable_rank_r": NaN, '
    '"k_effective": 0, "clip_fraction_s1": 0.0, "clip_fraction_s2": NaN, '
    '"epsilon_spent": 1.25}'
)


def test_metrics_round_trip(tmp_path):
    run = RunSpec(**_RUN)
    steps = [StepMetrics(0, 0.5, 0.6, 0.75, clip_fraction_s1=0.0, epsilon_spent=1.25)]
    path = tmp_path / "m.jsonl"
    write_metrics(str(path), run, steps)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {**METRICS_SCHEMA, "run": _RUN}
    assert lines[1:] == [_ROW]
    parsed_run, rows = read_metrics(str(path))
    assert parsed_run == run
    assert rows[0]["train_loss"] == 0.5
    assert math.isnan(rows[0]["projection_error_rate"])


@pytest.mark.parametrize("epsilon", [1e-05, 0.5, 8.0])
def test_run_id_round_trips(tmp_path, epsilon):
    # the metrics header carries the run: a method with dashes, a negative
    # seed and an exponent epsilon come back as they went in
    runs = (RunSpec("gep", 0, 20, 200, epsilon), RunSpec("random-basis-gep", -1, 2, 10, epsilon))
    for run in runs:
        path = tmp_path / f"{run.run_id}.metrics.jsonl"
        write_metrics(str(path), run, [])
        assert read_metrics(str(path)) == (run, [])
    # metrics file names are built from it
    assert RunSpec("gep", 0, 20, 200, 1e-05).run_id == "gep-eps1e-05-k20-m200-seed0"
    assert RunSpec("random-basis-gep", -1, 6, 40, 8.0).run_id == (
        "random-basis-gep-eps8-k6-m40-seed-1"
    )


def _header(version=2, **fields):
    return json.dumps({"schema": "gep-metrics", "version": version, **fields}) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        '{"schema": "other"}\n',
        _header(1),
        _header(1, run=_RUN),
        _header(),
        _header(run="gp-eps8-k2-m10-seed0"),
        _header(run={**_RUN, "k": "2"}),
        _header(run={**_RUN, "seed": True}),
        _header(run={**_RUN, "extra": 1}),
        _header(run=_RUN) + "[1, 2]\n",
        _header(run=_RUN) + '{"step": 0}\n',
        _header(run=_RUN) + _ROW[:-9],
        "[]\n" + _ROW,
    ],
    ids=[
        "empty", "other-schema", "version-1", "version-1-with-run", "no-run",
        "run-id-string", "string-k", "bool-seed", "extra-run-key", "list-row",
        "short-row", "truncated-row", "list-header",
    ],
)
def test_bad_metrics_files_are_rejected(tmp_path, capsys, text):
    out = tmp_path / "runs"
    out.mkdir()
    good = out / "a.metrics.jsonl"
    write_metrics(str(good), RunSpec(**_RUN), [])
    bad = out / "b.metrics.jsonl"
    bad.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        read_metrics(str(bad))
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{bad}: ") and captured.err.count("\n") == 1


def test_train_command_summarizes_no_bad_metrics_file(tmp_path, capsys):
    # train's summary reads the whole directory, so a file report refuses
    # fails train too, after its own runs are written
    out = tmp_path / "runs"
    out.mkdir()
    bad = out / "b.metrics.jsonl"
    bad.write_text('{"schema": "other"}\n')
    cfg_path = write_config(tmp_path, BASE_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path]) == 1
    assert capsys.readouterr().err.startswith(f"{bad}: ")
    assert (out / "gp-eps8-k2-m10-seed0.metrics.jsonl").exists()
    assert not (out / "summary.txt").exists()


def test_expand_runs_grid():
    cfg = RunConfig(
        {
            "method": ("gep", "gp"),
            "seeds": (0, 1),
            "sweep.k": (10, 20),
            "sweep.epsilon": (2.0, 8.0),
        }
    )
    runs = expand_runs(cfg)
    assert len(runs) == 2 * 2 * 2 * 2
    ids = {r.run_id for r in runs}
    assert len(ids) == len(runs)
    assert RunSpec("gep", 1, 20, 200, 8.0) in runs


def test_build_task_splits_are_disjoint_and_sized():
    cfg = RunConfig(
        {
            "data.kind": "gaussian-mixture",
            "data.n": 50,
            "data.input_dim": 4,
            "data.classes": 3,
            "data.eval_fraction": 0.2,
            "aux.m": 8,
        }
    )
    task = build_task(cfg, 8)
    assert task.private.n == 50
    assert task.eval.n == 10
    assert task.aux.n == 8
    assert task.model.output_dim == 3
    # heldout aux must not overlap the other splits
    combined = np.vstack([task.eval.features, task.aux.features, task.private.features])
    assert len(np.unique(combined.round(12), axis=0)) == combined.shape[0]


def test_build_task_synthetic_aux():
    cfg = RunConfig(
        {
            "data.kind": "gaussian-mixture",
            "data.n": 40,
            "data.input_dim": 4,
            "aux.source": "synthetic",
            "aux.m": 12,
        }
    )
    task = build_task(cfg, 12)
    assert task.aux.n == 12
    assert task.aux.name == "synthetic-aux"


def _csv_config(path, **overrides):
    return RunConfig({
        "data.kind": "csv",
        "data.path": str(path),
        "data.n": 30,
        "data.eval_fraction": 0.2,
        "data.seed": 3,
        "data.normalize": "per-feature-standardize",
        "aux.m": 10,
        **overrides,
    })


def _write_csv(path, features, labels):
    rows = [",".join([*(repr(float(v)) for v in row), str(int(y))])
            for row, y in zip(features, labels)]
    path.write_text("a,b,c,label\n" + "\n".join(rows) + "\n")


def _private_csv_rows(cfg, rows):
    """The CSV rows that build_task puts in the private split."""
    perm = RandomStream(int(cfg["data.seed"])).generator(_SPLIT).permutation(rows)
    n_eval = int(cfg["data.n"] * cfg["data.eval_fraction"])
    return perm[int(cfg["aux.m"]) + n_eval:]


def test_standardization_reads_only_the_public_pool(tmp_path):
    rng = np.random.default_rng(11)
    features = rng.standard_normal((46, 3)) * [1.0, 5.0, 0.1] + [0.0, 3.0, -2.0]
    labels = rng.integers(0, 2, size=46)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    _write_csv(first, features, labels)
    cfg = _csv_config(first)
    private_rows = _private_csv_rows(cfg, 46)
    assert len(private_rows) == 30
    moved = features.copy()
    moved[private_rows] = 100.0 * rng.standard_normal((30, 3)) + 40.0
    _write_csv(second, moved, labels)

    a = build_task(cfg, 10)
    b = build_task(_csv_config(second), 10)
    assert (a.aux.n, a.eval.n, a.private.n) == (10, 6, 30)
    assert a.aux.features.tobytes() == b.aux.features.tobytes()
    assert a.eval.features.tobytes() == b.eval.features.tobytes()
    assert a.model.theta.shape == b.model.theta.shape
    assert a.model.output_dim == b.model.output_dim == 2
    assert a.private.features.tobytes() != b.private.features.tobytes()
    # the pool is what is standardized
    np.testing.assert_allclose(a.aux.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(a.aux.features.std(axis=0), 1.0, rtol=1e-12)


def test_standardization_applies_to_synthetic_kinds():
    cfg = RunConfig({
        "data.kind": "gaussian-mixture",
        "data.n": 40,
        "data.input_dim": 4,
        "data.normalize": "per-feature-standardize",
        "aux.m": 12,
    })
    task = build_task(cfg, 12)
    np.testing.assert_allclose(task.aux.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(task.aux.features.std(axis=0), 1.0, rtol=1e-12)
    raw = build_task(cfg.updated({"data.normalize": "none"}), 12)
    assert task.private.labels.tobytes() == raw.private.labels.tobytes()
    assert task.private.features.tobytes() != raw.private.features.tobytes()


def test_standardization_without_a_public_pool_exits_2(tmp_path, capsys):
    text = BASE_CONFIG + "aux.source = synthetic\ndata.normalize = per-feature-standardize\n"
    cfg_path = write_config(tmp_path, text + f"out = {tmp_path / 'r'}\n")
    assert main(["train", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "public pool" in err


def test_class_count_comes_from_the_config(tmp_path, capsys):
    rng = np.random.default_rng(12)
    features = rng.standard_normal((46, 3))
    labels = rng.integers(0, 2, size=46)
    path = tmp_path / "three.csv"
    cfg = _csv_config(path, **{"data.classes": 3})
    _write_csv(path, features, labels)
    # a class no row holds still gets an output
    assert build_task(cfg, 10).model.output_dim == 3
    labels[_private_csv_rows(cfg, 46)[0]] = 2
    _write_csv(path, features, labels)
    assert build_task(cfg, 10).model.output_dim == 3
    with pytest.raises(ValueError, match=r"\[0, data.classes = 2\)"):
        build_task(cfg.updated({"data.classes": 2}), 10)
    text = (
        f"data.kind = csv\ndata.path = {path}\ndata.n = 30\ndata.eval_fraction = 0.2\n"
        f"data.seed = 3\naux.m = 10\ngep.k = 2\ntrain.steps = 1\nmethod = gp\n"
        f"out = {tmp_path / 'r'}\n"
    )
    assert main(["train", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "data.classes" in err


def test_a_non_finite_csv_label_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "reg.csv"
    path.write_text("a,label\n" + "".join(f"{i},{0.5 * i}\n" for i in range(45)) + "1,nan\n")
    out = tmp_path / "r"
    text = (
        f"data.kind = csv\ndata.path = {path}\ndata.n = 30\nmodel.kind = linear\n"
        f"aux.m = 10\ngep.k = 2\ntrain.steps = 1\nmethod = gp\nout = {out}\n"
    )
    assert main(["train", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "labels contain non-finite entries" in err
    assert not out.exists()


def test_a_csv_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"a,label\n" + b"".join(b"%d,%d\n" % (i, i % 2) for i in range(45))
                     + b"1\xff,0\n")
    out = tmp_path / "r"
    text = (
        f"data.kind = csv\ndata.path = {path}\ndata.n = 30\n"
        f"aux.m = 10\ngep.k = 2\ntrain.steps = 1\nmethod = gp\nout = {out}\n"
    )
    assert main(["train", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{path}: row 47: byte 0xff" in err
    assert not out.exists()


def test_train_command_writes_metrics_and_summary(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg_path = write_config(tmp_path, BASE_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path]) == 0
    captured = capsys.readouterr().out
    assert "gp" in captured
    metrics_files = sorted(out.glob("*.metrics.jsonl"))
    assert len(metrics_files) == 1
    run, rows = read_metrics(str(metrics_files[0]))
    assert run == RunSpec("gp", 0, 2, 10, 8.0)
    assert metrics_files[0].name == f"{run.run_id}.metrics.jsonl"
    assert len(rows) == 3
    assert (out / "summary.txt").exists()
    assert (out / "summary.json").exists()


def test_train_command_is_byte_deterministic(tmp_path):
    out = tmp_path / "runs"
    cfg_path = write_config(
        tmp_path, BASE_CONFIG.replace("method = gp", "method = gep") + f"out = {out}\n"
    )
    # same invocation twice: the metrics files must be byte-identical
    assert main(["train", "--config", cfg_path]) == 0
    files = sorted(out.glob("*.metrics.jsonl"))
    first = [f.read_bytes() for f in files]
    assert main(["train", "--config", cfg_path]) == 0
    second = [f.read_bytes() for f in sorted(out.glob("*.metrics.jsonl"))]
    assert first == second


def test_heldout_correct_aux_trains_on_its_own_labels(tmp_path, monkeypatch):
    import gep.training

    def refused(model, n, rng):
        raise AssertionError("random anchor labels drawn")

    monkeypatch.setattr(gep.training, "random_labels", refused)
    out = tmp_path / "runs"
    text = BASE_CONFIG.replace("method = gp", "method = gep, bgep")
    cfg_path = write_config(tmp_path, text + f"aux.source = heldout-correct\nout = {out}\n")
    assert main(["train", "--config", cfg_path]) == 0
    runs = [read_metrics(str(f)) for f in sorted(out.glob("*.metrics.jsonl"))]
    assert [(run.method, len(rows)) for run, rows in runs] == [("bgep", 3), ("gep", 3)]


def test_train_command_builds_one_task_per_command(tmp_path, monkeypatch):
    import gep.harness

    calls = []
    real_build = gep.harness.build_task

    def counting_build(cfg, m_aux):
        calls.append(m_aux)
        return real_build(cfg, m_aux)

    monkeypatch.setattr(gep.harness, "build_task", counting_build)
    out = tmp_path / "runs"
    text = BASE_CONFIG.replace("method = gp", "method = gep, gp").replace(
        "seeds = 0", "seeds = 0, 1"
    )
    cfg_path = write_config(tmp_path, text + "sweep.m = 8, 10\n" + f"out = {out}\n")
    assert main(["train", "--config", cfg_path]) == 0
    assert calls == [10]  # the pool holds the grid's largest m
    # gp reads no anchors: across m it trains on the same private set
    for seed in (0, 1):
        steps = [
            (out / f"gp-eps8-k2-m{m}-seed{seed}.metrics.jsonl").read_text().splitlines()[1:]
            for m in (8, 10)
        ]
        assert steps[0] == steps[1]
    # a run on a shared task writes the same bytes as the run on its own
    alone = tmp_path / "alone"
    assert main(["train", "--config", cfg_path, "--seed", "1", "--out", str(alone)]) == 0
    for path in sorted(alone.glob("*.metrics.jsonl")):
        assert path.read_bytes() == (out / path.name).read_bytes()


def _count_calibrations(monkeypatch):
    import gep.training

    calls = []
    real_search = gep.training.calibrate_sigma_search

    def counting_search(budget, q, invocations):
        calls.append((budget.epsilon, q, invocations))
        return real_search(budget, q, invocations)

    monkeypatch.setattr(gep.training, "calibrate_sigma_search", counting_search)
    return calls


GRID_CONFIG = BASE_CONFIG.replace("method = gp", "method = gep, gp").replace(
    "seeds = 0", "seeds = 0, 1"
) + "sweep.epsilon = 2, 8\n"


def test_train_command_calibrates_each_budget_once(tmp_path, monkeypatch):
    import gep.harness

    calls = _count_calibrations(monkeypatch)
    out = tmp_path / "runs"
    cfg_path = write_config(tmp_path, GRID_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path, "--method", "gep"]) == 0
    assert sorted(calls) == [(2.0, 1.0, 3), (8.0, 1.0, 3)]  # 4 runs, 2 budgets
    # the methods of one command share them too
    calls.clear()
    assert main(["train", "--config", cfg_path]) == 0
    assert len(calls) == 2
    # the same bytes as every run calibrating for itself
    calls.clear()
    alone = tmp_path / "alone"
    with monkeypatch.context() as patch:
        patch.setattr(gep.harness, "_with_sigma", lambda train_cfg, sigmas: train_cfg)
        assert main(["train", "--config", cfg_path, "--out", str(alone)]) == 0
    assert len(calls) == 8
    files = sorted(alone.glob("*.metrics.jsonl"))
    assert len(files) == 8
    for path in files:
        assert path.read_bytes() == (out / path.name).read_bytes()


def test_train_command_calibrates_nothing_it_does_not_run(tmp_path, monkeypatch):
    calls = _count_calibrations(monkeypatch)
    zero = write_config(tmp_path, GRID_CONFIG.replace("train.steps = 3", "train.steps = 0")
                        + f"out = {tmp_path / 'zero'}\n", name="zero.cfg")
    assert main(["train", "--config", zero]) == 0
    fixed = write_config(tmp_path, GRID_CONFIG + "privacy.sigma_override = 1.5\n"
                         + f"out = {tmp_path / 'fixed'}\n", name="fixed.cfg")
    assert main(["train", "--config", fixed]) == 0
    assert calls == []


def test_train_command_calibration_failure_keeps_earlier_runs(tmp_path, capsys):
    # the first budget calibrates; the second cannot, and ends the command
    out = tmp_path / "runs"
    cfg_path = write_config(
        tmp_path,
        GRID_CONFIG.replace("sweep.epsilon = 2, 8", "sweep.epsilon = 8, 1e-9")
        + f"out = {out}\n",
    )
    assert main(["train", "--config", cfg_path, "--method", "gp"]) == 1
    assert "calibration" in capsys.readouterr().err.lower()
    assert sorted(path.name for path in out.glob("*.metrics.jsonl")) == [
        "gp-eps8-k2-m10-seed0.metrics.jsonl",
        "gp-eps8-k2-m10-seed1.metrics.jsonl",
    ]
    assert not (out / "summary.json").exists()


def test_train_command_rejects_unknown_key(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG + "train.warmup = 5\n")
    assert main(["train", "--config", cfg_path]) == 2
    assert "train.warmup" in capsys.readouterr().err


def test_train_command_calibration_failure(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("privacy.epsilon = 8.0", "privacy.epsilon = 1e-9")
        + f"out = {tmp_path / 'r'}\n",
    )
    assert main(["train", "--config", cfg_path]) == 1
    assert "calibration" in capsys.readouterr().err.lower()


def test_train_command_rejects_colliding_run_ids(tmp_path, capsys):
    # both epsilons print as "2": four runs would share one metrics file
    out = tmp_path / "runs"
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0", "seeds = 0, 0")
        + f"sweep.epsilon = 2, 2.0000001\nout = {out}\n",
    )
    assert main(["train", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gp-eps2-k2-m10-seed0" in err
    assert not out.exists()


def test_train_command_method_and_seed_overrides(tmp_path):
    out = tmp_path / "runs"
    cfg_path = write_config(tmp_path, BASE_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path, "--method", "bgep", "--seed", "5"]) == 0
    files = sorted(out.glob("*.metrics.jsonl"))
    assert len(files) == 1
    assert "bgep" in files[0].name and "seed5" in files[0].name


def test_accountant_closed_mode(capsys):
    assert main([
        "accountant", "--eps", "8", "--delta", "1e-5", "--steps", "100",
        "--mode", "closed",
    ]) == 0
    out = capsys.readouterr().out
    assert "11.996" in out
    assert "verification" in out
    # the verification epsilon never exceeds the target
    spent = float(out.split("epsilon = ")[1].split()[0])
    assert spent <= 8.0 + 1e-9


def test_accountant_closed_mode_out_of_regime(capsys):
    assert main([
        "accountant", "--eps", "40", "--delta", "1e-5", "--steps", "10",
        "--mode", "closed",
    ]) == 2
    assert "calibrate_sigma_search" in capsys.readouterr().err


def test_accountant_search_mode_beats_closed(capsys):
    assert main([
        "accountant", "--eps", "8", "--delta", "1e-5", "--steps", "200",
        "--q", "1.0", "--mode", "search",
    ]) == 0
    out = capsys.readouterr().out
    sigma = float(out.split("searched sigma = ")[1].split()[0])
    assert sigma <= 11.996314780470203
    spent = float(out.split("epsilon = ")[1].split()[0])
    assert spent <= 8.0


@pytest.mark.parametrize(
    "eps, delta, steps, q, mode, expected",
    [
        (8.0, 1e-5, 100, 1.0, "closed",
         "closed-form sigma = 11.996315 (per-release multiplier)\n"
         "verification: composing 200 releases at sigma=11.996315 "
         "spends epsilon = 6.352587 <= 8 at order 5.0000\n"),
        (8.0, 1e-5, 200, 0.05, "search",
         "searched sigma = 0.895054 (per-step multiplier, q=0.05)\n"
         "verification: 200 subsampled releases at sigma=0.895054 "
         "spend epsilon = 7.999853 <= 8 at order 4.0000\n"),
        # calibrated at the analytic order 1 + 2 log(1e3) / 0.05, past the
        # integer orders, and verified on the same grid
        (0.05, 1e-3, 10, 1.0, "search",
         "searched sigma = 235.510100 (per-step multiplier, q=1)\n"
         "verification: 10 subsampled releases at sigma=235.510100 "
         "spend epsilon = 0.049999 <= 0.05 at order 277.3102\n"),
    ],
    ids=["closed", "search-q0.05", "search-q1-analytic-order"],
)
def test_accountant_certificate(capsys, eps, delta, steps, q, mode, expected):
    assert accountant_command(eps, delta, steps, q=q, mode=mode) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert float(out.split("epsilon = ")[1].split()[0]) <= eps


def test_accountant_huge_epsilon_hits_bracket(capsys):
    assert main([
        "accountant", "--eps", "1e9", "--delta", "1e-2", "--steps", "1",
        "--mode", "search",
    ]) == 0
    out = capsys.readouterr().out
    sigma = float(out.split("searched sigma = ")[1].split()[0])
    assert sigma == pytest.approx(0.01)


def test_bench_command_within_band(capsys):
    assert main(["bench", "--m", "100", "--k", "20", "--p", "1000"]) == 0
    out = capsys.readouterr().out
    assert "groups" in out
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in {"1", "2", "5"}:
            assert 0.9 <= float(parts[3]) <= 1.5


def test_project_error_command(capsys):
    assert main([
        "project-error", "--seed", "0", "--k", "2", "5", "10",
        "--n", "120", "--input-dim", "39", "--m", "40",
    ]) == 0
    out = capsys.readouterr().out
    assert "power" in out and "random" in out
    assert "anchor-count sweep" in out

    # exactly-zero errors print as a floor, not as rounding digits
    lowrank = [
        "project-error", "--task", "lowrank", "--seed", "0", "--k", "2", "5", "10",
        "--n", "120", "--input-dim", "39", "--m", "40",
    ]
    tables = []
    for _ in range(2):
        assert main(lowrank) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert "<1e-12" in tables[0]
    assert not re.search(r"e-1[3-9]", tables[0])


def test_report_command(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg_path = write_config(tmp_path, BASE_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert "gp" in capsys.readouterr().out
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 1


GRID_CONFIG = BASE_CONFIG.replace("method = gp", "method = gep, gp").replace(
    "seeds = 0", "seeds = 0, 1"
) + "sweep.epsilon = 2, 8\n"


@pytest.mark.parametrize("steps", [3, 0])
def test_report_prints_the_train_summary(tmp_path, capsys, steps):
    out = tmp_path / "runs"
    text = GRID_CONFIG.replace("train.steps = 3", f"train.steps = {steps}")
    cfg_path = write_config(tmp_path, text + f"out = {out}\n")
    assert main(["train", "--config", cfg_path]) == 0
    assert len(list(out.glob("*.metrics.jsonl"))) == 8
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert report == (out / "summary.txt").read_text()
    assert report.count("n/a") == (4 if steps == 0 else 0)
    # a second command into the directory: its summary still covers every run
    assert main(["train", "--config", cfg_path, "--method", "gp"]) == 0
    assert (out / "summary.txt").read_text() == report
    assert len(json.loads((out / "summary.json").read_text())) == 8


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("steps", [3, 0])
def test_a_regression_summary_shows_the_eval_loss(tmp_path, capsys, steps):
    # a linear model records NaN accuracy at every step
    text = GRID_CONFIG.replace("train.steps = 3", f"train.steps = {steps}")
    for line in ("model.kind = linear", "data.kind = lowrank-gradient-task", "data.rank = 3"):
        key = line.split(" = ")[0]
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$\n?", "", text) + line + "\n"
    out = tmp_path / "runs"
    assert main(["train", "--config", write_config(tmp_path, text + f"out = {out}\n")]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert report == (out / "summary.txt").read_text()
    assert report.count("n/a") == (4 if steps == 0 else 0)
    assert report.count("loss ") == (0 if steps == 0 else 4)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse)
    assert len(summary) == 8
    assert all(entry["final_accuracy"] is None for entry in summary)
    assert all((entry["final_eval_loss"] is None) == (steps == 0) for entry in summary)


def test_summary_table_ignores_run_order():
    # file-name order puts seed10 before seed8, grid order after it; these
    # four means land on a rounding tie in one of the two orders
    accs = [0.87, 0.635, 0.82, 0.585]
    results = [
        {"method": "gep", "k": 2, "m": 10, "epsilon": 8.0, "final_accuracy": acc}
        for acc in accs
    ]
    assert _summary_table(results) == _summary_table(results[::-1])
    assert _summary_table(results).endswith("0.728 +/- 0.120   ")


@pytest.mark.parametrize(
    "ks, labels",
    [
        ((2,), ["gep (m=8)", "gep (m=10)"]),
        ((2, 3), ["gep (k=2, m=8)", "gep (k=2, m=10)", "gep (k=3, m=8)", "gep (k=3, m=10)"]),
    ],
    ids=["m", "k-and-m"],
)
def test_an_anchor_count_sweep_has_one_summary_row_per_m(ks, labels):
    results = [
        {"method": "gep", "k": k, "m": m, "epsilon": 8.0, "final_accuracy": m / 10}
        for k in ks
        for m in (10, 8)
    ]
    rows = [line.rstrip() for line in _summary_table(results).splitlines()[1:]]
    # each m keeps its own mean: 0.8 at m = 8, 1.0 at m = 10
    assert rows == [
        f"{label:<18}{0.8 if 'm=8' in label else 1.0:.3f} +/- 0.000" for label in labels
    ]


def test_report_reads_exponent_epsilons(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG + f"sweep.epsilon = 1e-05\nprivacy.sigma_override = 1.0\nout = {out}\n",
    )
    assert main(["train", "--config", cfg_path, "--seed", "-1"]) == 0
    assert [f.name for f in out.glob("*.metrics.jsonl")] == [
        "gp-eps1e-05-k2-m10-seed-1.metrics.jsonl"
    ]
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "1e-05" in report and "nan" not in report


def test_nan_values_are_config_errors(tmp_path, capsys):
    assert main(["accountant", "--eps", "nan", "--delta", "1e-5", "--steps", "100",
                 "--mode", "search"]) == 2
    assert "epsilon" in capsys.readouterr().err
    for line in ("privacy.epsilon = nan", "gep.s1 = nan", "train.lr = nan"):
        key = line.split(" = ")[0]
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$\n?", "", BASE_CONFIG) + line + "\n"
        cfg_path = write_config(tmp_path, text + f"out = {tmp_path / 'r'}\n")
        assert main(["train", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, word",
    [(("data.kind = lowrank-gradient-task", "data.rank = 1", "model.kind = linear"), "rank"),
     (("data.kind = separable", "data.margin = nan"), "margin")],
    ids=["rank-1", "margin-nan"],
)
def test_bad_synthetic_data_parameters_are_config_errors(tmp_path, capsys, lines, word):
    text = BASE_CONFIG
    for line in lines:
        key = line.split(" = ")[0]
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$\n?", "", text) + line + "\n"
    cfg_path = write_config(tmp_path, text + f"out = {tmp_path / 'r'}\n")
    assert main(["train", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and word in err


@pytest.mark.parametrize(
    "lines, word",
    [(("data.kind = split-signal",), "subspace_dim"),
     (("aux.source = synthetic", "data.normalize = per-feature-standardize"), "public pool"),
     (("sweep.k = 2, 0",), "k must be"),
     (("method =",), "'method' is empty"),
     (("seeds =",), "'seeds' is empty")]
    + [((f"data.eval_fraction = {f}",), "'data.eval_fraction'")
       for f in ("inf", "nan", "0", "-0.5", "1e308")]
    + [(("sweep.k = 2, 1000",), "exceeds the total parameter count"),
       (("model.kind = mlp", "gep.k = 1"), "below the number of groups"),
       (("out = {tmp}/afile",), "cannot make output directory"),
       (("out = {tmp}/afile/sub",), "cannot make output directory")],
    ids=["split-signal-without-subspace", "standardize-without-pool", "later-run",
         "no-method", "no-seed", "eval-inf", "eval-nan", "eval-0", "eval-negative",
         "eval-overflow", "k-over-parameter-count", "mlp-k-below-groups",
         "out-is-a-file", "out-under-a-file"],
)
def test_a_config_error_writes_no_output_directory(tmp_path, capsys, lines, word):
    # build_task alone sees the first two and the eval fractions (not
    # positive, or times data.n not finite); the third is the grid's second
    # run, and the next two make a grid of no runs.  The next two are basis
    # sizes the model's groups refuse, which each run's TrainConfig checks,
    # and the last two are output paths that a file blocks
    (tmp_path / "afile").write_text("kept\n")
    text = BASE_CONFIG + f"out = {tmp_path / 'runs'}\n"
    for line in lines:
        key = line.split("=")[0].strip()
        line = line.format(tmp=tmp_path)
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$\n?", "", text) + line + "\n"
    assert main(["train", "--config", write_config(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and word in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "run.cfg"]
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_a_diverging_run_exits_1_and_keeps_earlier_runs(tmp_path, capsys):
    out = tmp_path / "runs"
    cfg_path = write_config(tmp_path, BASE_CONFIG + f"out = {out}\n")
    assert main(["train", "--config", cfg_path, "--method", "gep"]) == 0
    summary = (out / "summary.json").read_text()
    diverging = write_config(
        tmp_path,
        BASE_CONFIG.replace("train.lr = 0.2", "train.lr = 1e300")
        + f"privacy.sigma_override = 0\nout = {out}\n",
        name="diverging.cfg",
    )
    capsys.readouterr()
    assert main(["train", "--config", diverging, "--method", "gp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("training diverged: non-finite parameters") and err.count("\n") == 1
    assert [path.name for path in out.glob("*.metrics.jsonl")] == [
        "gep-eps8-k2-m10-seed0.metrics.jsonl"
    ]
    assert (out / "summary.json").read_text() == summary


def test_commands_raise_and_main_maps_the_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown mode"):
        accountant_command(8.0, 1e-5, 10, mode="fast")
    with pytest.raises(ConfigError, match="unknown task"):
        project_error_command(task_kind="cubic")
    with pytest.raises(MetricsError, match="no such directory"):
        report_command(str(tmp_path / "nothing"))
    # the closed form's own range check is a config error like the others
    assert main(["accountant", "--eps", "40", "--delta", "1e-5", "--steps", "10"]) == 2
    assert capsys.readouterr().err.startswith("config error: epsilon=40")


@pytest.mark.parametrize(
    "argv",
    [["bench", "--groups", "0"], ["bench", "--k", "0"],
     ["project-error", "--k", "0"], ["project-error", "--n", "0"]],
    ids=["bench-groups", "bench-k", "project-error-k", "project-error-n"],
)
def test_an_out_of_range_option_is_a_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_every_gep_and_train_key_reaches_its_field(tmp_path):
    values = {
        "gep.t": 3, "gep.s1": 4.5, "gep.s2": 0.75,
        "train.batch": "poisson", "train.q": 0.3, "train.lr": 0.05,
        "train.momentum": 0.5, "train.weight_decay": 0.001,
        "train.lr_decay": False, "train.track_spectra": True,
    }
    assert all(values[key] != SCHEMA[key].default for key in values)
    text = BASE_CONFIG.replace("gep.s1 = 5.0\ngep.s2 = 1.0\n", "").replace(
        "train.lr = 0.2\n", ""
    ) + "".join(f"{key} = {_format_value(value)}\n" for key, value in values.items())
    cfg = load_config(write_config(tmp_path, text))
    run = expand_runs(cfg)[0]
    train_cfg = _train_config(cfg, run, build_task(cfg, run.m))
    for key, value in values.items():
        section, name = key.split(".")
        owner = train_cfg.gep if section == "gep" else train_cfg
        assert getattr(owner, name) == value and type(getattr(owner, name)) is type(value)
    assert (train_cfg.gep.k, train_cfg.gep.m, train_cfg.steps) == (2, 10, 3)


def test_main_calls_the_harness_function_it_finds_at_call_time(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "bench_command", lambda **kw: calls.append(kw) or 7)
    assert main(["bench"]) == 7
    assert main(["bench", "--k", "4", "--groups", "1", "3"]) == 7
    assert calls == [{}, {"k": 4, "groups": [1, 3]}]


def test_every_option_is_a_parameter_of_its_harness_function():
    # an option has no default of its own: the signature's is the only one
    (commands,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for sub in commands.choices.values():
        function = getattr(harness, sub.get_default("function"))
        params = inspect.signature(function).parameters
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.dest in params
            assert action.required or action.default is argparse.SUPPRESS
            if action.choices is not None:  # read from the harness
                assert params[action.dest].default in action.choices
