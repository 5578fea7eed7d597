"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from gep.accounting import (
    DpBudget,
    calibrate_sigma_closed_form,
    gaussian_curve,
    subsampled_gaussian_curve,
)
from gep.cli import main as cli_main
from gep.harness import _bench_case
from gep.linalg import RandomStream
from gep.models import make_group_layout, per_sample_gradients
from gep.release import (
    GepConfig,
    build_anchor_basis,
    projection_error_rate,
    release_gradient,
    single_group_layout,
)
from gep.tasks import (
    lowrank_regression_task,
    mlp_cluster_task,
    split_signal_task,
    toy_regression_task,
)
from gep.training import TrainConfig, dp_train, gd_train
from oracle import blocks, convex_utility_experiment, row_norms, split, stable_rank


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}  ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _elapsed_ok(start: float, budget_s: float) -> tuple[float, bool]:
    elapsed = time.time() - start
    return elapsed, elapsed < budget_s


def test_criterion_01_unbiasedness():
    start = time.time()
    n, p, k, sigma, draws = 50, 200, 20, 0.4, 10_000
    task = lowrank_regression_task(0, n=n, input_dim=p - 1, rank=8, tail=0.4, m_aux=40)
    grads = per_sample_gradients(task.model, task.private)
    anchor_grads = per_sample_gradients(task.model, task.aux)
    basis = build_anchor_basis(
        anchor_grads,
        single_group_layout(p, k),
        GepConfig(k=k, m=40, t=4),
        RandomStream(0).generator(1),
    )
    # clipping disabled: thresholds sit above every row norm
    w, r = split(basis, grads)
    s1 = 1.3 * float(np.max(row_norms(w)))
    s2 = 1.3 * float(np.max(row_norms(r)))

    g_bar = grads.sum(axis=0) / n
    r_bar = r.sum(axis=0) / n
    stream = RandomStream(7)
    total_v = np.zeros(p)
    total_u = np.zeros(p)
    for i in range(draws):
        rng = stream.generator(i)
        total_v += release_gradient("gep", grads, basis, s1, s2, sigma, rng).v_tilde
        total_u += release_gradient("bgep", grads, basis, s1, s2, sigma, rng).v_tilde
    mean_v = total_v / draws
    mean_u = total_u / draws

    # exact per-coordinate noise variances of the two releases
    btb_diag = np.zeros(p)
    for group, block in zip(basis.layout.groups, blocks(basis)):
        cols = slice(group.offset, group.offset + group.length)
        btb_diag[cols] = (block * block).sum(axis=0)
    var_v = 2 * sigma**2 * (s1**2 * btb_diag + s2**2) / n**2
    var_u = sigma**2 * s1**2 * btb_diag / n**2

    z_v = float(np.max(np.abs(mean_v - g_bar) / np.sqrt(var_v / draws)))
    z_u = float(
        np.max(np.abs(mean_u - (g_bar - r_bar)) / np.sqrt(var_u / draws))
    )
    bias_norm = float(np.linalg.norm(mean_u - g_bar))
    se_norm = float(np.sqrt(var_u.sum() / draws))
    elapsed, in_time = _elapsed_ok(start, 30.0)
    ok = z_v <= 4.0 and z_u <= 4.0 and bias_norm > 10 * se_norm and in_time
    _report(
        1,
        "unbiased v, biased u",
        ok,
        f"max|z_v|={z_v:.2f}<=4, max|z_u|={z_u:.2f}<=4, "
        f"bias={bias_norm:.3f}>10*SE={10 * se_norm:.3f}, {elapsed:.1f}s<30s",
    )


def test_criterion_02_exact_recovery():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        task = lowrank_regression_task(
            seed, n=200, input_dim=99, rank=5, tail=0.0, m_aux=10
        )
        grads = per_sample_gradients(task.model, task.private)
        anchor_grads = per_sample_gradients(task.model, task.aux)
        basis = build_anchor_basis(
            anchor_grads,
            single_group_layout(100, 5),
            GepConfig(k=5, m=10, t=10),
            RandomStream(seed).generator(1),
        )
        worst = max(worst, projection_error_rate(grads, basis))
    elapsed, in_time = _elapsed_ok(start, 5.0)
    ok = worst <= 1e-6 and in_time
    _report(
        2,
        "exact k=5 subspace recovery",
        ok,
        f"worst error over 20 trials = {worst:.2e} <= 1e-6, {elapsed:.1f}s<5s",
    )


def _trend_error(seed: int, k: int, m: int, m_pool: int) -> float:
    # a fixed anchor pool of m_pool rows is sliced to m, so sweeps over m
    # compare subspace estimates against the same private gradients
    task = lowrank_regression_task(
        seed, n=200, input_dim=99, rank=12, tail=0.15, m_aux=m_pool
    )
    grads = per_sample_gradients(task.model, task.private)
    anchor_grads = per_sample_gradients(task.model, task.aux)[:m]
    basis = build_anchor_basis(
        anchor_grads,
        single_group_layout(100, k),
        GepConfig(k=k, m=m, t=2),
        RandomStream(seed).generator(5),
    )
    return projection_error_rate(grads, basis)


def test_criterion_03_error_trends():
    start = time.time()
    seeds = range(10)
    ks = (5, 10, 20, 40, 80)
    k_means = [
        float(np.mean([_trend_error(s, k, 100, 100) for s in seeds])) for k in ks
    ]
    k_inversions = sum(b >= a for a, b in zip(k_means, k_means[1:]))
    ms = (50, 100, 200)
    m_means = [
        float(np.mean([_trend_error(s, 20, m, 200) for s in seeds])) for m in ms
    ]
    m_decreasing = all(b < a for a, b in zip(m_means, m_means[1:]))
    elapsed, in_time = _elapsed_ok(start, 60.0)
    ok = k_inversions <= 1 and m_decreasing and in_time
    _report(
        3,
        "projection error falls with k and m",
        ok,
        f"k-sweep {['%.3f' % v for v in k_means]} ({k_inversions} inversions<=1), "
        f"m-sweep {['%.3f' % v for v in m_means]} decreasing={m_decreasing}, "
        f"{elapsed:.1f}s<60s",
    )


def test_criterion_04_residual_stable_rank():
    start = time.time()
    ratios = []
    sr_gs, sr_rs = [], []
    for seed in range(5):
        task = mlp_cluster_task(seed)
        grads = per_sample_gradients(task.model, task.private)
        stream = RandomStream(seed)
        relabeled = task.aux.with_labels(
            stream.generator(1).integers(0, task.model.output_dim, size=task.aux.n)
        )
        anchor_grads = per_sample_gradients(task.model, relabeled)
        layout = make_group_layout(task.model, 40)
        basis = build_anchor_basis(
            anchor_grads,
            layout,
            GepConfig(k=40, m=task.aux.n, t=2),
            stream.generator(2),
        )
        _, resid = split(basis, grads)
        sr_g = stable_rank(grads)
        sr_r = stable_rank(resid)
        sr_gs.append(sr_g)
        sr_rs.append(sr_r)
        ratios.append(sr_r / sr_g)
    mean_g = float(np.mean(sr_gs))
    mean_r = float(np.mean(sr_rs))
    elapsed, in_time = _elapsed_ok(start, 60.0)
    ok = mean_r >= 3.0 * mean_g and in_time
    _report(
        4,
        "residual stable rank >= 3x",
        ok,
        f"mean sr(G)={mean_g:.2f}, mean sr(R)={mean_r:.2f}, "
        f"ratios={['%.1f' % r for r in ratios]}, {elapsed:.1f}s<60s",
    )


def test_criterion_05_accountant():
    start = time.time()
    # frozen 50-digit evaluation of 2 sqrt(2 T log(1/delta)) / eps
    oracle = 11.996314780470203
    sigma = calibrate_sigma_closed_form(DpBudget(8.0, 1e-5), 100)
    closed_ok = abs(sigma - oracle) <= 1e-9 * oracle

    # composing the two releases and converting at the analytic order
    eps, delta = 8.0, 1e-5
    log_inv = math.log(1 / delta)
    lam = 1 + 2 * log_inv / eps
    sigma_1 = calibrate_sigma_closed_form(DpBudget(eps, delta), 1)
    eps_prime = 2 * gaussian_curve([lam], 1.0, sigma_1).costs[0] + log_inv / (lam - 1)
    round_trip_ok = eps_prime <= eps + 1e-9

    # q=1 subsampled bound equals the plain Gaussian cost
    orders = np.arange(2, 65)
    plain = gaussian_curve(orders, 1.0, 2.5).costs
    sub = subsampled_gaussian_curve(orders, 1.0, 2.5).costs
    sub_ok = bool(np.all(np.abs(sub - plain) <= 1e-12 * plain))
    elapsed, in_time = _elapsed_ok(start, 1.0)
    ok = closed_ok and round_trip_ok and sub_ok and in_time
    _report(
        5,
        "accountant calibration",
        ok,
        f"sigma={sigma:.9f} vs oracle (1e-9 rel), round-trip eps'={eps_prime:.4f}<=8, "
        f"q=1 match at orders 2..64, {elapsed:.2f}s<1s",
    )


def test_criterion_06_utility_ordering():
    start = time.time()
    task = split_signal_task(
        0, n=2000, input_dim=199, m_aux=400, n_eval=500,
        subspace_dim=6, sep=3.0, cluster_weight=1.5, dense_weight=4.0,
        feature_scale=0.5,
    )
    base = TrainConfig(
        model=task.model,
        gep=GepConfig(k=6, m=400, t=2, s1=10.0, s2=2.0),
        budget=DpBudget(8.0, 1e-5),
        steps=150,
        aux_data=task.aux,
        lr=1.2,
        momentum=0.5,
        weight_decay=0.0,
        seed=0,
    )
    points = convex_utility_experiment(
        base,
        task.private,
        task.eval,
        methods=("gep", "bgep", "gp"),
        epsilons=(8.0, 80.0),
        seeds=(0, 1, 2, 3, 4),
    )
    cell = {(p.method, p.epsilon): p for p in points}
    acc_margin = (
        cell[("gep", 8.0)].mean_accuracy - cell[("gp", 8.0)].mean_accuracy
    )
    bgep_margin = (
        cell[("gep", 8.0)].mean_accuracy - cell[("bgep", 8.0)].mean_accuracy
    )
    proj = cell[("gep", 8.0)].mean_projection_error
    bgep_8 = cell[("bgep", 8.0)].mean_excess_loss
    bgep_80 = cell[("bgep", 80.0)].mean_excess_loss
    plateau = abs(bgep_80 - bgep_8) / bgep_8
    gep_8 = cell[("gep", 8.0)].mean_excess_loss
    gep_80 = cell[("gep", 80.0)].mean_excess_loss
    shrink = (gep_8 - gep_80) / gep_8
    elapsed, in_time = _elapsed_ok(start, 300.0)
    ok = (
        acc_margin >= 0.02
        and bgep_margin > 0
        and proj >= 0.2
        and plateau < 0.10
        and shrink >= 0.30
        and in_time
    )
    _report(
        6,
        "utility ordering at matched budgets",
        ok,
        f"acc(GEP)-acc(GP)={acc_margin:+.3f}>=0.02, "
        f"acc(GEP)-acc(BGEP)={bgep_margin:+.3f}>0, proj={proj:.2f}>=0.2, "
        f"bgep plateau={plateau:.3f}<0.10, gep shrink={shrink:.2f}>=0.30, "
        f"{elapsed:.0f}s<300s",
    )


def test_criterion_07_random_basis_ablation():
    start = time.time()
    seeds = range(10)
    ks = (10, 20, 40, 80)
    worst_ratio = math.inf
    detail = []
    for k in ks:
        errs = {"power": [], "random": []}
        for seed in seeds:
            task = lowrank_regression_task(
                seed, n=200, input_dim=99, rank=12, tail=0.15, m_aux=100
            )
            grads = per_sample_gradients(task.model, task.private)
            anchor_grads = per_sample_gradients(task.model, task.aux)
            for mode in ("power", "random"):
                basis = build_anchor_basis(
                    anchor_grads,
                    single_group_layout(100, k),
                    GepConfig(k=k, m=100, t=2),
                    RandomStream(seed).generator(6, k),
                    basis_mode=mode,
                )
                errs[mode].append(projection_error_rate(grads, basis))
        ratio = float(np.mean(errs["random"])) / float(np.mean(errs["power"]))
        worst_ratio = min(worst_ratio, ratio)
        detail.append(f"k={k}:{ratio:.1f}x")
    elapsed, in_time = _elapsed_ok(start, 60.0)
    ok = worst_ratio >= 2.0 and in_time
    _report(
        7,
        "random basis >= 2x worse",
        ok,
        f"{', '.join(detail)} (min {worst_ratio:.1f}x >= 2x), {elapsed:.1f}s<60s",
    )


def test_criterion_08_cost_model():
    start = time.time()
    rng = np.random.default_rng(0)
    ratios = {}
    for groups in (1, 2, 5):
        case = _bench_case(100, 20, 1000, groups, rng)
        ratios[groups] = case["ratio"]
    elapsed, in_time = _elapsed_ok(start, 10.0)
    ok = all(0.9 <= r <= 1.5 for r in ratios.values()) and in_time
    _report(
        8,
        "power-iteration flop model",
        ok,
        f"measured/model = { {g: round(r, 3) for g, r in ratios.items()} } "
        f"all in [0.9, 1.5], {elapsed:.1f}s<10s",
    )


def test_criterion_09_noiseless_reduction():
    start = time.time()
    task = toy_regression_task(1)
    cfg = TrainConfig(
        model=task.model,
        gep=GepConfig(k=2, m=4, s1=1e9, s2=1e9),
        budget=DpBudget(8.0, 1e-5),
        steps=50,
        aux_data=task.aux,
        method="gp",
        lr=0.3,
        momentum=0.9,
        weight_decay=1e-4,
        seed=0,
        sigma_override=0.0,
    )
    private_model, private_metrics = dp_train(cfg, task.private, task.eval)
    plain_model, plain_metrics = gd_train(cfg, task.private, task.eval)
    theta_identical = np.array_equal(private_model.theta, plain_model.theta)
    losses_identical = all(
        a.train_loss == b.train_loss and a.eval_loss == b.eval_loss
        for a, b in zip(private_metrics, plain_metrics)
    )
    elapsed, in_time = _elapsed_ok(start, 5.0)
    ok = theta_identical and losses_identical and in_time
    _report(
        9,
        "noiseless run is bitwise GD",
        ok,
        f"50 steps, parameters identical={theta_identical}, "
        f"loss streams identical={losses_identical}, {elapsed:.1f}s<5s",
    )


def test_criterion_10_byte_determinism(tmp_path):
    start = time.time()
    out = tmp_path / "runs"
    cfg_text = (
        "method = gep\n"
        "seeds = 0, 1\n"
        "model.kind = logistic\n"
        "data.kind = gaussian-mixture\n"
        "data.n = 80\n"
        "data.input_dim = 6\n"
        "data.classes = 2\n"
        "data.seed = 11\n"
        "aux.m = 16\n"
        "gep.k = 3\n"
        "gep.s1 = 5.0\n"
        "gep.s2 = 1.0\n"
        "train.steps = 4\n"
        "train.lr = 0.2\n"
        "privacy.epsilon = 8.0\n"
        "privacy.delta = 1e-5\n"
        f"out = {out}\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    first = {f.name: f.read_bytes() for f in sorted(out.glob("*.metrics.jsonl"))}
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    second = {f.name: f.read_bytes() for f in sorted(out.glob("*.metrics.jsonl"))}
    elapsed = time.time() - start
    ok = first == second and len(first) == 2
    _report(
        10,
        "byte-identical metrics",
        ok,
        f"{len(first)} runs repeated, files identical={first == second}, "
        f"{elapsed:.1f}s",
    )
