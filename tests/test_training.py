"""Training loop tests: optimizer, determinism, reductions, accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest

import gep.models
import gep.release
import gep.training
from gep.accounting import DpBudget, calibrate_sigma_search, epsilon_for_sigma
from gep.linalg import gaussian_noise
from gep.models import evaluate, per_sample_gradients
from gep.release import METHODS, GepConfig, release_gradient
from gep.tasks import logistic_mixture_task, toy_regression_task
from gep.training import (
    DivergenceError,
    TrainConfig,
    calibrate_noise_multiplier,
    dp_train,
    gd_train,
    optimizer_step,
)
from oracle import convex_utility_experiment, epsilon_schedule, nonprivate_optimum


def toy_cfg(task, **kwargs):
    base = dict(
        model=task.model,
        gep=GepConfig(k=2, m=4, s1=1e9, s2=1e9),
        budget=DpBudget(8.0, 1e-5),
        steps=50,
        aux_data=task.aux,
        method="gp",
        lr=0.05,
        seed=0,
        sigma_override=0.0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


def test_optimizer_plain_step():
    theta = np.array([1.0, -2.0])
    v = np.zeros(2)
    update = np.array([0.5, 0.5])
    theta2, v2 = optimizer_step(theta, v, update, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_array_equal(theta2, theta - 0.1 * update)
    np.testing.assert_array_equal(v2, update)


def test_optimizer_velocity_decay():
    theta = np.zeros(3)
    v = np.array([1.0, 2.0, -1.0])
    for _ in range(5):
        theta, v = optimizer_step(theta, v, np.zeros(3), 0.1, 0.5, 0.0)
    np.testing.assert_allclose(v, 0.5**5 * np.array([1.0, 2.0, -1.0]), rtol=1e-15)


def test_optimizer_hand_recurrence():
    # two steps at momentum 0.9 on a 3-dim toy, checked against the
    # recurrence written out by hand
    theta0 = np.array([1.0, 0.0, -1.0])
    g1 = np.array([0.2, -0.4, 0.6])
    g2 = np.array([-0.1, 0.3, 0.5])
    lr, mu, wd = 0.5, 0.9, 0.01

    v1_hand = g1 + wd * theta0
    theta1_hand = theta0 - lr * v1_hand
    v2_hand = mu * v1_hand + (g2 + wd * theta1_hand)
    theta2_hand = theta1_hand - lr * v2_hand

    theta1, v1 = optimizer_step(theta0, np.zeros(3), g1, lr, mu, wd)
    theta2, v2 = optimizer_step(theta1, v1, g2, lr, mu, wd)
    np.testing.assert_array_equal(theta1, theta1_hand)
    np.testing.assert_array_equal(v2, v2_hand)
    np.testing.assert_array_equal(theta2, theta2_hand)


def test_optimizer_divergence_error():
    with pytest.raises(DivergenceError):
        optimizer_step(
            np.array([1.0]), np.zeros(1), np.array([np.inf]), 0.1, 0.0, 0.0
        )


def _refuse_calibration(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("calibrated a noise multiplier")

    monkeypatch.setattr(gep.training, "calibrate_sigma_search", refused)


def test_dp_train_zero_steps(monkeypatch):
    # a zero-step run releases nothing, so it calibrates nothing either
    _refuse_calibration(monkeypatch)
    task = toy_regression_task(0)
    for sigma_override in (0.0, None):
        cfg = toy_cfg(task, steps=0, sigma_override=sigma_override)
        model, metrics = dp_train(cfg, task.private, task.eval)
        assert metrics == []
        np.testing.assert_array_equal(model.theta, task.model.theta)


def test_dp_train_deterministic_given_seed():
    task = logistic_mixture_task(3, n=120, input_dim=19, m_aux=30, n_eval=40)
    cfg = toy_cfg(
        task,
        method="gep",
        gep=GepConfig(k=4, m=30, s1=5.0, s2=1.0),
        steps=12,
        sigma_override=0.8,
        batch="poisson",
        q=0.5,
    )
    model_a, metrics_a = dp_train(cfg, task.private, task.eval)
    model_b, metrics_b = dp_train(cfg, task.private, task.eval)
    np.testing.assert_array_equal(model_a.theta, model_b.theta)
    for field in ("train_loss", "eval_loss", "eval_accuracy", "projection_error_rate"):
        np.testing.assert_array_equal(
            np.array([getattr(m, field) for m in metrics_a]),
            np.array([getattr(m, field) for m in metrics_b]),
        )


def test_noiseless_gp_training_is_bitwise_gd():
    task = toy_regression_task(1)
    cfg = toy_cfg(task, method="gp", steps=50, momentum=0.0, weight_decay=0.0, lr=0.3)
    private_model, private_metrics = dp_train(cfg, task.private, task.eval)
    plain_model, plain_metrics = gd_train(cfg, task.private, task.eval)
    np.testing.assert_array_equal(private_model.theta, plain_model.theta)
    np.testing.assert_array_equal(
        np.array([m.train_loss for m in private_metrics]),
        np.array([m.train_loss for m in plain_metrics]),
    )
    np.testing.assert_array_equal(
        np.array([m.eval_loss for m in private_metrics]),
        np.array([m.eval_loss for m in plain_metrics]),
    )
    # and the loss actually decreases on the exactly solvable task
    losses = [m.train_loss for m in plain_metrics]
    assert losses[-1] < 1e-2 * losses[0]
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_gd_train_ignores_the_release_settings(monkeypatch):
    # the method, the thresholds, the noise, the batch rule and the spectra
    # are the private run's; plain descent reads none of them and calibrates
    # nothing, and its metrics carry no release diagnostics
    _refuse_calibration(monkeypatch)
    task = toy_regression_task(4)
    plain_model, plain_metrics = gd_train(toy_cfg(task, steps=8), task.private, task.eval)
    cfg = toy_cfg(
        task,
        steps=8,
        method="gep",
        gep=GepConfig(k=2, m=4, s1=0.01, s2=0.01),
        batch="poisson",
        q=0.3,
        track_spectra=True,
        sigma_override=None,
    )
    model, metrics = gd_train(cfg, task.private, task.eval)
    np.testing.assert_array_equal(model.theta, plain_model.theta)
    for field in ("train_loss", "eval_loss", "eval_accuracy"):
        np.testing.assert_array_equal(
            np.array([getattr(m, field) for m in metrics]),
            np.array([getattr(m, field) for m in plain_metrics]),
        )
    for m in metrics:
        assert m.k_effective == 0
        for field in ("projection_error_rate", "stable_rank_g", "stable_rank_r",
                      "clip_fraction_s1", "clip_fraction_s2", "epsilon_spent"):
            assert math.isnan(getattr(m, field)), field


def test_noiseless_gep_training_matches_gd_closely():
    # the anchor-subspace path reassociates floating point sums, so the
    # reduction to plain descent holds to rounding, not bitwise
    task = toy_regression_task(2)
    cfg = toy_cfg(task, method="gep", steps=50)
    private_model, _ = dp_train(cfg, task.private, task.eval)
    plain_model, _ = gd_train(cfg, task.private, task.eval)
    np.testing.assert_allclose(
        private_model.theta, plain_model.theta, rtol=1e-10, atol=1e-12
    )


def test_poisson_empty_batches_skip_update():
    task = logistic_mixture_task(5, n=40, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(
        task,
        method="gep",
        gep=GepConfig(k=2, m=20, s1=5.0, s2=1.0),
        steps=30,
        batch="poisson",
        q=0.02,  # most steps see an empty batch
        sigma_override=1.0,
    )
    model, metrics = dp_train(cfg, task.private, task.eval)
    assert len(metrics) == 30
    skipped = [m for m in metrics if math.isnan(m.clip_fraction_s1)]
    assert skipped, "expected at least one empty batch at q=0.02"
    # epsilon accrues on every step, including skipped ones
    eps = [m.epsilon_spent for m in metrics]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert len({round(e, 12) for e in eps}) == len(eps)


def _count_forwards(monkeypatch):
    """Patch every binding of ``forward`` with one that records its dataset."""
    seen = []
    original = gep.models.forward

    def counted(model, data):
        seen.append(data)
        return original(model, data)

    monkeypatch.setattr(gep.models, "forward", counted)
    monkeypatch.setattr(gep.training, "forward", counted)
    return seen


@pytest.mark.parametrize("method", ["gep", "gp"])
def test_full_batch_runs_one_private_forward_per_step(monkeypatch, method):
    # the post-step forward that gives the train loss feeds the next
    # step's backward pass: T steps run T + 1 private forwards, not 2T
    task = logistic_mixture_task(6, n=60, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(task, method=method, gep=GepConfig(k=3, m=20, s1=1.0, s2=0.5),
                  steps=5, sigma_override=0.7)
    seen = _count_forwards(monkeypatch)
    dp_train(cfg, task.private, task.eval)
    assert sum(data is task.private for data in seen) == cfg.steps + 1
    assert sum(data is task.eval for data in seen) == cfg.steps
    seen.clear()
    gd_train(cfg, task.private, task.eval)
    assert sum(data is task.private for data in seen) == cfg.steps + 1


def test_poisson_run_forwards_each_batch_and_the_private_set_once(monkeypatch):
    task = logistic_mixture_task(6, n=60, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(task, method="gp", steps=5, batch="poisson", q=0.5, sigma_override=0.7)
    seen = _count_forwards(monkeypatch)
    dp_train(cfg, task.private, task.eval)
    batches = [data for data in seen if data is not task.private and data is not task.eval]
    assert sum(data is task.private for data in seen) == cfg.steps
    assert len(batches) == cfg.steps
    assert all(0 < batch.n < task.private.n for batch in batches)


@pytest.mark.parametrize("batch", ["full", "poisson"])
def test_train_loss_equals_a_fresh_evaluate_at_each_iterate(monkeypatch, batch):
    task = logistic_mixture_task(7, n=60, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(task, method="gep", gep=GepConfig(k=3, m=20, s1=1.0, s2=0.5),
                  steps=6, sigma_override=0.7, batch=batch, q=0.5)
    iterates = []
    original = gep.training.optimizer_step

    def recorded(*args):
        theta, velocity = original(*args)
        iterates.append(theta.copy())
        return theta, velocity

    monkeypatch.setattr(gep.training, "optimizer_step", recorded)
    for train in (dp_train, gd_train):
        iterates.clear()
        _, metrics = train(cfg, task.private, task.eval)
        assert len(iterates) == cfg.steps
        for theta, m in zip(iterates, metrics):
            fresh = cfg.model.with_theta(theta)
            assert m.train_loss == evaluate(fresh, task.private)[0]
            assert (m.eval_loss, m.eval_accuracy) == evaluate(fresh, task.eval)


def test_epsilon_spent_within_budget_and_recomputable():
    task = logistic_mixture_task(7, n=150, input_dim=19, m_aux=40, n_eval=40)
    budget = DpBudget(3.0, 1e-5)
    cfg = toy_cfg(
        task,
        method="gep",
        gep=GepConfig(k=4, m=40),
        steps=15,
        batch="poisson",
        q=0.3,
        budget=budget,
        sigma_override=None,
    )
    sigma = calibrate_noise_multiplier(cfg)
    model, metrics = dp_train(cfg, task.private, task.eval)
    assert metrics[-1].epsilon_spent <= budget.epsilon + 1e-12
    # independent recomputation through the accountant
    recomputed, _ = epsilon_for_sigma(sigma, budget, cfg.q, cfg.steps)
    assert metrics[-1].epsilon_spent == pytest.approx(recomputed, rel=1e-12)
    eps = [m.epsilon_spent for m in metrics]
    assert all(b >= a for a, b in zip(eps, eps[1:]))


@pytest.mark.parametrize(
    "batch, q, budget, sigma_override",
    [
        ("full", 1.0, DpBudget(0.05, 1e-3), None),
        ("poisson", 0.05, DpBudget(2.0, 1e-5), None),
        ("full", 1.0, DpBudget(2.0, 1e-5), 0.0),
    ],
    ids=["q1-analytic-order", "q0.05", "sigma0"],
)
def test_epsilon_column_is_the_per_step_composition(batch, q, budget, sigma_override):
    # bitwise the reference that composes each step count apart; at q = 1
    # every step's best order is the analytic 1 + 2 log(1e3) / 0.05 = 277.3,
    # past the integer orders
    task = logistic_mixture_task(5, n=100, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(
        task, method="gep", gep=GepConfig(k=3, m=20), steps=30, budget=budget,
        batch=batch, q=q, sigma_override=sigma_override,
    )
    sigma = calibrate_noise_multiplier(cfg) if sigma_override is None else sigma_override
    _, metrics = dp_train(cfg, task.private, task.eval)
    spent = [m.epsilon_spent for m in metrics]
    assert spent == epsilon_schedule(sigma, budget, q, cfg.steps)
    assert all(type(eps) is float for eps in spent)
    assert spent[-1] <= budget.epsilon or sigma == 0
    if sigma == 0:
        assert spent == [math.inf] * cfg.steps


def test_every_method_calibrates_to_the_same_step_multiplier():
    # sigma is the per-step unit-sensitivity multiplier for every method;
    # how many sums a step perturbs only changes the per-sum noise std
    task = logistic_mixture_task(9, n=100, input_dim=19, m_aux=30, n_eval=30)
    budget = DpBudget(2.0, 1e-5)
    for batch, q in (("full", 1.0), ("poisson", 0.2)):
        cfg = toy_cfg(
            task, gep=GepConfig(k=4, m=30), steps=10, budget=budget,
            batch=batch, q=q, sigma_override=None,
        )
        expected = calibrate_sigma_search(budget, q, 10)
        for method in METHODS:
            assert calibrate_noise_multiplier(replace(cfg, method=method)) == expected


def test_a_release_below_the_charged_multiplier_stops_the_run(monkeypatch):
    # half the embedding's noise leaves the step at sigma * sqrt(2/5)
    task = logistic_mixture_task(9, n=100, input_dim=19, m_aux=30, n_eval=30)
    cfg = toy_cfg(task, method="gep", gep=GepConfig(k=4, m=30), steps=3, sigma_override=1.5)
    planned = gep.release.noise_stds

    def halved(sigma, thresholds):
        first, *rest = planned(sigma, thresholds)
        return (first / 2, *rest)

    monkeypatch.setattr(gep.release, "noise_stds", halved)
    with pytest.raises(RuntimeError, match=r"step 0 released at multiplier 0\.9486.*1\.5"):
        dp_train(cfg, task.private, task.eval)


def test_fixed_anchor_labels_draw_no_random_labels(monkeypatch):
    task = logistic_mixture_task(9, n=60, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(task, method="gep", gep=GepConfig(k=3, m=20), steps=3, sigma_override=1.0)

    def refused(model, n, rng):
        raise AssertionError("random anchor labels drawn")

    monkeypatch.setattr(gep.training, "random_labels", refused)
    _, metrics = dp_train(replace(cfg, aux_label_mode="fixed"), task.private, task.eval)
    assert len(metrics) == 3
    with pytest.raises(AssertionError, match="random anchor labels drawn"):
        dp_train(cfg, task.private, task.eval)


@pytest.mark.parametrize("method", ["gep", "bgep", "gp"])
def test_track_spectra_reports_ranks_and_changes_nothing_else(method):
    task = logistic_mixture_task(4, n=80, input_dim=9, m_aux=20, n_eval=20)
    cfg = toy_cfg(
        task, method=method, gep=GepConfig(k=3, m=20, s1=1.0, s2=0.5),
        steps=4, sigma_override=0.7,
    )
    model_off, off = dp_train(cfg, task.private, task.eval)
    model_on, on = dp_train(replace(cfg, track_spectra=True), task.private, task.eval)
    assert model_on.theta.tobytes() == model_off.theta.tobytes()
    bound = min(task.private.n, task.model.p)
    for a, b in zip(off, on):
        assert (a.train_loss, a.eval_loss, a.eval_accuracy) == (
            b.train_loss, b.eval_loss, b.eval_accuracy,
        )
        assert math.isnan(a.stable_rank_g) and math.isnan(a.stable_rank_r)
        assert 1.0 <= b.stable_rank_g <= bound
        if method == "gp":
            assert math.isnan(b.stable_rank_r)
        else:
            assert 1.0 <= b.stable_rank_r <= bound


def test_iterate_averaging_returns_mean_iterate():
    task = toy_regression_task(4)
    cfg = toy_cfg(task, steps=2, iterate_averaging=True)
    averaged, _ = dp_train(cfg, task.private, task.eval)
    # recompute the two noiseless iterates by hand and average them
    theta = task.model.theta.copy()
    velocity = np.zeros_like(theta)
    iterates = []
    for t in range(2):
        grads = per_sample_gradients(task.model.with_theta(theta), task.private)
        update = grads.sum(axis=0) / task.private.n
        lr = cfg.lr / 10 if t >= cfg.steps // 2 else cfg.lr
        theta, velocity = optimizer_step(
            theta, velocity, update, lr, cfg.momentum, cfg.weight_decay
        )
        iterates.append(theta.copy())
    np.testing.assert_allclose(
        averaged.theta, np.mean(iterates, axis=0), rtol=1e-12
    )


def test_convex_experiment_huge_epsilon_matches_nonprivate():
    # nearly low-rank features keep the residual (and hence the
    # embedding-only bias) negligible, so vanishing noise means every
    # method lands on the plain-descent excess
    task = logistic_mixture_task(
        11, n=200, input_dim=19, classes=2, m_aux=50, n_eval=60,
        subspace_dim=4, noise=0.03,
    )
    base = TrainConfig(
        model=task.model,
        gep=GepConfig(k=10, m=50),
        budget=DpBudget(1e6, 1e-5),
        steps=150,
        aux_data=task.aux,
        lr=0.4,
        momentum=0.9,
        weight_decay=0.0,
        lr_decay=True,
        seed=0,
    )
    points = convex_utility_experiment(
        base,
        task.private,
        task.eval,
        methods=("gep", "bgep", "gp"),
        epsilons=(1e6,),
        seeds=(0,),
    )
    # the non-private reference run through the same optimizer
    ref_cfg = replace(base, iterate_averaging=True)
    ref_model, _ = gd_train(ref_cfg, task.private, task.eval)
    _, loss_star = nonprivate_optimum(base.model, task.private)
    ref_loss, _ = evaluate(ref_model, task.private)
    ref_excess = ref_loss - loss_star
    for point in points:
        assert abs(point.mean_excess_loss - ref_excess) <= 1e-3


def test_train_config_validation():
    task = toy_regression_task(6)
    with pytest.raises(ValueError):
        toy_cfg(task, method="nope")
    with pytest.raises(ValueError):
        toy_cfg(task, batch="poisson", q=0.0)
    with pytest.raises(ValueError):
        toy_cfg(task, momentum=1.0)
    with pytest.raises(ValueError):
        toy_cfg(task, gep=GepConfig(k=2, m=task.aux.n + 1))


def test_noiseless_unclipped_run_draws_no_noise():
    # a zero multiplier gives std 0 even at an infinite threshold (0 * inf
    # would be NaN): unclipped noiseless gp is GD bitwise, and gep is finite
    task = toy_regression_task(1)
    cfg = toy_cfg(task, gep=GepConfig(k=2, m=4, s1=math.inf, s2=math.inf), lr=0.3)
    private_model, private_metrics = dp_train(cfg, task.private, task.eval)
    plain_model, plain_metrics = gd_train(cfg, task.private, task.eval)
    assert private_model.theta.tobytes() == plain_model.theta.tobytes()
    for a, b in zip(private_metrics, plain_metrics, strict=True):
        assert (a.train_loss, a.eval_loss) == (b.train_loss, b.eval_loss)
    model, metrics = dp_train(replace(cfg, method="gep"), task.private, task.eval)
    assert np.all(np.isfinite(model.theta))
    assert all(math.isfinite(m.train_loss) for m in metrics)


@pytest.mark.parametrize(
    "field",
    ["epsilon", "s1", "s2", "lr", "weight_decay", "sigma_override", "release_s1",
     "release_s2", "release_sigma", "noise_sigma"],
)
def test_nan_is_rejected_at_the_api_boundary(field):
    task = toy_regression_task(6)
    nan = math.nan
    rows = np.ones((2, 3))
    build = {
        "epsilon": lambda: DpBudget(nan, 1e-5),
        "s1": lambda: GepConfig(k=2, m=4, s1=nan),
        "s2": lambda: GepConfig(k=2, m=4, s2=nan),
        "lr": lambda: toy_cfg(task, lr=nan),
        "weight_decay": lambda: toy_cfg(task, weight_decay=nan),
        "sigma_override": lambda: toy_cfg(task, sigma_override=nan),
        "release_s1": lambda: release_gradient("gp", rows, None, nan, 1.0, 0.0, None),
        "release_s2": lambda: release_gradient("gp", rows, None, 1.0, nan, 0.0, None),
        "release_sigma": lambda: release_gradient("gp", rows, None, 1.0, 1.0, nan, None),
        "noise_sigma": lambda: gaussian_noise(3, nan, np.random.default_rng(0)),
    }[field]
    with pytest.raises(ValueError):
        build()
