"""Accountant tests: cost curves, repeated releases, conversion, calibration."""

import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gep
from gep.accounting import (
    CalibrationError,
    DpBudget,
    RdpCurve,
    SIGMA_BRACKET,
    calibrate_sigma_closed_form,
    calibrate_sigma_search,
    default_orders,
    epsilon_for_sigma,
    gaussian_curve,
    noise_stds,
    rdp_to_dp,
    step_multiplier,
    subsampled_gaussian_curve,
)
from gep.accounting import _log_binomials, _logsumexp
from oracle import rdp_gaussian, rdp_subsampled_gaussian

# Frozen oracle values, computed with 50-digit mpmath arithmetic.
SIGMA_T100 = 11.996314780470203  # 2 sqrt(2*100*log(1e5)) / 8
SIGMA_T1 = 1.1996314780470203
SUB_A2_Q001 = 1.7181342207454793e-4  # order 2, q=0.01, sigma=1
SUB_A3_Q001 = 2.6463757458466135e-4  # order 3, q=0.01, sigma=1

# the library's grid below q = 1: integer orders 2..256
INTEGER_ORDERS = default_orders(DpBudget(8.0, 1e-5), 0.05)


def brute_force_subsampled(order: int, q: float, sigma: float) -> float:
    # independent oracle: direct summation of the binomial expansion
    total = 0.0
    for j in range(order + 1):
        total += (
            math.comb(order, j)
            * (1 - q) ** (order - j)
            * q**j
            * math.exp(j * (j - 1) / (2 * sigma**2))
        )
    return math.log(total) / (order - 1)


def test_rdp_gaussian_substitutions():
    assert gaussian_curve([2], 1.0, 1.0).costs[0] == pytest.approx(1.0, abs=0)
    assert gaussian_curve([7], 0.0, 1.0).costs[0] == 0.0
    assert gaussian_curve([3], 2.0, 4.0).costs[0] == pytest.approx(0.375, abs=0)
    # a zero multiplier costs infinity, which no curve holds
    with pytest.raises(ValueError, match="finite"):
        gaussian_curve([2], 1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_curve([1.0], 1.0, 1.0)


def test_curve_validation():
    with pytest.raises(ValueError):
        RdpCurve([2.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        RdpCurve([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        RdpCurve([2.0, 3.0], [-1.0, 0.0])
    with pytest.raises(ValueError):
        RdpCurve([2.0, 3.0], [math.inf, 0.0])


def test_compose_t_copies_matches_scaling():
    orders = INTEGER_ORDERS
    sigma, delta = 3.0, 1e-5
    curve = gaussian_curve(orders, 1.0, sigma)
    steps = np.array([0, 1, 17, 200])
    spent, best = rdp_to_dp(curve, delta, steps)
    assert spent.shape == best.shape == steps.shape
    for t, eps, order in zip(steps, spent, best):
        composed = t * orders / (2 * sigma**2) + math.log(1 / delta) / (orders - 1)
        assert eps == pytest.approx(composed.min(), rel=1e-12)
        assert order == orders[np.argmin(composed)]
        # the scalar call gives the same entry, bit for bit
        assert rdp_to_dp(curve, delta, int(t)) == (eps, order)
    with pytest.raises(ValueError, match="non-negative"):
        rdp_to_dp(curve, delta, np.array([3, -1]))


def test_default_orders_add_the_analytic_order_at_full_batch():
    budget = DpBudget(0.05, 1e-3)
    assert np.array_equal(default_orders(budget, 0.5), np.arange(2.0, 257.0))
    full = default_orders(budget, 1.0)
    assert np.array_equal(full[:-1], np.arange(2.0, 257.0))
    assert full[-1] == 1 + 2 * math.log(1 / 1e-3) / 0.05
    assert not full.flags.writeable


def test_rdp_to_dp_zero_curve():
    # log(1/delta) = 1, largest order wins: eps = 1/(lam - 1) = 0.01
    orders = np.arange(2.0, 102.0)
    curve = RdpCurve(orders, np.zeros_like(orders))
    eps, best = rdp_to_dp(curve, math.exp(-1))
    assert eps == pytest.approx(0.01, rel=1e-12)
    assert best == 101.0


def test_rdp_to_dp_single_order():
    curve = RdpCurve([2.0], [1.0])
    eps, best = rdp_to_dp(curve, math.exp(-1))
    assert eps == pytest.approx(2.0, rel=1e-12)
    assert best == 2.0


def test_rdp_to_dp_is_a_minimum():
    curve = gaussian_curve(INTEGER_ORDERS, 1.0, 1.5)
    eps, _ = rdp_to_dp(curve, 1e-5)
    log_inv = math.log(1e5)
    for order, cost in zip(curve.orders, curve.costs):
        assert eps <= cost + log_inv / (order - 1) + 1e-15


def test_subsampled_gaussian_edges():
    for order in (2, 5, 17):
        assert subsampled_gaussian_curve([order], 0.0, 1.0).costs[0] == 0.0
    # q=1 must coincide with the plain Gaussian cost at every integer order
    orders = np.arange(2, 65)
    plain = gaussian_curve(orders, 1.0, 2.5).costs
    sub = subsampled_gaussian_curve(orders, 1.0, 2.5).costs
    np.testing.assert_allclose(sub, plain, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        subsampled_gaussian_curve([2.5], 0.5, 1.0)


def test_subsampled_gaussian_matches_oracle():
    a2, a3 = subsampled_gaussian_curve([2, 3], 0.01, 1.0).costs
    assert a2 == pytest.approx(SUB_A2_Q001, rel=1e-12)
    assert a3 == pytest.approx(SUB_A3_Q001, rel=1e-12)
    orders = (2, 3, 5, 8, 16)
    for q in (0.001, 0.05, 0.3):
        for sigma in (0.8, 1.0, 4.0):
            costs = subsampled_gaussian_curve(orders, q, sigma).costs
            for order, cost in zip(orders, costs):
                assert cost == pytest.approx(
                    brute_force_subsampled(order, q, sigma), rel=1e-10
                )


def test_subsampled_gaussian_monotone_in_q_and_order():
    qs = [0.001, 0.01, 0.1, 0.5, 1.0]
    values = [subsampled_gaussian_curve([4], q, 1.0).costs[0] for q in qs]
    assert all(a < b for a, b in zip(values, values[1:]))
    values = subsampled_gaussian_curve([2, 3, 5, 9, 17], 0.05, 1.0).costs
    assert all(a < b for a, b in zip(values, values[1:]))


def test_epsilon_monotonicity_grid():
    budget = DpBudget(8.0, 1e-5)
    sigmas = [0.5, 1.0, 2.0, 4.0, 8.0]
    spent = [epsilon_for_sigma(s, budget, 0.1, 50)[0] for s in sigmas]
    assert all(a > b for a, b in zip(spent, spent[1:]))
    steps = [10, 20, 40, 80]
    spent = [epsilon_for_sigma(2.0, budget, 0.1, t)[0] for t in steps]
    assert all(a < b for a, b in zip(spent, spent[1:]))
    assert np.array_equal(epsilon_for_sigma(2.0, budget, 0.1, np.array(steps))[0], spent)
    qs = [0.01, 0.1, 0.5, 1.0]
    spent = [epsilon_for_sigma(2.0, budget, q, 50)[0] for q in qs]
    assert all(a < b for a, b in zip(spent, spent[1:]))


def test_closed_form_matches_oracle():
    assert calibrate_sigma_closed_form(DpBudget(8.0, 1e-5), 100) == pytest.approx(
        SIGMA_T100, rel=1e-9
    )
    assert calibrate_sigma_closed_form(DpBudget(8.0, 1e-5), 1) == pytest.approx(
        SIGMA_T1, rel=1e-9
    )


def test_closed_form_square_root_scaling():
    budget = DpBudget(2.0, 1e-6)
    assert calibrate_sigma_closed_form(budget, 400) == pytest.approx(
        2 * calibrate_sigma_closed_form(budget, 100), rel=1e-15
    )


def test_closed_form_out_of_regime():
    # epsilon > 2 log(1/delta) is outside the closed form's validity
    with pytest.raises(ValueError, match="calibrate_sigma_search"):
        calibrate_sigma_closed_form(DpBudget(30.0, 1e-5), 10)


def test_theorem_style_round_trip():
    # composing the two per-step releases at the closed-form multiplier and
    # converting at the analytic order must land at or below the budget
    for eps in (0.5, 2.0, 8.0):
        for delta in (1e-5, 1e-8):
            budget = DpBudget(eps, delta)
            sigma = calibrate_sigma_closed_form(budget, 1)
            log_inv = math.log(1 / delta)
            lam = 1 + 2 * log_inv / eps
            gamma = 2 * gaussian_curve([lam], 1.0, sigma).costs[0]
            eps_prime = gamma + log_inv / (lam - 1)
            assert eps_prime <= eps + 1e-9


def test_search_beats_closed_form_at_full_batch():
    budget = DpBudget(8.0, 1e-5)
    closed = calibrate_sigma_closed_form(budget, 100)
    # two releases per step -> 2T unit invocations in the search
    searched = calibrate_sigma_search(budget, 1.0, 200)
    assert searched <= closed
    # and the searched multiplier still satisfies the budget
    eps_spent, _ = epsilon_for_sigma(searched, budget, 1.0, 200)
    assert eps_spent <= budget.epsilon


def test_search_monotone_in_steps():
    budget = DpBudget(4.0, 1e-5)
    small = calibrate_sigma_search(budget, 0.2, 50)
    large = calibrate_sigma_search(budget, 0.2, 100)
    assert large > small


def test_search_hits_bracket_edges():
    assert calibrate_sigma_search(DpBudget(1e6, 0.5), 1.0, 1) == SIGMA_BRACKET[0]
    with pytest.raises(CalibrationError):
        calibrate_sigma_search(DpBudget(1e-8, 1e-12), 1.0, 10**6)


def test_mechanism_and_budget_validation():
    with pytest.raises(ValueError):
        DpBudget(0.0, 1e-5)
    with pytest.raises(ValueError):
        DpBudget(1.0, 0.0)


def test_subsampled_curve_helper():
    orders = INTEGER_ORDERS
    curve = subsampled_gaussian_curve(orders, 1.0, 2.0)
    np.testing.assert_allclose(curve.costs, gaussian_curve(orders, 1.0, 2.0).costs)
    curve_sub = subsampled_gaussian_curve(orders, 0.1, 2.0)
    assert np.all(curve_sub.costs <= curve.costs + 1e-15)


def per_order_curve(orders, q, sigma):
    """The reference: one ``rdp_subsampled_gaussian`` call per order."""
    if q == 1.0:
        return gaussian_curve(orders, 1.0, sigma)
    return RdpCurve(orders, [rdp_subsampled_gaussian(o, q, sigma) for o in orders])


@pytest.mark.parametrize("q", [0.001, 0.05, 0.3, 0.99])
@pytest.mark.parametrize("sigma", [0.5, 1.1, 4.0, 100.0])
def test_subsampled_curve_matches_per_order_reference(q, sigma):
    orders = INTEGER_ORDERS
    costs = subsampled_gaussian_curve(orders, q, sigma).costs
    expected = per_order_curve(orders, q, sigma).costs
    # Both take log(1 + x) of a sum near one: below about 1e-3 the costs
    # carry an absolute rounding floor of a few 1e-16, not a relative one.
    np.testing.assert_allclose(costs, expected, rtol=1e-12, atol=1e-15)
    meaningful = expected > 1e-3
    np.testing.assert_allclose(costs[meaningful], expected[meaningful], rtol=1e-12)


@pytest.mark.parametrize(
    "epsilon, q, steps, sigma_hex",
    [
        (8.0, 1.0, 5, "0x1.8ccefe528f5c2p+0"),
        (8.0, 1.0, 1, "0x1.62e8876570a3ep-1"),
        (8.0, 0.05, 200, "0x1.ca44769f5c290p-1"),
        (2.0, 1.0, 4, "0x1.3fe9281dc28f6p+2"),
        (8.0, 1.0, 4, "0x1.62ec591147ae1p+0"),
    ],
    ids=["logreg-full", "mlp-wide", "poisson-q05", "cli-grid-eps2", "cli-grid-eps8"],
)
def test_calibrated_sigma_unchanged_by_vectorized_curve(
    monkeypatch, epsilon, q, steps, sigma_hex
):
    import gep.accounting

    budget = DpBudget(epsilon, 1e-5)
    sigma = calibrate_sigma_search(budget, q, steps)
    # the benchmark configurations' multipliers, pinned to the last bit
    assert sigma.hex() == sigma_hex
    monkeypatch.setattr(gep.accounting, "subsampled_gaussian_curve", per_order_curve)
    assert calibrate_sigma_search(budget, q, steps) == sigma


def per_order_gaussian_curve(orders, s, sigma):
    """The reference: one ``rdp_gaussian`` call per order."""
    return RdpCurve(orders, [rdp_gaussian(o, s, sigma) for o in orders])


def test_gaussian_curve_is_bitwise_the_per_order_path():
    orders = default_orders(DpBudget(8.0, 1e-5), 1.0)
    rng = np.random.default_rng(0)
    pairs = [(0.0, 1.0), (1.0, 1.0), (math.sqrt(2.0), 0.3)]
    pairs += list(zip(rng.uniform(0.0, 3.0, 200), 10.0 ** rng.uniform(-2.0, 3.0, 200)))
    for s, sigma in pairs:
        curve = gaussian_curve(orders, s, sigma)
        assert np.array_equal(curve.costs, per_order_gaussian_curve(orders, s, sigma).costs)


def test_gaussian_curve_errors_match_the_per_order_path():
    import warnings

    orders = INTEGER_ORDERS
    cases = [(orders, -1.0, 1.0), (orders, 1.0, -1.0), (orders, 1.0, 0.0), ([1.0, 2.0], 1.0, 1.0)]
    for grid, s, sigma in cases:
        with pytest.raises(ValueError) as expected:
            per_order_gaussian_curve(grid, s, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                gaussian_curve(grid, s, sigma)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("steps", [1, 4, 5, 100])
def test_full_batch_calibration_unchanged_by_vectorized_gaussian_curve(monkeypatch, steps):
    import gep.accounting

    budget = DpBudget(8.0, 1e-5)
    sigma = calibrate_sigma_search(budget, 1.0, steps)
    monkeypatch.setattr(gep.accounting, "gaussian_curve", per_order_gaussian_curve)
    assert calibrate_sigma_search(budget, 1.0, steps) == sigma


def test_import_calibration_and_training_leave_scipy_unloaded(tmp_path):
    # with scipy blocked, importing it raises: every path below must run
    # without it, the console commands included
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "method = gep, gp\nseeds = 0\nmodel.kind = logistic\n"
        "data.kind = gaussian-mixture\ndata.n = 60\ndata.input_dim = 5\n"
        "data.classes = 2\naux.m = 10\ngep.k = 2\ntrain.steps = 2\n"
        f"out = {tmp_path / 'runs'}\n"
    )
    script = textwrap.dedent(
        """
        import sys

        sys.modules["scipy"] = None
        import gep
        from gep.accounting import DpBudget, calibrate_sigma_search
        from gep.cli import main
        from gep.release import GepConfig
        from gep.tasks import toy_regression_task
        from gep.training import TrainConfig, dp_train

        calibrate_sigma_search(DpBudget(8.0, 1e-5), 0.05, 200)
        task = toy_regression_task(0)
        cfg = TrainConfig(model=task.model, gep=GepConfig(k=2, m=4, s1=1.0, s2=1.0),
                          budget=DpBudget(8.0, 1e-5), steps=3, aux_data=task.aux,
                          batch="poisson", q=0.5)
        dp_train(cfg, task.private, task.eval)
        config, out = sys.argv[1:]
        commands = [
            ["train", "--config", config],
            ["report", "--out", out],
            ["accountant", "--eps", "8", "--delta", "1e-5", "--steps", "100"],
            ["accountant", "--eps", "8", "--delta", "1e-5", "--steps", "200",
             "--q", "0.05", "--mode", "search"],
            ["bench"],
            ["project-error", "--k", "2", "5", "--n", "100", "--input-dim", "19",
             "--m", "20"],
        ]
        codes = [main(argv) for argv in commands]
        print("exit codes", codes, file=sys.stderr)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(gep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "runs")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "exit codes [0, 0, 0, 0, 0, 0]"


def random_lse_tables(rng):
    """Tables with -inf entries and rows whose maximum is tied."""
    tables = []
    for rows, cols in [(1, 1), (3, 2), (40, 17), (25, 257)]:
        table = 30.0 * rng.standard_normal((rows, cols))
        table[rng.random((rows, cols)) < 0.2] = -np.inf
        table[:, 0] = rng.standard_normal(rows)  # every row keeps a finite entry
        tied = rng.random(rows) < 0.5
        for row in np.flatnonzero(tied):
            top = table[row].max()
            table[row, rng.integers(0, cols, size=3)] = top
        tables.append(table)
    return tables


def test_logsumexp_matches_scipy():
    import scipy
    from scipy.special import logsumexp

    orders = INTEGER_ORDERS
    log_binom = _log_binomials(tuple(int(a) for a in orders))
    j = np.arange(log_binom.shape[1])
    rdp_table = log_binom + (orders[:, None] - j) * math.log1p(-0.05) + j * math.log(0.05)
    rdp_table = rdp_table + j * (j - 1) / (2.0 * 0.9 * 0.9)
    rng = np.random.default_rng(11)
    tables = [rdp_table] + [t for _ in range(50) for t in random_lse_tables(rng)]
    # scipy 1.15 took every tied maximum out of the sum, as _logsumexp does
    bitwise = tuple(int(part) for part in scipy.__version__.split(".")[:2]) >= (1, 15)
    for table in tables:
        for got, want in [(_logsumexp(table), logsumexp(table, axis=1)),
                          (_logsumexp(table[0]), logsumexp(table[0]))]:
            if bitwise:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_array_max_ulp(got, want, maxulp=2)


def test_log_binomials_no_less_accurate_than_gammaln():
    from scipy.special import gammaln

    orders = tuple(range(2, 257))
    table = _log_binomials(orders)
    a = np.array([order for order in orders for _ in range(0, order + 1, 7)])
    j = np.array([k for order in orders for k in range(0, order + 1, 7)])
    exact = [Decimal(math.comb(int(x), int(y))).ln() for x, y in zip(a, j)]
    reference = gammaln(a + 1.0) - gammaln(j + 1.0) - gammaln(a - j + 1.0)

    def worst(values):
        return max(abs(Decimal(float(v)) - e) for v, e in zip(values, exact))

    assert worst(table[a - 2, j]) <= worst(reference)
    assert np.all(table[np.arange(2, 257)[:, None] < np.arange(257)] == -np.inf)


@settings(max_examples=300, deadline=None)
@given(
    sigma=st.floats(1e-8, 1e8),
    thresholds=st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=2),
)
def test_step_multiplier_inverts_noise_stds(sigma, thresholds):
    sums = tuple(zip(thresholds, noise_stds(sigma, thresholds)))
    assert abs(step_multiplier(sums) - sigma) <= 4 * math.ulp(sigma)


def test_step_multiplier_of_missing_or_halved_noise():
    # sigma = 0 perturbs nothing, even at an infinite threshold
    assert noise_stds(0.0, (1.0, math.inf)) == (0.0, 0.0)
    assert step_multiplier(((1.0, 0.0), (2.0, 0.0))) == 0.0
    assert step_multiplier(((1.0, 0.0), (2.0, 3.0))) == 0.0
    # half the noise on one of two sums: (2 / sigma^2 + 1 / (2 sigma^2))^(-1/2)
    for sigma in (0.3, 1.5, 40.0):
        (s1, std1), (s2, std2) = zip((3.0, 0.5), noise_stds(sigma, (3.0, 0.5)))
        halved = step_multiplier(((s1, std1 / 2), (s2, std2)))
        assert halved == pytest.approx(sigma * math.sqrt(2 / 5), rel=1e-15)
