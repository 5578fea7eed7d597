"""Renyi-DP accounting: cost curves, repeated releases, conversion, calibration.

All costs are expressed in the noise-multiplier convention: a release with
L2 sensitivity ``s`` perturbed by ``N(0, (sigma * s)^2 I)`` has multiplier
``sigma``, and its order-``lam`` Renyi cost is ``lam / (2 sigma^2)``
regardless of ``s``.  :func:`noise_stds` maps a training step's ``sigma``
to the noise of each sum it perturbs, and :func:`step_multiplier` back.

The subsampled bound is a log-sum-exp over binomial terms, evaluated with
numpy and ``math`` alone:

* :func:`_logsumexp` takes every maximal term of a row out of the sum,
  and the row evaluates to ``log1p(s / m) + log(m) + max``, where ``m``
  counts the maxima and ``s`` sums the other terms' shifted exponentials.
  The tests pin it bitwise to the reference log-sum-exp they import.
* :func:`_log_factorials` tabulates ``log k! = math.lgamma(k + 1)`` at the
  integers, where ``math.lgamma`` is within a few ulp of exact.  A log
  binomial ``log a! - log j! - log (a-j)!`` over orders up to 256 is then
  off the exact value by at most about 4e-13, against about 6e-13 with
  the reference gamma function the tests compare it to.  Against that
  reference the costs move by at most a few 1e-15 absolute, the rounding
  floor both evaluations share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RdpCurve",
    "DpBudget",
    "CalibrationError",
    "default_orders",
    "gaussian_curve",
    "subsampled_gaussian_curve",
    "rdp_to_dp",
    "epsilon_for_sigma",
    "noise_stds",
    "step_multiplier",
    "calibrate_sigma_closed_form",
    "calibrate_sigma_search",
    "SIGMA_BRACKET",
]

# Search bracket for noise-multiplier calibration; covers desk-scale regimes.
SIGMA_BRACKET = (1e-2, 1e4)


class CalibrationError(RuntimeError):
    """No noise multiplier in the search bracket satisfies the budget."""


@dataclass(frozen=True)
class DpBudget:
    """An (epsilon, delta) differential privacy target."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


class RdpCurve:
    """Accumulated Renyi divergence cost over a grid of orders."""

    def __init__(self, orders: Sequence[float], costs: Sequence[float]):
        orders_arr = np.asarray(orders, dtype=np.float64)
        costs_arr = np.asarray(costs, dtype=np.float64)
        if orders_arr.ndim != 1 or orders_arr.shape != costs_arr.shape:
            raise ValueError("orders and costs must be 1-d arrays of equal length")
        if orders_arr.size == 0:
            raise ValueError("curve must contain at least one order")
        if np.any(orders_arr <= 1):
            raise ValueError("all orders must exceed 1")
        if np.any(np.diff(orders_arr) <= 0):
            raise ValueError("orders must be strictly ascending")
        if not np.all(np.isfinite(costs_arr)) or np.any(costs_arr < 0):
            raise ValueError("costs must be non-negative and finite")
        self.orders = orders_arr
        self.costs = costs_arr

    def __len__(self) -> int:
        return self.orders.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdpCurve):
            return NotImplemented
        return np.array_equal(self.orders, other.orders) and np.array_equal(
            self.costs, other.costs
        )

    def __repr__(self) -> str:
        return f"RdpCurve(orders={self.orders!r}, costs={self.costs!r})"


@functools.lru_cache(maxsize=8)
def default_orders(budget: DpBudget, q: float) -> np.ndarray:
    """The order grid for ``budget`` at sampling rate ``q``; the only one used.

    Integer orders 2..256, plus, when ``q == 1``, the analytic order
    ``1 + 2 log(1/delta) / epsilon`` that the closed-form calibration uses
    (the subsampled bound needs integer orders).  The array is read-only
    and cached per (budget, q).
    """
    orders = np.arange(2, 257, dtype=np.float64)
    if q == 1.0:
        analytic = 1.0 + 2.0 * math.log(1.0 / budget.delta) / budget.epsilon
        if not np.any(np.isclose(orders, analytic)):
            orders = np.sort(np.append(orders, analytic))
    orders.flags.writeable = False
    return orders


def gaussian_curve(orders: Sequence[float], s: float, sigma: float) -> RdpCurve:
    """Gaussian-mechanism cost ``order * s^2 / (2 sigma^2)`` across a grid.

    Zero when ``s == 0``; a zero ``sigma`` with positive sensitivity has
    infinite costs, which :class:`RdpCurve` rejects.
    """
    orders = np.asarray(orders, dtype=np.float64)
    low = orders[orders <= 1]
    if low.size:
        raise ValueError(f"order must exceed 1, got {low[0]}")
    if s < 0:
        raise ValueError("sensitivity must be non-negative")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if s == 0:
        return RdpCurve(orders, np.zeros_like(orders))
    if sigma == 0:
        # RdpCurve rejects the infinite costs, as for the per-order path
        return RdpCurve(orders, np.full_like(orders, math.inf))
    return RdpCurve(orders, orders * s * s / (2.0 * sigma * sigma))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` along the last axis, maxima counted apart.

    Each row's maximal entries are counted apart, as ``m``, so that
    ``log1p`` sees only the other terms.  Rows must hold a maximum that is
    not ``-inf``; the accountant's rows always do (the ``j = 0`` term is
    finite).
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    m = np.count_nonzero(is_max, axis=-1, keepdims=True)
    rest = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1, keepdims=True)
    return (np.log1p(rest / m) + np.log(m) + a_max)[..., 0]


def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for ``k = 0 .. n``, one ``math.lgamma`` per integer."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


@functools.lru_cache(maxsize=8)
def _log_binomials(orders: tuple[int, ...]) -> np.ndarray:
    """``log C(a, j)`` for each order ``a`` (rows) and ``j = 0 .. max a``.

    Entries with ``j > a`` are ``-inf``.  The table is read-only and cached
    per order grid, which rarely changes.
    """
    a = np.asarray(orders)[:, None]
    j = np.arange(max(orders) + 1)
    log_fact = _log_factorials(max(orders))
    table = log_fact[a] - log_fact[j] - log_fact[np.maximum(a - j, 0)]
    table[j > a] = -np.inf
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _log_sampling_terms(orders: tuple[int, ...], q: float) -> np.ndarray:
    """``log C(a, j) + (a - j) log(1 - q) + j log q`` for each order ``a``
    (rows) and ``j = 0 .. max a``: the sigma-free part of the
    subsampled-Gaussian log terms, read-only and cached per (order grid,
    q), since a calibration search evaluates it at one grid and rate.
    """
    log_binom = _log_binomials(orders)
    j = np.arange(log_binom.shape[1], dtype=np.float64)
    a = np.asarray(orders, dtype=np.float64)[:, None]
    table = log_binom + (a - j) * math.log1p(-q) + j * math.log(q)
    table.flags.writeable = False
    return table


def subsampled_gaussian_curve(
    orders: Sequence[float], q: float, sigma: float
) -> RdpCurve:
    """Subsampled-Gaussian cost across a grid (plain Gaussian when q == 1).

    Upper-bounds the Renyi cost of a Poisson-subsampled Gaussian through
    the binomial expansion at integer orders ``a``:

        (1/(a-1)) * log sum_{j=0..a} C(a,j) (1-q)^(a-j) q^j exp(j(j-1)/(2 sigma^2))

    evaluated in log space, at every order at once: one masked order x
    ``j`` table of log terms and one log-sum-exp per row.  ``q`` is the
    probability that any given sample joins the batch; the base mechanism
    has unit sensitivity and multiplier ``sigma``.
    """
    if q == 1.0:
        return gaussian_curve(orders, 1.0, sigma)
    grid = np.asarray(orders, dtype=np.float64)
    if grid.ndim != 1 or not np.all(np.equal(np.mod(grid, 1), 0)) or np.any(grid < 2):
        raise ValueError(f"subsampled bound needs integer orders >= 2, got {orders}")
    if not 0 <= q <= 1:
        raise ValueError(f"sampling rate must lie in [0, 1], got {q}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if q == 0:
        return RdpCurve(grid, np.zeros(grid.size))
    if sigma == 0:
        return RdpCurve(grid, np.full(grid.size, math.inf))
    sampling = _log_sampling_terms(tuple(int(a) for a in grid), q)
    j = np.arange(sampling.shape[1], dtype=np.float64)
    log_terms = sampling + j * (j - 1) / (2.0 * sigma * sigma)
    return RdpCurve(grid, _logsumexp(log_terms) / (grid - 1))


def rdp_to_dp(
    curve: RdpCurve, delta: float, times: int | np.ndarray = 1
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Compose ``times`` identical releases, then convert to (epsilon, delta)-DP.

    The composed cost is ``times * cost(lam)``; the conversion evaluates
    ``times * cost(lam) + log(1/delta) / (lam - 1)`` on the grid and
    returns the minimum with the minimizing order.  ``times`` is an int,
    or a 1-d array of release counts with one (epsilon, order) per entry.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    counts = np.asarray(times)
    if np.any(counts < 0):
        raise ValueError("times must be non-negative")
    log_inv_delta = math.log(1.0 / delta)
    eps = np.multiply.outer(counts, curve.costs)
    eps += log_inv_delta / (curve.orders - 1.0)
    spent, order = eps.min(axis=-1), curve.orders[np.argmin(eps, axis=-1)]
    if counts.ndim == 0:
        return float(spent), float(order)
    return spent, order


def noise_stds(sigma: float, thresholds: Sequence[float]) -> tuple[float, ...]:
    """Each sum's noise std at step multiplier ``sigma`` (none at 0): ``n`` sums,
    each divided by its threshold, are one release of sensitivity ``sqrt(n)``."""
    per_sum = sigma * math.sqrt(len(thresholds))
    return tuple(per_sum * t if sigma else 0.0 for t in thresholds)


def step_multiplier(sums: Sequence[tuple[float, float]]) -> float:
    """The step multiplier ``(threshold, std)`` sums compose to (Mironov 2017),
    ``(sum (threshold / std)^2)^(-1/2)``, or 0 if a sum has no noise."""
    if any(std == 0 for _, std in sums):
        return 0.0
    return 1.0 / math.hypot(*(t / std for t, std in sums))


def calibrate_sigma_closed_form(budget: DpBudget, steps: int) -> float:
    """Closed-form multiplier for a training run of paired Gaussian releases.

    Returns ``2 sqrt(2 T log(1/delta)) / epsilon``: the per-release noise
    multiplier that keeps ``T`` steps, each releasing an embedding and a
    residual, within the budget.  Only valid when
    ``epsilon <= 2 log(1/delta)``; outside that regime use
    :func:`calibrate_sigma_search`.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    log_inv_delta = math.log(1.0 / budget.delta)
    if budget.epsilon > 2.0 * log_inv_delta:
        raise ValueError(
            f"epsilon={budget.epsilon} exceeds 2 log(1/delta)={2 * log_inv_delta:.6g}; "
            "the closed form does not apply, use calibrate_sigma_search"
        )
    return 2.0 * math.sqrt(2.0 * steps * log_inv_delta) / budget.epsilon


def epsilon_for_sigma(
    sigma: float, budget: DpBudget, q: float, steps: int | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Spent epsilon (and best order) after ``steps`` subsampled releases.

    Each release has unit sensitivity and multiplier ``sigma``; the grid is
    ``default_orders(budget, q)``, the one calibration searches on.
    ``steps`` is an int or a 1-d array of step counts, as in
    :func:`rdp_to_dp`.  A zero multiplier provides no protection and
    reports infinite epsilon.
    """
    if sigma == 0:
        if np.ndim(steps) == 0:
            return math.inf, math.nan
        return np.full(np.shape(steps), math.inf), np.full(np.shape(steps), math.nan)
    per_step = subsampled_gaussian_curve(default_orders(budget, q), q, sigma)
    return rdp_to_dp(per_step, budget.delta, steps)


def calibrate_sigma_search(budget: DpBudget, q: float, invocations: int) -> float:
    """Smallest multiplier meeting the budget for repeated subsampled releases.

    Bisects on sigma, to a relative tolerance of 1e-4, using the
    monotonicity of :func:`epsilon_for_sigma`; ``invocations`` counts
    unit-sensitivity releases, one per training step (:func:`noise_stds`).
    """
    if not 0 < q <= 1:
        raise ValueError(f"sampling rate must lie in (0, 1], got {q}")
    if invocations < 1:
        raise ValueError("invocations must be >= 1")

    def spent(sigma: float) -> float:
        return epsilon_for_sigma(sigma, budget, q, invocations)[0]

    lo, hi = SIGMA_BRACKET
    if spent(lo) <= budget.epsilon:
        return lo
    if spent(hi) > budget.epsilon:
        raise CalibrationError(
            f"even sigma={hi} spends more than epsilon={budget.epsilon} "
            f"over {invocations} invocations at q={q}"
        )
    while hi - lo > 1e-4 * hi:
        mid = 0.5 * (lo + hi)
        if spent(mid) <= budget.epsilon:
            hi = mid
        else:
            lo = mid
    return hi
