"""References the tests check the library against; no library code uses them.

The library releases from factored gradients and never forms an n x p
matrix.  The functions here do every step the obvious way, on dense
matrices and dense basis blocks, so the tests can check the kernel
against an independent computation:

* ``row_norms``, ``clip_rows`` and ``project_split`` on plain matrices;
* ``blocks``, ``project``, ``reconstruct`` and ``split`` on an
  :class:`gep.release.AnchorBasis`, with every block materialized
  (a block held as anchor coefficients becomes ``np.eye(k) @ block``);
* ``stable_rank``, by power iteration on the smaller Gram matrix.

The accountant's cost curves have per-order references:
``rdp_gaussian`` and ``rdp_subsampled_gaussian`` evaluate one order at a
time.  ``epsilon_schedule`` composes a training run's releases one step
count at a time, on a grid it builds itself.

The model layer's arithmetic has row-major references: ``softmax`` and
``log_softmax`` reduce each row of the n x c logits, and
``forward_logits`` multiplies by the transposed weight view.

Acceptance criterion 6 measures excess loss against a high-precision
non-private optimum: ``nonprivate_optimum`` (scipy's L-BFGS) and
``convex_utility_experiment``, which aggregates ``UtilityPoint`` cells
over seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from gep.accounting import (
    DpBudget,
    _log_factorials,
    _logsumexp,
    subsampled_gaussian_curve,
)
from gep.data import Dataset
from gep.linalg import SPECTRAL_TOL
from gep.models import ModelSpec, evaluate, forward, per_sample_factors
from gep.training import TrainConfig, dp_train


def _as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def project_split(
    g: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split rows of ``g`` into subspace embeddings and residuals.

    Returns ``(w, r)`` with ``w = g basis^T`` and ``r = g - w basis``; the
    residual is built from the unclipped embedding, so ``r basis^T = 0`` up
    to rounding.  An empty basis maps everything to the residual.
    """
    g = _as_matrix(g, "g")
    basis = _as_matrix(basis, "basis")
    if basis.shape[0] == 0:
        return np.zeros((g.shape[0], 0)), g.copy()
    if basis.shape[1] != g.shape[1]:
        raise ValueError(
            f"basis has {basis.shape[1]} columns, expected {g.shape[1]}"
        )
    w = g @ basis.T
    r = g - w @ basis
    return w, r


def clip_rows(m: np.ndarray, s: float) -> np.ndarray:
    """Rescale each row to Euclidean norm at most ``s``, keeping direction.

    Rows already within the threshold are returned unchanged (bitwise).
    """
    if s <= 0:
        raise ValueError(f"clipping threshold must be positive, got {s}")
    m = _as_matrix(m, "m")
    if m.shape[1] == 0:
        return m.copy()
    norms = row_norms(m)
    scale = np.ones_like(norms)
    over = norms > s
    scale[over] = s / norms[over]
    return m * scale[:, None]


def _top_eigenvalue(gram: np.ndarray, rtol: float, max_iter: int = 20000) -> float:
    # Power iteration on a PSD matrix with a fixed-seed start vector, so the
    # result is a deterministic function of the input alone.
    rng = np.random.default_rng(0x5EEDED)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    eig = 0.0
    for _ in range(max_iter):
        w = gram @ v
        new = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # Start vector sits in the null space; perturb and continue.
            v = rng.standard_normal(gram.shape[0])
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        if abs(new - eig) <= rtol * abs(new):
            return new
        eig = new
    return eig


def stable_rank(m: np.ndarray, rtol: float = SPECTRAL_TOL) -> float:
    """Ratio of squared Frobenius norm to squared spectral norm.

    The spectral norm is obtained by power iteration on the smaller of the
    two Gram matrices, converged to relative tolerance ``rtol``.  The
    result is clamped to its mathematical range ``[1, min(rows, cols)]``.
    """
    m = _as_matrix(m, "m")
    fro2 = float(np.sum(m * m))
    if fro2 == 0.0:
        raise ValueError("stable rank is undefined for a zero matrix")
    n_rows, n_cols = m.shape
    gram = m @ m.T if n_rows <= n_cols else m.T @ m
    top = _top_eigenvalue(gram, rtol)
    if top <= 0.0:
        raise ValueError("spectral norm estimate collapsed to zero")
    value = fro2 / top
    return float(min(max(value, 1.0), min(n_rows, n_cols)))


def blocks(basis) -> list[np.ndarray]:
    """The dense basis blocks of an :class:`AnchorBasis`."""
    return [
        block if isinstance(block, np.ndarray) else np.eye(block.shape[0]) @ block
        for block in basis.held
    ]


def _spans(basis) -> list[tuple[slice, np.ndarray, int]]:
    spans = []
    w_offset = 0
    for group, block in zip(basis.layout.groups, blocks(basis)):
        spans.append((slice(group.offset, group.offset + group.length), block, w_offset))
        w_offset += block.shape[0]
    return spans


def project(basis, g: np.ndarray) -> np.ndarray:
    """Embed rows of ``g`` (n x p) into the basis (n x k_effective)."""
    g = np.asarray(g, dtype=np.float64)
    squeeze = g.ndim == 1
    if squeeze:
        g = g[None, :]
    if g.shape[1] != basis.dim:
        raise ValueError(f"expected {basis.dim} columns, got {g.shape[1]}")
    parts = []
    for cols, block, _ in _spans(basis):
        if block.shape[0] == 0:
            continue
        w_part, _ = project_split(g[:, cols], block)
        parts.append(w_part)
    if parts:
        w = np.hstack(parts)
    else:
        w = np.zeros((g.shape[0], 0))
    return w[0] if squeeze else w


def reconstruct(basis, w: np.ndarray) -> np.ndarray:
    """Map embeddings back into the full parameter space."""
    w = np.asarray(w, dtype=np.float64)
    squeeze = w.ndim == 1
    if squeeze:
        w = w[None, :]
    if w.shape[1] != basis.k_effective:
        raise ValueError(
            f"expected {basis.k_effective} embedding columns, got {w.shape[1]}"
        )
    out = np.zeros((w.shape[0], basis.dim))
    for cols, block, w_offset in _spans(basis):
        k_g = block.shape[0]
        if k_g == 0:
            continue
        out[:, cols] = w[:, w_offset : w_offset + k_g] @ block
    return out[0] if squeeze else out


def split(basis, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and residuals of ``g``; residual uses unclipped embeddings."""
    w = project(basis, g)
    r = g - reconstruct(basis, w) if w.size else np.asarray(g, dtype=np.float64).copy()
    return w, r


def rdp_gaussian(order: float, s: float, sigma: float) -> float:
    """Renyi cost of one Gaussian release with sensitivity ``s``.

    Returns ``order * s^2 / (2 sigma^2)``; infinite when ``sigma == 0``
    with positive sensitivity.
    """
    if order <= 1:
        raise ValueError(f"order must exceed 1, got {order}")
    if s < 0:
        raise ValueError("sensitivity must be non-negative")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if s == 0:
        return 0.0
    if sigma == 0:
        return math.inf
    return order * s * s / (2.0 * sigma * sigma)


def rdp_subsampled_gaussian(order: int, q: float, sigma: float) -> float:
    """Upper bound on the Renyi cost of a Poisson-subsampled Gaussian.

    Uses the binomial expansion at integer orders:

        (1/(a-1)) * log sum_{j=0..a} C(a,j) (1-q)^(a-j) q^j exp(j(j-1)/(2 sigma^2))

    evaluated in log space.  ``q`` is the probability that any given sample
    joins the batch; the base mechanism has unit sensitivity and multiplier
    ``sigma``.
    """
    if not float(order).is_integer() or order < 2:
        raise ValueError(f"subsampled bound needs an integer order >= 2, got {order}")
    if not 0 <= q <= 1:
        raise ValueError(f"sampling rate must lie in [0, 1], got {q}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if q == 0:
        return 0.0
    if sigma == 0:
        return math.inf
    a = int(order)
    if q == 1:
        return a / (2.0 * sigma * sigma)
    j = np.arange(a + 1)
    log_fact = _log_factorials(a)
    log_binom = log_fact[a] - log_fact[j] - log_fact[a - j]
    log_terms = (
        log_binom
        + (a - j) * math.log1p(-q)
        + j * math.log(q)
        + j * (j - 1) / (2.0 * sigma * sigma)
    )
    return float(_logsumexp(log_terms)) / (a - 1)


def epsilon_schedule(sigma: float, budget: DpBudget, q: float, steps: int) -> list[float]:
    """Epsilon spent after each of ``steps`` releases, one step count at a time.

    For each ``t``, composes ``t`` copies of the per-step curve on integer
    orders 2..256 (plus the analytic order ``1 + 2 log(1/delta) / epsilon``
    at ``q == 1``) and converts at the best order.
    """
    if sigma == 0:
        return [math.inf] * steps
    orders = np.arange(2, 257, dtype=np.float64)
    if q == 1.0:
        analytic = 1.0 + 2.0 * math.log(1.0 / budget.delta) / budget.epsilon
        if not np.any(np.isclose(orders, analytic)):
            orders = np.sort(np.append(orders, analytic))
    per_step = subsampled_gaussian_curve(orders, q, sigma)
    log_inv_delta = math.log(1.0 / budget.delta)
    spent = []
    for t in range(1, steps + 1):
        eps = per_step.costs * t + log_inv_delta / (orders - 1.0)
        spent.append(float(eps[int(np.argmin(eps))]))
    return spent


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of n x c logits."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of n x c logits."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_logits(model: ModelSpec, data: Dataset) -> np.ndarray:
    """The output layer of each model kind, with the weights as views."""
    if model.kind == "linear":
        return data.design @ model.theta
    if model.kind == "logistic":
        w = model.theta.reshape(model.output_dim, model.input_dim + 1)
        return data.design @ w.T
    # each layer is stored as [W | b], bias last; the bias is added apart
    d, h, c = model.input_dim, model.hidden_dim, model.output_dim
    layer1 = model.theta[: h * (d + 1)].reshape(h, d + 1)
    layer2 = model.theta[h * (d + 1) :].reshape(c, h + 1)
    hidden = np.tanh(data.features @ layer1[:, :d].T + layer1[:, d])
    return hidden @ layer2[:, :h].T + layer2[:, h]


def nonprivate_optimum(model: ModelSpec, data: Dataset) -> tuple[np.ndarray, float]:
    """High-precision minimizer of the empirical loss (L-BFGS oracle)."""
    from scipy.optimize import minimize

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        m = model.with_theta(theta)
        fwd = forward(m, data)
        loss, _ = evaluate(m, data, fwd)
        grad = per_sample_factors(m, data, fwd).dense().mean(axis=0)
        return loss, grad

    result = minimize(
        objective,
        model.theta.copy(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-10},
    )
    return result.x, float(result.fun)


@dataclass(frozen=True)
class UtilityPoint:
    """Aggregated outcome of one (method, epsilon) cell."""

    method: str
    epsilon: float
    mean_excess_loss: float
    std_excess_loss: float
    mean_accuracy: float
    std_accuracy: float
    mean_projection_error: float


def convex_utility_experiment(
    base_cfg: TrainConfig,
    private: Dataset,
    eval_data: Dataset,
    methods: tuple[str, ...] = ("gep", "bgep", "gp"),
    epsilons: tuple[float, ...] = (8.0,),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> list[UtilityPoint]:
    """Compare release methods on a convex task at matched budgets.

    For every (method, epsilon) cell the averaged iterate's excess
    empirical loss over a high-precision non-private optimum is reported
    together with final-model accuracy, aggregated over seeds.  Weight
    decay is disabled so the trained objective matches the oracle's.
    """
    if base_cfg.model.kind != "logistic":
        raise ValueError("the utility experiment expects a convex (logistic) model")
    _, loss_star = nonprivate_optimum(base_cfg.model, private)

    points = []
    for method in methods:
        for eps in epsilons:
            excesses = []
            accuracies = []
            proj_errors = []
            for seed in seeds:
                cfg = replace(
                    base_cfg,
                    method=method,
                    budget=DpBudget(eps, base_cfg.budget.delta),
                    seed=seed,
                    weight_decay=0.0,
                    iterate_averaging=True,
                )
                averaged, metrics = dp_train(cfg, private, eval_data)
                loss_avg, _ = evaluate(averaged, private)
                excesses.append(loss_avg - loss_star)
                accuracies.append(metrics[-1].eval_accuracy)
                rates = [
                    m.projection_error_rate
                    for m in metrics
                    if not math.isnan(m.projection_error_rate)
                ]
                proj_errors.append(float(np.mean(rates)) if rates else math.nan)
            points.append(
                UtilityPoint(
                    method=method,
                    epsilon=eps,
                    mean_excess_loss=float(np.mean(excesses)),
                    std_excess_loss=float(np.std(excesses)),
                    mean_accuracy=float(np.mean(accuracies)),
                    std_accuracy=float(np.std(accuracies)),
                    mean_projection_error=float(np.mean(proj_errors)),
                )
            )
    return points
