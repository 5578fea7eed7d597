"""The private training loop and its non-private reference.

Each step recomputes anchor gradients on auxiliary data (relabeled at
random by default), rebuilds the per-group anchor basis, releases a
private batch-gradient estimate, and feeds it to SGD with momentum.
Everything downstream of the release is post-processing, so the final
model inherits the release's privacy guarantee under composition.  The
non-private reference, ``gd_train``, runs the same step loop on the
unclipped, noiseless full-batch gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accounting import DpBudget, calibrate_sigma_search, epsilon_for_sigma
from .data import Dataset
from .linalg import RandomStream
from .models import (
    Forward,
    ModelSpec,
    evaluate,
    forward,
    make_group_layout,
    per_sample_factors,
)
from .release import (
    METHODS,
    GepConfig,
    build_anchor_basis,
    release_gradient,
    stable_rank,
)

__all__ = [
    "TrainConfig",
    "StepMetrics",
    "DivergenceError",
    "dp_train",
    "gd_train",
    "optimizer_step",
    "calibrate_noise_multiplier",
    "random_labels",
]

# Substream purposes; one substream per (step, purpose) pair.
PURPOSE_BATCH = 0
PURPOSE_ANCHOR_LABELS = 1
PURPOSE_BASIS = 2
PURPOSE_NOISE = 3

BATCH_RULES = ("full", "poisson")


class DivergenceError(RuntimeError):
    """The optimizer produced non-finite parameters."""


@dataclass(frozen=True, eq=False)
class TrainConfig:
    """Everything needed to reproduce one training run."""

    model: ModelSpec
    gep: GepConfig
    budget: DpBudget
    steps: int
    aux_data: Dataset
    method: str = "gep"  # a key of gep.release.METHODS
    batch: str = "full"  # "full" or "poisson"
    q: float = 1.0  # Poisson inclusion probability
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: bool = True  # divide lr by 10 at the midpoint step
    seed: int = 0
    aux_label_mode: str = "random-each-step"  # or "fixed"
    sigma_override: float | None = None  # skip calibration when set (>= 0)
    track_spectra: bool = False  # per-step stable ranks of G and R
    iterate_averaging: bool = False  # return the averaged iterate

    def __post_init__(self) -> None:
        if not self.steps >= 0:
            raise ValueError("steps must be >= 0")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.batch not in BATCH_RULES:
            raise ValueError(f"unknown batch rule {self.batch!r}")
        if self.batch == "poisson" and not 0 < self.q <= 1:
            raise ValueError(f"poisson sampling rate must lie in (0, 1], got {self.q}")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight decay must be non-negative")
        if self.aux_label_mode not in ("random-each-step", "fixed"):
            raise ValueError(f"unknown auxiliary label mode {self.aux_label_mode!r}")
        if self.sigma_override is not None and not self.sigma_override >= 0:
            raise ValueError("sigma override must be >= 0")
        if self.aux_data.n < self.gep.m:
            raise ValueError(
                f"auxiliary dataset has {self.aux_data.n} rows, config asks for "
                f"m={self.gep.m} anchor gradients"
            )

    @property
    def sampling_rate(self) -> float:
        """The accountant's q: ``q`` for Poisson batches, 1 for full ones."""
        return self.q if self.batch == "poisson" else 1.0


@dataclass(frozen=True)
class StepMetrics:
    """Per-step training record.

    Losses and accuracy are measured after the step's update; release
    diagnostics describe the step's gradients, and read NaN (``k_effective``
    0) for a step that released nothing.  ``epsilon_spent`` is the budget
    consumed by all steps up to and including this one (NaN for a
    non-private run).
    """

    step: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float
    projection_error_rate: float = math.nan
    stable_rank_g: float = math.nan
    stable_rank_r: float = math.nan
    k_effective: int = 0
    clip_fraction_s1: float = math.nan
    clip_fraction_s2: float = math.nan
    epsilon_spent: float = math.nan


def optimizer_step(
    theta: np.ndarray,
    velocity: np.ndarray,
    update: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One SGD-with-momentum step on a released gradient estimate.

    Weight decay is added to the estimate before the momentum buffer; this
    touches no private data, so the step is pure post-processing.
    """
    grad = update + weight_decay * theta
    velocity = momentum * velocity + grad
    # an overflow is reported once, by the check, rather than as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        theta = theta - lr * velocity
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(
                "non-finite parameters after update: "
                f"|update|={float(np.linalg.norm(update)):.3g}, "
                f"|velocity|={float(np.linalg.norm(velocity)):.3g}, lr={lr}"
            )
    return theta, velocity


def calibrate_noise_multiplier(cfg: TrainConfig) -> float:
    """Smallest per-step noise multiplier that keeps the run within budget.

    Every method spends one unit-sensitivity release per step at this
    multiplier, however many sums it perturbs (see
    :func:`gep.release.noise_multipliers`), so all methods calibrate alike.
    """
    return calibrate_sigma_search(cfg.budget, cfg.sampling_rate, max(cfg.steps, 1))


def random_labels(model: ModelSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` labels that carry no signal, for relabeling anchor data.

    Standard-normal targets for a linear model, uniform classes otherwise.
    """
    if model.kind == "linear":
        return rng.standard_normal(n)
    return rng.integers(0, model.output_dim, size=n)


def _anchor_batch(
    cfg: TrainConfig, anchors: Dataset, stream: RandomStream, step: int
) -> Dataset:
    if cfg.aux_label_mode == "random-each-step":
        rng = stream.generator(step, PURPOSE_ANCHOR_LABELS)
        return anchors.with_labels(random_labels(cfg.model, anchors.n, rng))
    return anchors


def _lr_at(cfg: TrainConfig, step: int) -> float:
    if cfg.lr_decay and step >= cfg.steps // 2:
        return cfg.lr / 10.0
    return cfg.lr


_StepGradient = Callable[[int, ModelSpec, Forward | None], tuple[np.ndarray | None, dict]]


def _train(
    cfg: TrainConfig, private: Dataset, eval_data: Dataset, step_gradient: _StepGradient
) -> tuple[ModelSpec, list[StepMetrics]]:
    """The step loop that ``dp_train`` and ``gd_train`` share.

    ``step_gradient(t, model, fwd)`` returns step ``t``'s update, or None
    to leave the parameters as they are, plus the step's diagnostic
    :class:`StepMetrics` fields.  ``fwd`` is the forward pass of ``model``
    on the whole private set once the loop has one: the post-step forward
    that gives a step's train loss feeds the next step's backward pass.
    The loop owns the optimizer state, the evaluations after each step
    and the averaged iterate (returned with ``cfg.iterate_averaging``;
    the metrics always describe the actual iterates).
    """
    if private.d != cfg.model.input_dim:
        raise ValueError("private data does not match the model's input size")
    theta = cfg.model.theta.copy()
    velocity = np.zeros_like(theta)
    theta_sum = np.zeros_like(theta)
    metrics: list[StepMetrics] = []
    model_t = cfg.model.with_theta(theta)
    private_fwd = None  # forward(model_t, private), once evaluated
    for t in range(cfg.steps):
        update, diagnostics = step_gradient(t, model_t, private_fwd)
        if update is not None:
            theta, velocity = optimizer_step(
                theta, velocity, update, _lr_at(cfg, t), cfg.momentum, cfg.weight_decay
            )
            model_t = cfg.model.with_theta(theta)
        theta_sum += theta
        private_fwd = forward(model_t, private)
        train_loss, _ = evaluate(model_t, private, private_fwd)
        eval_loss, eval_acc = evaluate(model_t, eval_data)
        metrics.append(StepMetrics(t, train_loss, eval_loss, eval_acc, **diagnostics))
    final_theta = theta_sum / cfg.steps if cfg.iterate_averaging and cfg.steps else theta
    return cfg.model.with_theta(final_theta), metrics


def dp_train(
    cfg: TrainConfig, private: Dataset, eval_data: Dataset
) -> tuple[ModelSpec, list[StepMetrics]]:
    """Train a model on private data under the configured budget.

    Unless ``cfg.sigma_override`` is set, the noise multiplier is
    calibrated so the full run fits the budget (the per-step epsilons in
    the metrics are recomputed through the accountant, not assumed).
    Each step draws the batch, builds the anchor basis the method names
    and makes one :func:`gep.release.release_gradient` call; an empty
    Poisson batch leaves the parameters as they are.  The step loop is
    the one :func:`gd_train` runs.  With ``cfg.iterate_averaging`` the
    returned model carries the average of the per-step iterates instead
    of the final one; the metrics always describe the actual iterates.
    """
    if cfg.steps == 0:  # nothing to calibrate or release
        return gd_train(cfg, private, eval_data)

    stream = RandomStream(cfg.seed)
    sigma = (
        cfg.sigma_override
        if cfg.sigma_override is not None
        else calibrate_noise_multiplier(cfg)
    )
    method = METHODS[cfg.method]
    layout = make_group_layout(cfg.model, cfg.gep.k)
    eps_schedule = epsilon_for_sigma(  # the budget spent after each step
        sigma, cfg.budget, cfg.sampling_rate, np.arange(1, cfg.steps + 1)
    )[0].tolist()

    aux = cfg.aux_data
    anchors = aux.subset(np.arange(cfg.gep.m)) if aux.n > cfg.gep.m else aux
    working: list = []  # the last step's gradients, basis and release

    def step_gradient(
        t: int, model_t: ModelSpec, private_fwd: Forward | None
    ) -> tuple[np.ndarray | None, dict]:
        if cfg.batch == "poisson":
            mask = stream.generator(t, PURPOSE_BATCH).random(private.n) < cfg.q
            batch = private.subset(np.flatnonzero(mask))
            private_fwd = None
        else:
            batch = private
        if batch.n == 0:
            return None, {"epsilon_spent": eps_schedule[t]}

        grads = per_sample_factors(model_t, batch, private_fwd)
        basis = None
        if method.basis is not None:
            anchor = _anchor_batch(cfg, anchors, stream, t)
            basis = build_anchor_basis(
                per_sample_factors(model_t, anchor),
                layout,
                cfg.gep,
                stream.generator(t, PURPOSE_BASIS),
                basis_mode=method.basis,
            )
        noise = stream.generator(t, PURPOSE_NOISE)
        rel = release_gradient(cfg.method, grads, basis, cfg.gep.s1, cfg.gep.s2, sigma, noise)
        diagnostics = {
            "projection_error_rate": rel.projection_error_rate,
            "k_effective": rel.k_effective,
            "clip_fraction_s1": rel.clip_fraction_s1,
            "clip_fraction_s2": rel.clip_fraction_s2,
            "epsilon_spent": eps_schedule[t],
        }
        if cfg.track_spectra:
            diagnostics["stable_rank_g"] = stable_rank(grads)
            if basis is not None:
                diagnostics["stable_rank_r"] = stable_rank(grads, basis)
        # Held through the loop's post-step forward and evaluations, until
        # the next step replaces them.  Freed before those, they leave the
        # top of glibc's heap free to be trimmed, and the next step faults
        # it back in (on mlp-wide, ~1000 minor faults and +2 ms per gp step).
        working[:] = (grads, basis, rel)
        return rel.v_tilde, diagnostics

    return _train(cfg, private, eval_data, step_gradient)


def gd_train(
    cfg: TrainConfig, private: Dataset, eval_data: Dataset
) -> tuple[ModelSpec, list[StepMetrics]]:
    """Non-private full-batch gradient descent with the same optimizer.

    It runs :func:`dp_train`'s step loop on the full batch.  The batch
    gradient is the mean of the per-sample rows, computed by the ``gp``
    release at an infinite threshold and σ = 0, so it is exactly what the
    noiseless private path reduces to; the release diagnostics read NaN.
    """

    def step_gradient(
        t: int, model_t: ModelSpec, private_fwd: Forward | None
    ) -> tuple[np.ndarray, dict]:
        grads = per_sample_factors(model_t, private, private_fwd)
        rel = release_gradient("gp", grads, None, math.inf, math.inf, 0.0, None)
        return rel.v_tilde, {}

    return _train(cfg, private, eval_data, step_gradient)
