"""Differentially private optimization via anchor-subspace gradient releases.

The library splits per-sample gradients against a low-dimensional basis
estimated from non-sensitive anchor data, perturbs the embedding and the
residual separately, and recombines them into an unbiased low-variance
private gradient estimate.  It ships with a Renyi-DP accountant, small
models with exact per-sample gradients, a training loop, and an
experiment harness.
"""

from .accounting import (
    CalibrationError,
    DpBudget,
    RdpCurve,
    calibrate_sigma_closed_form,
    calibrate_sigma_search,
    default_orders,
    epsilon_for_sigma,
    rdp_to_dp,
)
from .data import CsvParseError, Dataset, SynthParams, ingest_csv, synth_dataset
from .linalg import (
    FactoredGradients,
    GradientPiece,
    RandomStream,
    count_flops,
    gaussian_noise,
    orthonormalize_rows,
    power_iteration_basis,
)
from .models import (
    GroupLayout,
    ModelSpec,
    ParamGroup,
    evaluate,
    forward,
    init_model,
    make_group_layout,
    per_sample_factors,
    per_sample_gradients,
)
from .release import (
    AnchorBasis,
    GepConfig,
    PrivateRelease,
    build_anchor_basis,
    projection_error_rate,
    release_gradient,
    single_group_layout,
    stable_rank,
)
from .training import (
    DivergenceError,
    StepMetrics,
    TrainConfig,
    dp_train,
    gd_train,
    optimizer_step,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorBasis",
    "CalibrationError",
    "CsvParseError",
    "Dataset",
    "DivergenceError",
    "DpBudget",
    "FactoredGradients",
    "GepConfig",
    "GradientPiece",
    "GroupLayout",
    "ModelSpec",
    "ParamGroup",
    "PrivateRelease",
    "RandomStream",
    "RdpCurve",
    "StepMetrics",
    "SynthParams",
    "TrainConfig",
    "build_anchor_basis",
    "calibrate_sigma_closed_form",
    "calibrate_sigma_search",
    "count_flops",
    "default_orders",
    "dp_train",
    "epsilon_for_sigma",
    "evaluate",
    "forward",
    "gaussian_noise",
    "gd_train",
    "ingest_csv",
    "init_model",
    "make_group_layout",
    "optimizer_step",
    "orthonormalize_rows",
    "per_sample_factors",
    "per_sample_gradients",
    "power_iteration_basis",
    "projection_error_rate",
    "rdp_to_dp",
    "release_gradient",
    "single_group_layout",
    "stable_rank",
    "synth_dataset",
]
