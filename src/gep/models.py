"""Per-sample gradients, parameter layouts, and evaluation for small models.

Three model families are supported, all over a flat parameter vector:

* ``linear``   -- least-squares regression with an augmented bias feature,
  per-sample loss ``0.5 * (x.w - y)^2``;
* ``logistic`` -- softmax regression (>= 2 classes) with augmented bias,
  per-sample cross-entropy;
* ``mlp``      -- one tanh hidden layer followed by softmax, explicit bias
  vectors.

The tanh activation keeps every loss smooth, so gradients can be checked
against central finite differences.

Every per-sample gradient block of these models is an outer product
``delta_i (x) a_i`` of the backpropagated error at a layer's output and
that layer's input (``a = 1`` for a bias vector), so the backward pass
returns the factors (:func:`per_sample_factors`) and the n x p matrix is
only formed on request (:func:`per_sample_gradients`).  Both the backward
pass and :func:`evaluate` start from one :func:`forward` result, so a
caller holding it runs no second forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .linalg import FactoredGradients, GradientPiece

__all__ = [
    "ModelSpec",
    "ParamGroup",
    "GroupLayout",
    "param_count",
    "init_model",
    "Forward",
    "forward",
    "per_sample_factors",
    "per_sample_gradients",
    "evaluate",
    "allocate_basis_counts",
    "group_layout",
    "make_group_layout",
]

MODEL_KINDS = ("linear", "logistic", "mlp")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model family plus its flat parameter vector."""

    kind: str
    input_dim: int
    output_dim: int
    hidden_dim: int = 0
    theta: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = param_count(
            self.kind, self.input_dim, self.output_dim, self.hidden_dim
        )
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if theta.size != expected:
            raise ValueError(
                f"theta has {theta.size} entries, {self.kind} model needs {expected}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite entries")
        object.__setattr__(self, "theta", theta)

    @property
    def p(self) -> int:
        return self.theta.size

    def with_theta(self, theta: np.ndarray) -> "ModelSpec":
        return replace(self, theta=theta)


def param_count(kind: str, input_dim: int, output_dim: int, hidden_dim: int = 0) -> int:
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    if kind == "linear":
        if output_dim != 1:
            raise ValueError("linear regression is scalar (output_dim must be 1)")
        return input_dim + 1
    if kind == "logistic":
        if output_dim < 2:
            raise ValueError("logistic model needs at least 2 classes")
        return output_dim * (input_dim + 1)
    if kind == "mlp":
        if output_dim < 2:
            raise ValueError("mlp model needs at least 2 classes")
        if hidden_dim < 1:
            raise ValueError("mlp model needs hidden_dim >= 1")
        return hidden_dim * input_dim + hidden_dim + output_dim * hidden_dim + output_dim
    raise ValueError(f"unknown model kind {kind!r}")


def init_model(
    kind: str,
    input_dim: int,
    output_dim: int,
    hidden_dim: int = 0,
    rng: np.random.Generator | None = None,
    scale: float = 0.0,
) -> ModelSpec:
    """Build a model with zero or scaled-Gaussian initial parameters.

    For the MLP a positive ``scale`` draws fan-in-scaled Gaussian weights
    (biases start at zero); zero parameters would freeze its first layer.
    """
    p = param_count(kind, input_dim, output_dim, hidden_dim)
    if scale == 0.0:
        theta = np.zeros(p)
    else:
        if rng is None:
            raise ValueError("random initialization needs a generator")
        if kind == "mlp":
            w1 = rng.standard_normal((hidden_dim, input_dim)) * (
                scale / math.sqrt(input_dim)
            )
            w2 = rng.standard_normal((output_dim, hidden_dim)) * (
                scale / math.sqrt(hidden_dim)
            )
            theta = np.concatenate(
                [w1.ravel(), np.zeros(hidden_dim), w2.ravel(), np.zeros(output_dim)]
            )
        else:
            theta = rng.standard_normal(p) * scale
    return ModelSpec(kind, input_dim, output_dim, hidden_dim, theta)


def _shifted_class_major(z: np.ndarray) -> np.ndarray:
    # The c x n copy of the n x c logits, less each sample's largest logit.
    # numpy reduces a short contiguous axis one row at a time, so the class
    # axis is reduced where it is the long one: across the rows of a copy.
    zt = np.ascontiguousarray(z.T)
    return zt - zt.max(axis=0)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(_shifted_class_major(z))
    # row-major again: the backward pass edits it in place and multiplies it
    return np.ascontiguousarray((e / e.sum(axis=0)).T)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = _shifted_class_major(z)
    return (shifted - np.log(np.exp(shifted).sum(axis=0))).T


def _check_batch(model: ModelSpec, data: Dataset) -> None:
    if data.n == 0:
        raise ValueError("batch is empty")
    if data.d != model.input_dim:
        raise ValueError(
            f"batch has {data.d} features, model expects {model.input_dim}"
        )


def _class_labels(model: ModelSpec, data: Dataset) -> np.ndarray:
    y = data.labels
    if not np.issubdtype(y.dtype, np.integer):
        rounded = np.rint(y)
        # exact integrality: a tolerance would turn 1.000001 into class 1
        if not (np.all(np.isfinite(y)) and np.array_equal(y, rounded)):
            raise ValueError("classification labels must be integers")
        y = rounded.astype(np.int64)
    if y.min() < 0 or y.max() >= model.output_dim:
        raise ValueError(
            f"labels must lie in [0, {model.output_dim}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y


def _mlp_unpack(model: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    d, h, c = model.input_dim, model.hidden_dim, model.output_dim
    theta = model.theta
    i = 0
    w1 = theta[i : i + h * d].reshape(h, d)
    i += h * d
    b1 = theta[i : i + h]
    i += h
    w2 = theta[i : i + c * h].reshape(c, h)
    i += c * h
    b2 = theta[i : i + c]
    return w1, b1, w2, b2


@dataclass(frozen=True, eq=False)
class Forward:
    """One forward pass of ``model`` over ``data``.

    ``logits`` is the output layer: the n predictions of a linear model,
    the n x c class scores otherwise.  ``hidden`` is the MLP's tanh layer.
    """

    model: ModelSpec
    data: Dataset
    logits: np.ndarray
    hidden: np.ndarray | None = None


def forward(model: ModelSpec, data: Dataset) -> Forward:
    """The forward pass that :func:`evaluate` and :func:`per_sample_factors` share.

    Linear and softmax regression read the dataset's cached bias-augmented
    design, so no call copies the features.
    """
    _check_batch(model, data)
    if model.kind == "linear":
        return Forward(model, data, data.design @ model.theta)
    if model.kind == "logistic":
        w = model.theta.reshape(model.output_dim, model.input_dim + 1)
        # OpenBLAS multiplies a tall matrix by a transposed c-column view
        # about 3x slower than by a contiguous copy of it
        return Forward(model, data, data.design @ np.ascontiguousarray(w.T))
    w1, b1, w2, b2 = _mlp_unpack(model)
    hidden = np.tanh(data.features @ w1.T + b1)
    return Forward(model, data, hidden @ w2.T + b2, hidden)


def _forward_of(model: ModelSpec, data: Dataset, fwd: Forward | None) -> Forward:
    if fwd is None:
        return forward(model, data)
    if fwd.model is not model or fwd.data is not data:
        raise ValueError("the forward pass was computed for another model or dataset")
    return fwd


def per_sample_factors(
    model: ModelSpec, batch: Dataset, fwd: Forward | None = None
) -> FactoredGradients:
    """Per-sample gradients w.r.t. the flat parameters, as outer products.

    The pieces, in parameter order:

    * ``linear``: ``resid (x) [x, 1]``;
    * ``logistic``: ``(probs - onehot) (x) [x, 1]``, a ``c x (d + 1)`` block;
    * ``mlp``: ``delta1 (x) x`` and ``delta1`` for the first layer, then
      ``delta2 (x) hidden`` and ``delta2`` for the second, where
      ``delta2 = probs - onehot`` and
      ``delta1 = (delta2 W2) * (1 - hidden^2)``.

    Each piece lies inside one group of :func:`make_group_layout`.  ``fwd``
    is ``forward(model, batch)`` when the caller already has it.
    """
    fwd = _forward_of(model, batch, fwd)
    n = batch.n

    if model.kind == "linear":
        resid = fwd.logits - np.asarray(batch.labels, dtype=np.float64)
        piece = GradientPiece(0, resid[:, None], batch.design, batch.design_sq_norms)
        return FactoredGradients((piece,), model.p)

    y = _class_labels(model, batch)
    delta = _softmax(fwd.logits)
    delta[np.arange(n), y] -= 1.0
    if model.kind == "logistic":
        piece = GradientPiece(0, delta, batch.design, batch.design_sq_norms)
        return FactoredGradients((piece,), model.p)

    # mlp: delta is the docstring's delta2
    hidden = fwd.hidden
    w1, _, w2, _ = _mlp_unpack(model)
    delta1 = (delta @ w2) * (1.0 - hidden * hidden)
    h, d = w1.shape
    second = h * d + h
    pieces = (
        GradientPiece(0, delta1, batch.features),
        GradientPiece(h * d, delta1),
        GradientPiece(second, delta, hidden),
        GradientPiece(second + delta.shape[1] * h, delta),
    )
    return FactoredGradients(pieces, model.p)


def per_sample_gradients(model: ModelSpec, batch: Dataset) -> np.ndarray:
    """Gradient of each sample's loss w.r.t. the flat parameters.

    Returns an ``n x p`` matrix whose row mean equals the gradient of the
    mean batch loss: the dense form of :func:`per_sample_factors`, kept as
    the reference that tests check against finite differences.
    """
    return per_sample_factors(model, batch).dense()


def evaluate(
    model: ModelSpec, data: Dataset, fwd: Forward | None = None
) -> tuple[float, float]:
    """Mean loss and accuracy; accuracy is NaN for regression.

    ``fwd`` is ``forward(model, data)`` when the caller already has it.
    """
    fwd = _forward_of(model, data, fwd)

    if model.kind == "linear":
        resid = fwd.logits - np.asarray(data.labels, dtype=np.float64)
        return float(0.5 * np.mean(resid * resid)), math.nan

    y = _class_labels(model, data)
    log_probs = _log_softmax(fwd.logits)
    loss = float(-np.mean(log_probs[np.arange(data.n), y]))
    accuracy = float(np.mean(np.argmax(fwd.logits, axis=1) == y))
    return loss, accuracy


@dataclass(frozen=True)
class ParamGroup:
    """A contiguous block of the flat parameter vector with a basis quota."""

    name: str
    offset: int
    length: int
    k_alloc: int


@dataclass(frozen=True)
class GroupLayout:
    """An ordered partition of the parameters into basis groups."""

    groups: tuple[ParamGroup, ...]

    def __post_init__(self) -> None:
        offset = 0
        for g in self.groups:
            if g.offset != offset:
                raise ValueError("groups must tile the parameter vector in order")
            if g.length < 1 or g.k_alloc < 1:
                raise ValueError("groups need positive length and basis quota")
            if g.k_alloc > g.length:
                raise ValueError(
                    f"group {g.name!r} allocates {g.k_alloc} basis vectors "
                    f"but spans only {g.length} parameters"
                )
            offset += g.length

    @property
    def dim(self) -> int:
        return sum(g.length for g in self.groups)


def allocate_basis_counts(lengths: list[int], k: int) -> list[int]:
    """Split a basis quota across groups proportionally to sqrt(size).

    Largest-remainder rounding keeps the total exactly ``k``; every group
    receives at least one vector and never more than its dimension.
    """
    n_groups = len(lengths)
    if n_groups == 0:
        raise ValueError("need at least one group")
    if any(length < 1 for length in lengths):
        raise ValueError("group lengths must be positive")
    if k < n_groups:
        raise ValueError(f"k={k} is below the number of groups ({n_groups})")
    total = sum(lengths)
    if k > total:
        raise ValueError(f"k={k} exceeds the total parameter count ({total})")

    weights = np.sqrt(np.asarray(lengths, dtype=np.float64))
    quota = k * weights / weights.sum()
    alloc = np.floor(quota).astype(np.int64)
    remainder = quota - alloc
    # hand out the leftover units by largest fractional part (stable ties)
    for i in np.argsort(-remainder, kind="stable")[: k - int(alloc.sum())]:
        alloc[i] += 1
    # enforce the [1, length] bounds, shifting units between groups
    caps = np.asarray(lengths, dtype=np.int64)
    alloc = np.minimum(alloc, caps)
    while alloc.sum() < k:
        room = (caps - alloc).astype(np.float64)
        room[room <= 0] = -np.inf
        alloc[int(np.argmax(room + remainder * 1e-9))] += 1
    while np.any(alloc < 1):
        need = int(np.argmin(alloc))
        donors = alloc.copy()
        donors[need] = -1
        donor = int(np.argmax(donors))
        if alloc[donor] <= 1:
            raise ValueError("cannot give every group a basis vector")
        alloc[donor] -= 1
        alloc[need] += 1
    return [int(a) for a in alloc]


def group_layout(blocks: list[tuple[str, int]], k: int) -> GroupLayout:
    """Consecutive groups of the given ``(name, length)``, in order.

    The quota ``k`` is split across them by :func:`allocate_basis_counts`.
    """
    counts = allocate_basis_counts([length for _, length in blocks], k)
    groups, offset = [], 0
    for (name, length), k_g in zip(blocks, counts):
        groups.append(ParamGroup(name, offset, length, k_g))
        offset += length
    return GroupLayout(tuple(groups))


def make_group_layout(model: ModelSpec, k: int) -> GroupLayout:
    """Partition the model's parameters into per-layer basis groups.

    Weight matrices and their bias vectors share a group; the quota ``k``
    is split across groups by the square-root rule.
    """
    d, h, c = model.input_dim, model.hidden_dim, model.output_dim
    if model.kind == "linear":
        return group_layout([("coef", d + 1)], k)
    if model.kind == "logistic":
        return group_layout([("coef", c * (d + 1))], k)
    return group_layout([("layer1", h * d + h), ("layer2", c * h + c)], k)
