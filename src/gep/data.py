"""Dataset container, CSV ingestion, and synthetic task generators."""

from __future__ import annotations

import copy
import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import orthonormalize_rows

__all__ = [
    "Dataset",
    "CsvParseError",
    "ingest_csv",
    "synth_dataset",
    "standardize_stats",
    "split_pool",
]

# Cap on the expected number of rows the separable generator draws.
SEPARABLE_MAX_DRAWS = 10**7

SYNTH_KINDS = (
    "gaussian-mixture",
    "separable",
    "lowrank-gradient-task",
    "split-signal",
)


class CsvParseError(ValueError):
    """CSV ingestion failure, with row/column context in the message."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An in-memory feature matrix with labels.

    Labels are int64 for classification and float64 for regression; the row
    order is part of the dataset identity (ingestion preserves file order).
    The constructor copies both arrays and keeps them read-only, so a
    caller that keeps the arrays it passed in cannot edit the features past
    the finite check or under the cached :attr:`design`.  The cheap
    derivations, :meth:`subset` and :meth:`with_labels`, do not copy the
    features again; the latter copies only the labels it is given.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite entries")
        object.__setattr__(self, "features", _read_only(features))
        labels = _label_vector(np.array(self.labels), features.shape[0])
        object.__setattr__(self, "labels", labels)
        # arrays computed from the features alone; relabeled copies share it
        object.__setattr__(self, "_derived", {})

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def design(self) -> np.ndarray:
        """The bias-augmented design ``[features, 1]``, built on first use."""
        if "design" not in self._derived:
            design = np.hstack([self.features, np.ones((self.n, 1))])
            # its row norms are built with it, so a subset slices both
            sq = np.einsum("ij,ij->i", design, design)
            self._derived["design_sq_norms"] = _read_only(sq)
            self._derived["design"] = _read_only(design)
        return self._derived["design"]

    @property
    def design_sq_norms(self) -> np.ndarray:
        """Each row's squared norm in :attr:`design`, built with it."""
        if "design_sq_norms" not in self._derived:
            self.design
        return self._derived["design_sq_norms"]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """The rows ``idx``; a cached design and its norms are sliced, not
        rebuilt."""
        part = copy.copy(self)
        object.__setattr__(part, "features", _read_only(self.features[idx]))
        object.__setattr__(part, "labels", _read_only(self.labels[idx]))
        object.__setattr__(part, "_derived", {
            key: _read_only(value[idx]) for key, value in self._derived.items()
        })
        return part

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        """The same rows relabeled; features, design and norms are shared."""
        part = copy.copy(self)
        object.__setattr__(part, "labels", _label_vector(np.array(labels), self.n))
        return part


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _label_vector(labels: np.ndarray, n: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise ValueError(
            f"got {labels.shape[0] if labels.ndim == 1 else 'non-vector'} labels "
            f"for {n} rows"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        labels = np.asarray(labels, dtype=np.float64)
    return _read_only(labels)


def standardize_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation for standardization."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    return mean, std


def _apply_standardize(
    features: np.ndarray, stats: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    mean, std = stats
    out = features - mean
    nonzero = std > 0
    out[:, nonzero] /= std[nonzero]
    out[:, ~nonzero] = 0.0  # constant columns carry no information
    return out


def ingest_csv(path: str, label_column: str) -> Dataset:
    """Load a headered CSV file into a Dataset.

    All non-label columns are parsed as float features, unnormalized: a
    caller that standardizes takes :func:`standardize_stats` from its
    public pool alone.  Integer-valued label columns become
    classification labels.

    After the header, numpy's C reader parses the body straight from the
    open file.  Its table is kept only if it raised and warned nothing and
    has one column per header name; otherwise the body is read again, row
    by row with ``csv`` and ``float()``'s rules.  That row loop is the only
    reader of what numpy refuses (quoted cells, ``1_000.25``, rows of
    blank cells) and the only source of the row and column errors.  Both
    readers give bitwise the same table.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise CsvParseError(
                f"{path}: label column {label_column!r} not found in header {header}"
            )
        label_idx = header.index(label_column)

        table = _load_table(handle, len(header))
        if table is None:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            table = _parse_rows(path, reader, header)

    features = np.delete(table, label_idx, axis=1)
    label_arr = table[:, label_idx].copy()
    # exact integrality: a tolerance would round large regression labels
    if np.all(np.isfinite(label_arr)) and np.all(label_arr == np.rint(label_arr)):
        label_arr = np.rint(label_arr).astype(np.int64)
    return Dataset(features, label_arr, name=path)


def _load_table(handle, columns: int) -> np.ndarray | None:
    """The body as one float table via numpy's reader, or None to fall back.

    The open handle streams to the reader line by line: a body read into
    one string first would add its own size to the peak memory.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty body warns
        try:
            table = np.loadtxt(
                handle, dtype=np.float64, delimiter=",", comments=None, ndmin=2
            )
        except (ValueError, Warning):
            return None
    return table if table.shape[1] == columns else None


def _parse_rows(path: str, reader, header: list[str]) -> np.ndarray:
    """The body as one float table, row by row with ``float()``'s rules."""
    rows: list[np.ndarray] = []
    for row_num, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise CsvParseError(
                f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
            )
        # one numpy call parses the row's cells with float()'s rules
        try:
            rows.append(np.array(row, dtype=np.float64))
        except ValueError:
            raise _cell_error(path, row_num, header, row) from None
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(rows)


def _cell_error(
    path: str, row_num: int, header: list[str], row: list[str]
) -> CsvParseError:
    """The parse error naming the first cell of ``row`` that is not a number."""
    for name, cell in zip(header, row):
        try:
            float(cell)
        except ValueError:
            return CsvParseError(
                f"{path}: row {row_num}, column {name!r}: cannot parse {cell!r} as a number"
            )
    return CsvParseError(f"{path}: row {row_num}: cannot parse the row as numbers")


def synth_dataset(kind: str, params: dict, rng: np.random.Generator) -> Dataset:
    """Generate a synthetic dataset; fully deterministic given the generator.

    Kinds:

    * ``lowrank-gradient-task``: regression features spanning a
      ``rank - 1`` dimensional subspace, with labels linear in the latent
      coordinates plus small noise, so the per-sample gradients of a
      zero-initialized linear model occupy an exact ``rank``-dimensional
      subspace (features plus the bias direction).  ``tail > 0`` adds isotropic feature noise, turning the
      gradients approximately low-rank instead.
    * ``gaussian-mixture``: ``classes`` spherical clusters for
      classification; ``subspace_dim > 0`` places the centers in a random
      low-dimensional subspace.
    * ``separable``: binary labels from a random hyperplane with a margin
      enforced by resampling.  The margin must be positive and finite, and
      small enough that the expected number of Gaussian rows drawn,
      ``n / erfc(margin / sqrt(2))``, stays within
      :data:`SEPARABLE_MAX_DRAWS` (10^7; at ``n = 1000`` a margin up to
      about 3.9).
    * ``split-signal``: binary labels driven by two logits: a strong one
      along a low-dimensional feature spike (visible to covariance-based
      subspace estimates) and a weak one along a dense direction with no
      feature spike (invisible to them).  Estimators that discard what
      falls outside the estimated subspace hit an accuracy floor here.
    """
    if kind == "lowrank-gradient-task":
        return _lowrank_gradient_task(params, rng)
    if kind == "gaussian-mixture":
        return _gaussian_mixture(params, rng)
    if kind == "separable":
        return _separable(params, rng)
    if kind == "split-signal":
        return _split_signal(params, rng)
    raise ValueError(f"unknown synthetic dataset kind {kind!r}")


def _lowrank_gradient_task(params: dict, rng: np.random.Generator) -> Dataset:
    n = int(params.get("n", 200))
    d = int(params.get("input_dim", 99))
    rank = int(params.get("rank", 5))
    tail = float(params.get("tail", 0.0))
    if rank < 2 or rank - 1 > d:
        raise ValueError(f"rank must lie in [2, input_dim + 1], got {rank}")
    if n < 1:
        raise ValueError("n must be >= 1")
    directions, got = orthonormalize_rows(rng.standard_normal((rank - 1, d)))
    if got != rank - 1:
        raise RuntimeError("random directions collapsed; should not happen")
    latent = rng.standard_normal((n, rank - 1))
    features = latent @ directions
    if tail > 0:
        features = features + tail * rng.standard_normal((n, d))
    # labels carry a linear signal, so the mean gradient at the zero model
    # is systematic rather than an average of random signs
    weights = rng.standard_normal(rank - 1)
    labels = latent @ weights + 0.1 * rng.standard_normal(n)
    return Dataset(features, labels, name="lowrank-gradient-task")


def _gaussian_mixture(params: dict, rng: np.random.Generator) -> Dataset:
    n = int(params.get("n", 1000))
    d = int(params.get("input_dim", 20))
    classes = int(params.get("classes", 10))
    sep = float(params.get("sep", 3.0))
    noise = float(params.get("noise", 1.0))
    subspace_dim = int(params.get("subspace_dim", 0))
    if classes < 2:
        raise ValueError("gaussian-mixture needs at least 2 classes")
    if subspace_dim:
        if subspace_dim > d:
            raise ValueError("subspace_dim cannot exceed input_dim")
        axes, _ = orthonormalize_rows(rng.standard_normal((subspace_dim, d)))
        centers = rng.standard_normal((classes, subspace_dim)) @ axes * sep
    else:
        centers = rng.standard_normal((classes, d)) * sep
    labels = rng.integers(0, classes, size=n)
    features = centers[labels] + noise * rng.standard_normal((n, d))
    return Dataset(features, labels.astype(np.int64), name="gaussian-mixture")


def _split_signal(params: dict, rng: np.random.Generator) -> Dataset:
    n = int(params.get("n", 2000))
    d = int(params.get("input_dim", 199))
    subdim = int(params.get("subspace_dim", 6))
    sep = float(params.get("sep", 3.0))
    cluster_weight = float(params.get("cluster_weight", 2.0))
    dense_weight = float(params.get("dense_weight", 2.0))
    feature_scale = float(params.get("feature_scale", 1.0))
    if subdim < 1 or subdim > d:
        raise ValueError("subspace_dim must lie in [1, input_dim]")
    if feature_scale <= 0:
        raise ValueError("feature_scale must be positive")
    axes, _ = orthonormalize_rows(rng.standard_normal((subdim, d)))
    latent = rng.standard_normal((n, subdim))
    features = sep * latent @ axes + rng.standard_normal((n, d))
    # label signal: one direction in the spiked subspace, one dense
    w_sub = rng.standard_normal(subdim)
    w_sub /= np.linalg.norm(w_sub)
    dense = rng.standard_normal(d)
    dense /= np.linalg.norm(dense)
    logits = cluster_weight * (latent @ w_sub) + dense_weight * (features @ dense)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    # scaling after label assignment leaves the classification problem
    # unchanged while setting the gradient magnitude against fixed
    # clipping thresholds
    return Dataset(feature_scale * features, labels, name="split-signal")


def _separable(params: dict, rng: np.random.Generator) -> Dataset:
    n = int(params.get("n", 1000))
    d = int(params.get("input_dim", 20))
    margin = float(params.get("margin", 1.0))
    if not (margin > 0 and math.isfinite(margin)):
        raise ValueError(f"margin must be positive and finite, got {margin}")
    # a row passes the margin with probability erfc(margin / sqrt(2))
    if math.erfc(margin / math.sqrt(2.0)) * SEPARABLE_MAX_DRAWS < n:
        raise ValueError(
            f"margin {margin} would take more than {SEPARABLE_MAX_DRAWS:.0e} "
            f"expected draws for {n} rows"
        )
    normal = rng.standard_normal(d)
    normal /= np.linalg.norm(normal)
    features = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        draw = rng.standard_normal((2 * (n - filled), d))
        proj = draw @ normal
        keep = np.abs(proj) >= margin
        take = min(int(keep.sum()), n - filled)
        rows = draw[keep][:take]
        features[filled : filled + take] = rows
        labels[filled : filled + take] = (rows @ normal > 0).astype(np.int64)
        filled += take
    return Dataset(features, labels, name="separable")


def split_pool(
    full: Dataset, n_pool: int, n_eval: int
) -> tuple[Dataset, Dataset, Dataset]:
    """The public pool, eval and private splits of ``full``, in row order.

    Rows ``[0, n_pool)`` are the pool, the next ``n_eval`` the eval set and
    the rest, which may not be empty, the private set.
    """
    if min(n_pool, n_eval) < 0 or full.n <= n_pool + n_eval:
        raise ValueError(
            f"{full.name}: cannot split {full.n} rows into {n_pool} pool, "
            f"{n_eval} eval and at least one private row"
        )
    return (
        full.subset(np.arange(n_pool)),
        full.subset(np.arange(n_pool, n_pool + n_eval)),
        full.subset(np.arange(n_pool + n_eval, full.n)),
    )
