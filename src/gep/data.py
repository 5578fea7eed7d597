"""Dataset container, CSV ingestion, and synthetic task generators.

A :class:`Dataset` owns one feature array, its read-only design
``[x, 1]``, which every model kind reads.  :func:`synth_dataset` maps each
synthetic kind to its generator through one table, and every generator
reads a :class:`SynthParams`.  :func:`split_pool` is the one split of a
task's rows into public pool, eval and private sets.  Nothing here
normalizes: :func:`gep.tasks.build_task` standardizes with statistics of
the public pool.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import orthonormalize_rows

__all__ = [
    "Dataset",
    "CsvParseError",
    "ingest_csv",
    "SynthParams",
    "synth_dataset",
    "standardize_stats",
    "split_pool",
]

# Cap on the expected number of rows the separable generator draws.
SEPARABLE_MAX_DRAWS = 10**7

class CsvParseError(ValueError):
    """CSV ingestion failure, with row/column context in the message."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An in-memory feature matrix with labels.

    Labels are int64 for classification and float64 for regression; the row
    order is part of the dataset identity (ingestion preserves file order).
    The one feature array a dataset owns is the bias-augmented
    :attr:`design` ``[features, 1]``; :attr:`features` is its read-only
    view without the last column.  The constructor copies the features
    into the design once, and the labels, and keeps both read-only, so a
    caller that keeps the arrays it passed in cannot edit them past the
    finite check: non-finite features and non-finite labels are refused
    alike.  :meth:`subset` by a slice gives views of the design,
    its row norms and the labels; by an index array or a mask it gathers
    copies.  :meth:`with_labels` shares them all and copies only the
    labels it is given.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = ""
    design: np.ndarray = field(init=False, repr=False)
    design_sq_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        given = np.asarray(self.features)
        if given.ndim != 2:
            raise ValueError("features must be a 2-d array")
        design = np.empty((given.shape[0], given.shape[1] + 1))
        design[:, :-1] = given
        design[:, -1] = 1.0
        if not np.all(np.isfinite(design)):
            raise ValueError("features contain non-finite entries")
        labels = _label_vector(np.array(self.labels), design.shape[0])
        object.__setattr__(self, "labels", labels)
        self._set_design(design, np.einsum("ij,ij->i", design, design))

    def _set_design(self, design: np.ndarray, sq_norms: np.ndarray) -> None:
        design = _read_only(design)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "design_sq_norms", _read_only(sq_norms))
        object.__setattr__(self, "features", design[:, :-1])

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1] - 1

    def subset(self, idx: np.ndarray | slice) -> "Dataset":
        """The rows ``idx``: views for a slice, gathered copies otherwise.

        The design's row norms are taken with the rows, so a Poisson batch
        computes none."""
        part = copy.copy(self)
        object.__setattr__(part, "labels", _read_only(self.labels[idx]))
        part._set_design(self.design[idx], self.design_sq_norms[idx])
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
        if not np.all(np.isfinite(labels)):
            raise ValueError("labels contain non-finite entries")
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

    Non-label columns become float features, unnormalized: a caller that
    standardizes takes :func:`standardize_stats` from its public pool.  An
    integer-valued label column becomes classification labels.

    One ``np.loadtxt`` call reads the body: numbers split by commas,
    padded with whitespace or quoted with ``"``, empty lines skipped.  A
    blank cell, a whitespace-only line, ``1_000``, or a cell count other
    than the header's is a :class:`CsvParseError` that names the file row
    and the header column, and so is a byte that is not UTF-8 (a leading
    byte order mark is skipped), by row.  Only a refused file is read a
    second time, to find that row.  The label column is copied out and the
    parsed table dropped before the dataset copies the features.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            if (header := next(reader, None)) is None:
                raise CsvParseError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            if label_column not in header:
                raise CsvParseError(
                    f"{path}: label column {label_column!r} not found in header {header}"
                )
            # numpy reads the open file line by line: a body read into one
            # string first would add its own size to the peak memory
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty body warns
                try:
                    table = np.loadtxt(
                        handle, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                        quotechar='"',
                    )
                except Warning:
                    raise CsvParseError(f"{path}: no data rows") from None
                except UnicodeDecodeError:
                    raise
                except ValueError as err:
                    raise _parse_error(path, header, reader.line_num, str(err)) from None
        if table.shape[1] != len(header):  # numpy took its count from the first row
            message = f"changed from {len(header)} to {table.shape[1]} at row 1"
            raise _parse_error(path, header, reader.line_num, message)
    except UnicodeDecodeError:  # its position counts from a decoded chunk
        with open(path, "rb") as handle:
            raw = handle.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            row = len((raw[: err.start] + b"x").splitlines())  # the csv reader's lines
            byte = raw[err.start]
            raise CsvParseError(f"{path}: row {row}: byte {byte:#04x} is not UTF-8") from None

    label_idx = header.index(label_column)
    labels = table[:, label_idx].copy()
    # the parsed table goes before the dataset copies the features
    features = np.delete(table, label_idx, axis=1)
    del table
    # exact integrality: a tolerance would round large regression labels
    if np.all(np.isfinite(labels)) and np.all(labels == np.rint(labels)):
        labels = labels.astype(np.int64)
    return Dataset(features, labels, name=path)


def _parse_error(path: str, header: list[str], header_lines: int, message: str) -> CsvParseError:
    """numpy's error ``message`` at the file row and header column it means.

    numpy counts data rows, a bad cell's from 0 and a bad cell count's from
    1, and takes its cell count from the first row.  A message that names
    no row is kept as it is.
    """
    if cell := re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", message, re.DOTALL):
        what, row, column = cell[1], int(cell[2]) + 1, int(cell[3]) - 1
    elif count := re.search(r"changed from (\d+) to (\d+) at row (\d+)", message):
        first, cells, row = map(int, count.groups())
        if first != len(header):
            cells, row = first, 1
        what, column = f"{cells} cells, the header has {len(header)}", min(cells, len(header))
    else:
        return CsvParseError(f"{path}: {message}")
    # a row starts on each line that is not empty and not inside a quoted cell
    with open(path, newline="", encoding="utf-8-sig") as handle:
        quoted = False
        body = itertools.islice(handle, header_lines, None)
        for line_num, line in enumerate(body, start=header_lines + 1):
            if not quoted and line.strip("\r\n"):
                row -= 1
                if row == 0:
                    break
            quoted ^= line.count('"') % 2 == 1
    name = repr(header[column]) if column < len(header) else f"{column + 1} (past {header[-1]!r})"
    return CsvParseError(f"{path}: row {line_num}, column {name}: {what}")


@dataclass(frozen=True)
class SynthParams:
    """The generators' settings; each field owns the kind and default of the
    ``data.*`` key of its name.  A generator checks the ranges it reads."""

    n: int = 2000
    input_dim: int = 20
    classes: int = 2
    noise: float = 1.0
    sep: float = 3.0
    rank: int = 5
    tail: float = 0.0
    margin: float = 1.0
    subspace_dim: int = 0
    cluster_weight: float = 2.0
    dense_weight: float = 2.0
    feature_scale: float = 1.0


def synth_dataset(kind: str, params: SynthParams, rng: np.random.Generator) -> Dataset:
    """Generate a synthetic dataset; fully deterministic given the generator.

    Kinds, each reading the :class:`SynthParams` fields it uses:

    * ``lowrank-gradient-task``: regression features spanning a
      ``rank - 1`` dimensional subspace, with labels linear in the latent
      coordinates plus small noise, so the per-sample gradients of a
      zero-initialized linear model occupy an exact ``rank``-dimensional
      subspace (features plus the bias direction).  ``tail > 0`` adds
      isotropic feature noise, turning the gradients approximately
      low-rank instead.
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
    if kind not in _GENERATORS:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    return _GENERATORS[kind](params, rng)


def _lowrank_gradient_task(p: SynthParams, rng: np.random.Generator) -> Dataset:
    n, d, rank, tail = p.n, p.input_dim, p.rank, p.tail
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
        features += tail * rng.standard_normal((n, d))
    # labels carry a linear signal, so the mean gradient at the zero model
    # is systematic rather than an average of random signs
    weights = rng.standard_normal(rank - 1)
    labels = latent @ weights + 0.1 * rng.standard_normal(n)
    return Dataset(features, labels, name="lowrank-gradient-task")


def _gaussian_mixture(p: SynthParams, rng: np.random.Generator) -> Dataset:
    n, d, classes, sep, subspace_dim = p.n, p.input_dim, p.classes, p.sep, p.subspace_dim
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
    features = rng.standard_normal((n, d))
    features *= p.noise
    features += centers[labels]
    return Dataset(features, labels.astype(np.int64), name="gaussian-mixture")


def _split_signal(p: SynthParams, rng: np.random.Generator) -> Dataset:
    n, d, subdim = p.n, p.input_dim, p.subspace_dim
    if subdim < 1 or subdim > d:
        raise ValueError("subspace_dim must lie in [1, input_dim]")
    if p.feature_scale <= 0:
        raise ValueError("feature_scale must be positive")
    axes, _ = orthonormalize_rows(rng.standard_normal((subdim, d)))
    latent = rng.standard_normal((n, subdim))
    features = p.sep * latent @ axes
    features += rng.standard_normal((n, d))
    # label signal: one direction in the spiked subspace, one dense
    w_sub = rng.standard_normal(subdim)
    w_sub /= np.linalg.norm(w_sub)
    dense = rng.standard_normal(d)
    dense /= np.linalg.norm(dense)
    logits = p.cluster_weight * (latent @ w_sub) + p.dense_weight * (features @ dense)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    # scaling after label assignment leaves the classification problem
    # unchanged while setting the gradient magnitude against fixed
    # clipping thresholds
    features *= p.feature_scale
    return Dataset(features, labels, name="split-signal")


def _separable(p: SynthParams, rng: np.random.Generator) -> Dataset:
    n, d, margin = p.n, p.input_dim, p.margin
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


_GENERATORS = {  # in the order data.kind's error text lists them
    "gaussian-mixture": _gaussian_mixture,
    "separable": _separable,
    "lowrank-gradient-task": _lowrank_gradient_task,
    "split-signal": _split_signal,
}
SYNTH_KINDS = tuple(_GENERATORS)


def split_pool(
    full: Dataset, n_pool: int, n_eval: int
) -> tuple[Dataset, Dataset, Dataset]:
    """The public pool, eval and private splits of ``full``, in row order.

    Rows ``[0, n_pool)`` are the pool, the next ``n_eval`` the eval set and
    the rest, which may not be empty, the private set.  The splits are
    row-range views of ``full``'s one table.
    """
    if min(n_pool, n_eval) < 0 or full.n <= n_pool + n_eval:
        raise ValueError(
            f"{full.name}: cannot split {full.n} rows into {n_pool} pool, "
            f"{n_eval} eval and at least one private row"
        )
    return (
        full.subset(slice(0, n_pool)),
        full.subset(slice(n_pool, n_pool + n_eval)),
        full.subset(slice(n_pool + n_eval, full.n)),
    )
