"""Dense matrix kernels shared by the rest of the library.

All functions are pure: outputs depend only on explicit inputs, including
the random generator handed in, so every caller can reproduce results
bit-for-bit from a seed.  Matrices are plain float64 numpy arrays with one
row per sample / basis vector.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Iterator

import numpy as np

__all__ = [
    "RandomStream",
    "FlopCounter",
    "count_flops",
    "orthonormalize_rows",
    "power_iteration_basis",
    "project_split",
    "clip_rows",
    "row_norms",
    "stable_rank",
    "gaussian_noise",
    "DEFAULT_ORTHO_TOL",
    "SPECTRAL_TOL",
]

# ~100x machine-epsilon headroom for rank decisions at desk scale.
DEFAULT_ORTHO_TOL = 1e-10
# Relative tolerance for the spectral-norm power iteration.
SPECTRAL_TOL = 1e-6

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Factory of independent, reproducible random substreams.

    A substream is addressed by a tuple of integer labels, typically
    ``(step, purpose)``.  The same ``(seed, labels)`` pair always yields a
    generator producing identical draws, regardless of how many other
    substreams were used in between.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    def generator(self, *labels: int) -> np.random.Generator:
        entropy = (self.seed,) + tuple(int(x) & _MASK64 for x in labels)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"


class FlopCounter:
    """Accumulates floating-point multiply-add counts reported by kernels."""

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


_active_counter: FlopCounter | None = None


@contextlib.contextmanager
def count_flops() -> Iterator[FlopCounter]:
    """Instrument the kernels in this module with a multiply-add counter.

    Only dense products (matmul, dot, axpy, row scaling) are counted; this
    is a cost model instrument, not a profiler.
    """
    global _active_counter
    previous = _active_counter
    counter = FlopCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = previous


def _macs(n: int) -> None:
    if _active_counter is not None:
        _active_counter.add(n)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (r x s) @ (s x t): r*s*t multiply-adds
    t = b.shape[1] if b.ndim == 2 else 1
    _macs(a.shape[0] * a.shape[1] * t)
    return a @ b


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


def orthonormalize_rows(
    m: np.ndarray, tol: float = DEFAULT_ORTHO_TOL
) -> tuple[np.ndarray, int]:
    """Orthonormalize the rows of ``m``, dropping linearly dependent ones.

    Classical Gram-Schmidt with a second re-orthogonalization pass (CGS2),
    which keeps pairwise inner products at machine precision.  A row whose
    component orthogonal to the previously accepted rows has norm below
    ``tol`` (scaled by the row's own norm when that exceeds one) is
    dropped.  Returns the orthonormal matrix and the number of surviving
    rows.
    """
    m = _as_matrix(m, "m")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        return np.zeros((0, n_cols)), 0

    accepted: list[np.ndarray] = []
    for i in range(n_rows):
        v = m[i].copy()
        _macs(2 * n_cols)
        scale = float(np.linalg.norm(v))
        for _ in range(2):
            if accepted:
                q = np.array(accepted)
                coeffs = _matmul(q, v)
                v = v - _matmul(q.T, coeffs)
        _macs(2 * n_cols)
        norm = float(np.linalg.norm(v))
        if norm < tol * max(1.0, scale):
            continue
        _macs(n_cols)
        accepted.append(v / norm)

    if not accepted:
        return np.zeros((0, n_cols)), 0
    return np.array(accepted), len(accepted)


def power_iteration_basis(
    g_a: np.ndarray,
    k: int,
    t: int,
    rng: np.random.Generator,
    tol: float = DEFAULT_ORTHO_TOL,
) -> np.ndarray:
    """Estimate an orthonormal basis of the top-``k`` right singular subspace.

    Runs ``t`` rounds of subspace iteration on ``g_a`` (rows are samples):
    starting from a Gaussian ``k x p`` matrix ``b``, repeat
    ``b <- (g_a b^T)^T g_a`` followed by row orthonormalization.  Rows that
    collapse during orthonormalization are dropped, so the returned basis
    may have fewer than ``k`` rows when ``g_a`` is rank deficient.

    ``k`` larger than ``min(m, p)`` is clamped with a warning; an all-zero
    input yields an empty basis.
    """
    g_a = _as_matrix(g_a, "g_a")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    m, p = g_a.shape
    k_max = min(m, p)
    if k > k_max:
        warnings.warn(
            f"requested basis size k={k} exceeds min(m, p)={k_max}; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        k = k_max
    if k == 0 or not np.any(g_a):
        return np.zeros((0, p))

    basis = rng.standard_normal((k, p))
    for _ in range(t):
        a = _matmul(g_a, basis.T)
        basis = _matmul(a.T, g_a)
        basis, rank = orthonormalize_rows(basis, tol)
        if rank == 0:
            break
    return basis


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
    w = _matmul(g, basis.T)
    r = g - _matmul(w, basis)
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
    _macs(m.shape[0] * m.shape[1])
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


def gaussian_noise(
    shape: int | tuple[int, ...], sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. centered Gaussian noise with standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return sigma * rng.standard_normal(shape)
