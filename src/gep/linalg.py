"""Matrix kernels shared by the rest of the library.

All functions are pure: outputs depend only on explicit inputs, including
the random generator handed in, so every caller can reproduce results
bit-for-bit from a seed.  Matrices are plain float64 numpy arrays with one
row per sample / basis vector.

Per-sample gradients travel as :class:`FactoredGradients`: every layer's
block of a gradient row is an outer product ``delta_i (x) a_i`` of a
backpropagated error and the layer's bias-augmented input, so the kernels
work on the factors and never form the n x p gradient matrix.  A dense
matrix is the trivial case of one piece with ``a = 1`` (see
:func:`as_factors`).
"""

from __future__ import annotations

import contextlib
import math
import warnings
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RandomStream",
    "FlopCounter",
    "count_flops",
    "GradientPiece",
    "FactoredGradients",
    "as_factors",
    "AnchorCoefficients",
    "gram_path_pays",
    "orthonormalize_rows",
    "power_iteration_basis",
    "gaussian_noise",
    "DEFAULT_ORTHO_TOL",
    "GRAM_ORTHO_BOUND",
    "SPECTRAL_TOL",
]

# ~100x machine-epsilon headroom for rank decisions at desk scale.
DEFAULT_ORTHO_TOL = 1e-10
# Relative tolerance for the spectral-norm power iteration.
SPECTRAL_TOL = 1e-6
# Largest estimated orthogonality loss u ||K||_F ||C||_2^2 a basis held as
# anchor coefficients may carry; see power_iteration_basis.
GRAM_ORTHO_BOUND = 1e-13
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

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


class GradientPiece(NamedTuple):
    """One outer-product block of a batch of per-sample gradients.

    Row ``i`` of the block is ``delta[i] (x) act[i]``, the ``c x a`` outer
    product flattened row-major into the ``c * a`` columns starting at
    ``offset``.  ``act=None`` stands for ``a = 1``: the block is ``delta``
    itself (a dense matrix wrapped by :func:`as_factors`).  ``act_sq``,
    when given, holds each row's ``||act_i||^2``, computed once for an
    ``act`` that outlives the batch (a dataset's design).
    """

    offset: int
    delta: np.ndarray
    act: np.ndarray | None = None
    act_sq: np.ndarray | None = None

    @property
    def width(self) -> int:
        a = 1 if self.act is None else self.act.shape[1]
        return self.delta.shape[1] * a


class FactoredGradients:
    """An n x p matrix of per-sample gradients held as outer-product pieces.

    The pieces tile the columns ``0 .. p`` in order: one per model layer,
    or one ``a = 1`` piece for a dense matrix.  Every kernel below
    works piece by piece through these identities, where ``g_i`` is row
    ``i`` and ``M_j`` is row ``j`` of a basis restricted to a piece and
    reshaped to ``c x a``:

    * squared norms: ``||g_i||^2 = sum over pieces of ||delta_i||^2 ||a_i||^2``;
    * embedding: ``(G B^T)_ij = sum over pieces of delta_i^T M_j a_i``;
    * weighted sums: ``sum_i b_i g_i = (delta o b)^T a`` per piece;
    * back-projection: ``(W^T G)_j = sum_i W_ij delta_i (x) a_i`` per piece;
    * cross Gram against a batch ``H`` of the same pieces:
      ``G H^T = sum over pieces of (delta delta_h^T) o (a a_h^T)``.

    The embedding and the back-projection each run as one GEMM that
    contracts the larger of ``c`` and ``a``, with an ``n x k x min(c, a)``
    temporary, and count ``n * k * c * a`` multiply-adds, the same as the
    dense product.  The cross Gram costs ``n * m * (c + a)`` per piece.
    """

    def __init__(self, pieces: Sequence[GradientPiece], p: int):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("factored gradients need at least one piece")
        n = pieces[0].delta.shape[0]
        offset = 0
        for piece in pieces:
            if piece.delta.ndim != 2 or piece.delta.shape[0] != n:
                raise ValueError(f"piece delta must be {n} x c, got {piece.delta.shape}")
            if piece.act is not None and (piece.act.ndim != 2 or piece.act.shape[0] != n):
                raise ValueError(f"piece act must be {n} x a, got {piece.act.shape}")
            if piece.act_sq is not None and (piece.act is None or piece.act_sq.shape != (n,)):
                raise ValueError("piece act_sq must hold the n squared norms of its act")
            if piece.offset != offset:
                raise ValueError("pieces must tile the columns in order")
            offset += piece.width
        if offset != p:
            raise ValueError(f"pieces cover {offset} columns, expected {p}")
        self.pieces = pieces
        self.n = n
        self.p = p

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.p

    def sq_norms(self) -> np.ndarray:
        """``||g_i||^2`` for every row; ValueError unless all are finite.

        A non-finite factor entry makes its rows' norms non-finite, so this
        is the one finiteness check an entry point needs.
        """
        sq = np.zeros(self.n)
        for piece in self.pieces:
            part = np.einsum("ij,ij->i", piece.delta, piece.delta)
            if piece.act_sq is not None:
                part *= piece.act_sq
            elif piece.act is not None:
                part *= np.einsum("ij,ij->i", piece.act, piece.act)
            sq += part
        if not np.all(np.isfinite(sq)):
            for piece in self.pieces:
                for factor in (piece.delta, piece.act):
                    if factor is not None and not np.all(np.isfinite(factor)):
                        raise ValueError("per-sample gradients contain non-finite entries")
            raise ValueError("per-sample gradient row norms overflow float64")
        return sq

    def columns(self, lo: int, hi: int) -> FactoredGradients:
        """The gradients restricted to columns ``lo .. hi``.

        A cut may fall anywhere in an ``a = 1`` piece and only between
        rows of the ``c x a`` block otherwise.
        """
        out = []
        for piece in self.pieces:
            start = max(lo, piece.offset)
            stop = min(hi, piece.offset + piece.width)
            if start >= stop:
                continue
            a = 1 if piece.act is None else piece.act.shape[1]
            first, cut_lo = divmod(start - piece.offset, a)
            last, cut_hi = divmod(stop - piece.offset, a)
            if cut_lo or cut_hi:
                raise ValueError(
                    f"columns {lo}:{hi} cut through a row of the "
                    f"{piece.delta.shape[1]} x {a} gradient piece at {piece.offset}"
                )
            out.append(piece._replace(offset=start - lo, delta=piece.delta[:, first:last]))
        return FactoredGradients(out, hi - lo)

    def embed(self, basis: np.ndarray | AnchorCoefficients) -> np.ndarray:
        """``G B^T`` (n x k) for a ``k x p`` basis, dense or held as anchor
        coefficients."""
        if isinstance(basis, AnchorCoefficients):
            return basis.embed(self)
        w = None
        for piece in self.pieces:
            part = _embed_piece(piece, basis[:, piece.offset : piece.offset + piece.width])
            w = part if w is None else w + part
        return w

    def back_project(self, w: np.ndarray) -> np.ndarray:
        """``W^T G`` (k x p) for an ``n x k`` matrix ``w``."""
        out = np.empty((w.shape[1], self.p))
        for piece in self.pieces:
            out[:, piece.offset : piece.offset + piece.width] = _back_project_piece(piece, w)
        return out

    def cross_gram(self, other: FactoredGradients) -> np.ndarray:
        """``G H^T`` (n x m) against a batch ``H`` of the same columns.

        When the two batches have pieces of the same shapes, each piece
        adds ``(delta delta_h^T) o (a a_h^T)``.  Otherwise ``H`` is
        materialized and embedded.
        """
        if other.p != self.p:
            raise ValueError(f"cross Gram of {self.p} and {other.p} columns")
        if _piece_shapes(self) != _piece_shapes(other):
            return self.embed(other.dense())
        out = None
        for mine, theirs in zip(self.pieces, other.pieces):
            part = _matmul(mine.delta, theirs.delta.T)
            if mine.act is not None:
                acts = _matmul(mine.act, theirs.act.T)
                acts *= part
                part = acts
            # accumulate in place, into an act product or a copy
            if out is None:
                out = part if mine.act is not None else part.copy()
            else:
                out += part
        return out

    def weighted_sum(self, weights: np.ndarray | None = None) -> np.ndarray:
        """``sum_i weights_i g_i``; with no weights the plain column sum.

        The plain sum of an ``a = 1`` piece is bitwise ``delta.sum(axis=0)``,
        so a wrapped dense matrix sums exactly as ``G.sum(axis=0)``.
        """
        out = np.empty(self.p)
        for piece in self.pieces:
            cols = slice(piece.offset, piece.offset + piece.width)
            if piece.act is None:
                out[cols] = piece.delta.sum(axis=0) if weights is None else weights @ piece.delta
            else:
                delta = piece.delta if weights is None else piece.delta * weights[:, None]
                out[cols] = (delta.T @ piece.act).ravel()
        return out

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The gradient matrix, or only the given rows of it."""
        pick = slice(None) if rows is None else rows
        count = self.n if rows is None else len(rows)
        out = np.empty((count, self.p))
        for piece in self.pieces:
            block = out[:, piece.offset : piece.offset + piece.width]
            delta = piece.delta[pick]
            if piece.act is None:
                block[...] = delta
            else:
                act = piece.act[pick]
                shape = (count, delta.shape[1], act.shape[1])
                np.multiply(delta[:, :, None], act[:, None, :], out=block.reshape(shape))
        return out


def _piece_shapes(g: FactoredGradients) -> list[tuple[int, int, int | None]]:
    return [
        (x.offset, x.delta.shape[1], None if x.act is None else x.act.shape[1])
        for x in g.pieces
    ]


def _embed_piece(piece: GradientPiece, basis: np.ndarray) -> np.ndarray:
    # w_ij = delta_i^T M_j a_i: one GEMM contracting the larger side, then a
    # row-wise reduction over the smaller one.
    delta, act = piece.delta, piece.act
    if act is None:
        return _matmul(delta, basis.T)
    n, c = delta.shape
    a = act.shape[1]
    k = basis.shape[0]
    m = basis.reshape(k, c, a)
    if a >= c:
        # a contiguous right operand: OpenBLAS runs a skinny transposed one slowly
        t = _matmul(act, np.ascontiguousarray(m.reshape(k * c, a).T))
        return np.einsum("nkc,nc->nk", t.reshape(n, k, c), delta)
    t = _matmul(delta, m.transpose(1, 0, 2).reshape(c, k * a))
    return np.einsum("nka,na->nk", t.reshape(n, k, a), act)


def _back_project_piece(piece: GradientPiece, w: np.ndarray) -> np.ndarray:
    # (W^T G)_j = sum_i w_ij delta_i (x) a_i: scale the smaller factor by w,
    # then one GEMM against the larger.
    delta, act = piece.delta, piece.act
    if act is None:
        return _matmul(w.T, delta)
    n, c = delta.shape
    a = act.shape[1]
    k = w.shape[1]
    if a >= c:
        u = (w[:, :, None] * delta[:, None, :]).reshape(n, k * c)
        return _matmul(u.T, act).reshape(k, c * a)
    v = (w[:, :, None] * act[:, None, :]).reshape(n, k * a)
    out = _matmul(delta.T, v).reshape(c, k, a)
    return out.transpose(1, 0, 2).reshape(k, c * a)


def as_factors(g: np.ndarray | FactoredGradients) -> FactoredGradients:
    """Factored gradients as given, or a dense matrix through the trivial
    wrap: one piece with ``a = 1``."""
    if isinstance(g, FactoredGradients):
        return g
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"per-sample gradients must form a matrix, got shape {g.shape}")
    return FactoredGradients((GradientPiece(0, g),), g.shape[1])


class AnchorCoefficients:
    """A ``k x p`` basis block held as ``B = C G_a``, never formed.

    ``coef`` (``C``, ``k x m``) weights the ``m`` anchor gradients
    ``anchors`` (``G_a``, factored), so every product goes through them:

    * ``B v = C (G_a v)`` and ``y B = (y C) G_a``, at ``m * p`` multiply-adds
      plus ``k * m`` per vector; ``@`` works on either side as it does with
      a dense block;
    * the embedding of a batch ``G B^T = (G G_a^T) C^T`` through
      :meth:`FactoredGradients.cross_gram`, at ``n * m * (c + a)`` per piece
      plus ``n * m * k`` instead of ``n * k * c * a``.
    """

    # ``ndarray @ block`` defers to __rmatmul__ instead of converting block
    __array_ufunc__ = None

    def __init__(self, coef: np.ndarray, anchors: FactoredGradients):
        self.coef = coef
        self.anchors = anchors

    @property
    def shape(self) -> tuple[int, int]:
        return self.coef.shape[0], self.anchors.p

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``B v`` for one p-vector."""
        return _matmul(self.coef, self.anchors.embed(v[None, :])[:, 0])

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        """``y B`` for one k-vector or a matrix of k-vector rows."""
        u = _matmul(np.atleast_2d(y), self.coef)
        out = self.anchors.back_project(u.T)
        return out[0] if y.ndim == 1 else out

    def embed(self, g: FactoredGradients) -> np.ndarray:
        """``G B^T`` (n x k) for a batch ``G`` of the anchors' columns."""
        return _matmul(g.cross_gram(self.anchors), self.coef.T)


def orthonormalize_rows(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormalize the rows of ``m``, dropping linearly dependent ones.

    Classical Gram-Schmidt with a second re-orthogonalization pass (CGS2),
    which keeps pairwise inner products at machine precision.  A row whose
    component orthogonal to the previously accepted rows has norm at most
    :data:`DEFAULT_ORTHO_TOL` times the row's own norm is dropped.  The
    test is relative at every scale: a zero row is dropped, and an
    independent row is kept however small.  Returns the orthonormal matrix
    and the number of surviving rows.  A row with a non-finite norm raises
    ValueError.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"m must be 2-dimensional, got shape {m.shape}")
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        return np.zeros((0, n_cols)), 0

    # accepted rows fill q from the top; CGS2 runs against the prefix
    q = np.empty((n_rows, n_cols))
    count = 0
    for i in range(n_rows):
        v = m[i]
        scale = _norm(v)
        if not math.isfinite(scale):
            raise ValueError(f"row {i} of m is not finite or its norm overflows")
        for _ in range(2):
            if count:
                coeffs = _matmul(q[:count], v)
                v = v - _matmul(q[:count].T, coeffs)
        norm = _norm(v)
        if not norm > DEFAULT_ORTHO_TOL * scale:
            continue
        _macs(n_cols)
        q[count] = v / norm
        count += 1
    return q[:count], count


def _norm(v: np.ndarray) -> float:
    # bitwise np.linalg.norm(v)
    _macs(2 * v.size)
    return math.sqrt(v @ v)


def gram_path_pays(g_a: FactoredGradients, k: int) -> bool:
    """Whether a ``k``-row basis of these anchors is cheaper as coefficients.

    The shape rule ``m (sum(c + a) + k) < k sum(c a)`` over the pieces
    compares the Gram embedding of one row against the dense one: the
    cross Gram plus ``C^T`` against ``k`` dense columns per piece.
    """
    widths = sum(
        piece.delta.shape[1] + (1 if piece.act is None else piece.act.shape[1])
        for piece in g_a.pieces
    )
    return g_a.n * (widths + k) < k * g_a.p


def _power_start(
    g_a: FactoredGradients, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    # The first product W_0 = G_a B_0^T of a Gaussian k x p start B_0, and
    # the anchor Gram K when the Gram path pays (else None).  The columns of
    # G_a B_0^T are i.i.d. N(0, K), so there W_0 = L Z instead, with
    # L L^T = K + delta I and Z an m x k Gaussian, and neither B_0 nor a
    # p-sized product is formed.  The jitter delta = m u tr(K) lets the
    # Cholesky factor an exactly singular K; it is added to the diagonal of
    # one copy, since the rounds need K itself.
    if not gram_path_pays(g_a, k):
        return g_a.embed(rng.standard_normal((k, g_a.p))), None
    gram = g_a.cross_gram(g_a)
    m = g_a.n
    jittered = gram.copy()
    jittered.flat[:: m + 1] += m * _UNIT_ROUNDOFF * np.trace(gram)
    factor = np.linalg.cholesky(jittered)
    return _matmul(factor, rng.standard_normal((m, k))), gram


def _gram_power_rounds(
    g_a: FactoredGradients, gram: np.ndarray, w: np.ndarray, t: int
) -> AnchorCoefficients | None:
    # Subspace iteration with the basis held as C: after W = G_a B^T, the
    # next basis W^T G_a has coefficients W^T, and each later W is K C^T.
    # Each round orthonormalizes C under <u, v> = u K v^T by Cholesky QR
    # twice: S = (C K) C^T = L L^T, then C <- L^-1 C.  None when a LAPACK
    # call fails (S does not factor) or the orthogonality loss estimate is
    # not within the bound; an overflow that leaves NaN does either.
    loss_per_coef = _UNIT_ROUNDOFF * float(np.linalg.norm(gram))
    coef = w.T
    for round_ in range(t):
        if round_:
            coef = _matmul(coef, gram)
        try:
            for _ in range(2):
                factor = np.linalg.cholesky(_matmul(_matmul(coef, gram), coef.T))
                coef = _matmul(np.linalg.inv(factor), coef)
            loss = loss_per_coef * np.linalg.norm(coef, 2) ** 2
        except np.linalg.LinAlgError:
            return None
        if not loss <= GRAM_ORTHO_BOUND:
            return None
    return AnchorCoefficients(coef, g_a)


def _dense_power_rounds(g_a: FactoredGradients, w: np.ndarray, t: int) -> np.ndarray:
    # Subspace iteration on the dense k x p basis, from W_0 = w.
    for round_ in range(t):
        if round_:
            w = g_a.embed(basis)
        basis, rank = orthonormalize_rows(g_a.back_project(w))
        if rank == 0:
            break
    return basis


def power_iteration_basis(
    g_a: np.ndarray | FactoredGradients,
    k: int,
    t: int,
    rng: np.random.Generator,
) -> np.ndarray | AnchorCoefficients:
    """Estimate an orthonormal basis of the top-``k`` right singular subspace.

    Runs ``t`` rounds of subspace iteration on ``g_a`` (rows are samples,
    factored or dense): starting from a Gaussian ``k x p`` matrix ``b``,
    repeat ``b <- (g_a b^T)^T g_a`` followed by row orthonormalization.
    Rows that collapse during orthonormalization are dropped, so the
    returned basis may have fewer than ``k`` rows when ``g_a`` is rank
    deficient.  The input is validated once, from its row norms.

    For factored anchors that pass :func:`gram_path_pays` (a dense matrix
    never does), nothing p-sized is drawn or multiplied.  The anchor Gram
    ``K = g_a g_a^T`` is built once, and the first product
    ``W_0 = g_a b^T``, whose columns are i.i.d. ``N(0, K)``, is drawn as
    ``L z`` with ``z`` an ``m x k`` Gaussian and ``L`` the Cholesky factor
    of ``K + m u tr(K) I`` (``u`` the unit roundoff): a start of about
    ``m^2 sum(c + a) + m^3 / 3 + m^2 k`` operations instead of ``k p``
    draws plus ``k m p``.  The rounds then run on the ``k x m``
    coefficients ``C`` over the anchors, orthonormalized under
    ``<u, v> = u K v^T`` by Cholesky QR twice (``S = C K C^T = L L^T``,
    ``C <- L^-1 C``), and the basis comes back as
    :class:`AnchorCoefficients`.  Rounding makes its rows orthonormal to
    about ``u ||K||_F ||C||_2^2``; when a Cholesky factorization fails or
    that estimate is not within :data:`GRAM_ORTHO_BOUND`, the rounds rerun
    on the dense basis, with CGS2, from the same ``W_0``.  A Gram round is
    six products whatever ``k``, where CGS2 makes about four GEMVs per row.
    A fixed seed gives another basis on the Gram path than the dense
    rounds would, from a start of the same law up to the jitter.

    ``k`` larger than ``min(m, p)`` is clamped with a warning, the one
    basis-size clamp: :func:`gep.release.build_anchor_basis` warns once
    per clamped group through it.  An all-zero input yields an empty basis.
    """
    g_a = as_factors(g_a)
    sq = g_a.sq_norms()
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
    if k == 0 or not np.any(sq):
        return np.zeros((0, p))

    w, gram = _power_start(g_a, k, rng)
    if gram is not None:
        held = _gram_power_rounds(g_a, gram, w, t)
        if held is not None:
            return held
    return _dense_power_rounds(g_a, w, t)


def _top_eigenvalue(
    matvec: Callable[[np.ndarray], np.ndarray], dim: int, rtol: float, max_iter: int = 20000
) -> float:
    """Top eigenvalue of a PSD operator by power iteration from a fixed-seed
    start vector, so the result is a deterministic function of the input
    alone (:func:`gep.release.stable_rank` runs it on ``u -> G P G^T u``)."""
    rng = np.random.default_rng(0x5EEDED)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    eig = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        new = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # Start vector sits in the null space; perturb and continue.
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        if abs(new - eig) <= rtol * abs(new):
            return new
        eig = new
    return eig


def gaussian_noise(
    shape: int | tuple[int, ...], sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. centered Gaussian noise with standard deviation ``sigma``."""
    if not sigma >= 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return sigma * rng.standard_normal(shape)
