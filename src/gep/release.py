"""Private gradient releases built on anchor-subspace embeddings.

One release turns a batch of per-sample gradients ``G`` (n x p) into a
single private estimate of the batch gradient:

1. project each gradient onto an orthonormal basis ``B`` estimated from
   non-sensitive anchor gradients, giving a low-dimensional embedding
   ``w_i = B g_i`` and a (typically small-norm) residual
   ``r_i = g_i - B^T w_i``;
2. clip embedding rows at one threshold and residual rows at another,
   which fixes the sensitivity of their sums;
3. perturb the two sums with Gaussian noise and recombine.

Releasing both parts keeps the estimate unbiased (up to clipping); the
``bgep`` variant drops the residual and trades a systematic error for less
noise, and ``gp`` is the classic full-dimensional baseline, the residual
release of an empty basis.  :data:`METHODS` says, for every training
method, which basis it builds and which sums it releases.
:func:`release_gradient` is the one entry point: it validates the
thresholds and the multiplier, reads the method's entry, and runs the
one kernel, ``_release``.

Noise convention: ``sigma`` is the unit-sensitivity multiplier of one
step, the one the accountant composes; :func:`gep.accounting.noise_stds`
turns it into each released sum's noise std.

The kernel takes the gradients in factored form
(:class:`gep.linalg.FactoredGradients`): each block of ``g_i`` is an
outer product ``delta_i (x) a_i``, and a dense matrix enters as the
trivial wrap with ``a = 1``.  It never forms an n x p matrix.  Row norms
come from ``||delta_i||^2 ||a_i||^2``, weighted sums from
``(delta o b)^T a``, and per parameter group it builds only the n x k
embedding ``W = G B^T``, as one GEMM per piece that contracts the larger
of ``delta``'s and ``a``'s widths and then reduces over the smaller.  The
rest follows from three identities that hold because ``B`` has
orthonormal rows, with ``P v = v - B^T (B v)`` the projection of a single
p-vector off the basis:

* residual norms by Pythagoras: ``||r_i||^2 = ||g_i||^2 - ||w_i||^2``;
* the clipped residual sum: ``sum_i b_i r_i = P(G^T b)``, where ``b``
  holds the residual clip scales;
* the projection-error diagnostic: ``sum_i r_i = P(G^T 1)``.

Cancellation guard: the difference ``||g_i||^2 - ||w_i||^2`` carries an
error of a few ulps of ``||g_i||^2``, and ``P(G^T b)`` one of a few ulps
of ``b_i ||g_i||``, both large next to ``||r_i||`` when the residual is
small.  Rows whose Pythagorean residual keeps less than
``RESIDUAL_GUARD`` of ``||g_i||^2`` (residual below 10 % of the gradient
norm) therefore have their gradient rows materialized and their residuals
recomputed explicitly, in chunks of bounded size, and their clipped
residuals summed directly.  Every other row's residual norm is then
accurate to about ``10 * eps / RESIDUAL_GUARD`` (2e-13) relative, and its
share of the rounding in ``P(G^T b)`` is at most
``1 / sqrt(RESIDUAL_GUARD)`` = 10 ulps of ``s2``, so the ``s2``
sensitivity bound holds to rounding.  The ``track_spectra`` diagnostic
:func:`stable_rank` takes ``||R||_F^2`` from the same residual norms.

Gram path: every power-iteration row lies in the span of the group's
``m`` anchor gradients, so a wide group keeps its basis as coefficients,
``B = C G_a`` with ``C`` of size ``k x m``
(:class:`gep.linalg.AnchorCoefficients`).  A ``"power"`` group takes this
path when its pieces satisfy ``m (sum(c + a) + k) < k sum(c a)``
(:func:`gep.linalg.gram_path_pays`), a rule on shapes alone.  Its basis
starts from the anchor Gram ``K = sum over pieces (D_a D_a^T) o (A_a A_a^T)``:
the first product ``W_0 = G_a B_0^T`` of the dense rounds has i.i.d.
``N(0, K)`` columns, so it is drawn as ``W_0 = L Z`` with ``L`` the
Cholesky factor of ``K`` plus a jitter of ``m u tr(K)`` on its diagonal
and ``Z`` an ``m x k`` Gaussian, and no ``k x p`` start is drawn.  The
rows of ``C = W_0^T`` are orthonormalized under ``<u, v> = u K v^T`` by
Cholesky QR twice, ``S = (C K) C^T = L L^T`` and ``C <- L^-1 C``, and each
later round sets ``C <- C K`` and orthonormalizes again.  The products the
release needs become:

* embedding: ``W = G B^T = (sum over pieces (D D_a^T) o (A A_a^T)) C^T``, at
  ``n m (c + a)`` per piece plus ``n m k`` instead of ``n k c a``;
* ``B v = C (G_a v)`` and ``y B = (y C) G_a``, at ``m c a`` per piece, for
  the residual sum ``P(G^T b)``, the projection error, the reconstruction
  of ``w_tilde`` and the guarded rows.

Rounding leaves the materialized rows orthonormal to about
``u ||K||_F ||C||_2^2`` (``u`` the unit roundoff).  A group whose ``S``
does not factor, or whose estimate is not within ``GRAM_ORTHO_BOUND``
(1e-13), reruns the dense rounds, with CGS2, from the same ``W_0``, so
near rank-deficient anchors stay dense.  On a Gram group the guard
statement above carries that loss: with ``kappa = ||C||_2 ||K||_F^(1/2)``
(at most about 30 under the bound) and ``eps_o`` the orthogonality loss,
a row outside the guard has ``||r_i||^2`` accurate to about
``(2 kappa u + eps_o) / RESIDUAL_GUARD`` relative, and its share of the
rounding in ``P(G^T b)`` is about ``(kappa u + eps_o) / sqrt(RESIDUAL_GUARD)``
of ``s2``.  At the bound that is about 1e-11 relative, where a dense
group has 2e-13.  On the ``mlp-wide`` benchmark's first layer, at the
first step of training seeds 0-9, the estimate is 5.6-7.2e-15 and
``kappa`` 7.1-8.1, which keeps the ``s2`` bound within 1e-12 relative, as
on dense groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import noise_stds
from .linalg import (
    SPECTRAL_TOL,
    AnchorCoefficients,
    FactoredGradients,
    _top_eigenvalue,
    as_factors,
    gaussian_noise,
    orthonormalize_rows,
    power_iteration_basis,
)
from .models import GroupLayout, group_layout

__all__ = [
    "METHODS",
    "Method",
    "GepConfig",
    "AnchorBasis",
    "PrivateRelease",
    "single_group_layout",
    "build_anchor_basis",
    "release_gradient",
    "projection_error_rate",
    "stable_rank",
]

# Rows with ||r||^2 < RESIDUAL_GUARD * ||g||^2 get explicit residuals; see
# the module docstring.
RESIDUAL_GUARD = 1e-2
# Explicit residuals are built this many matrix entries (1 MiB) at a time.
_CHUNK_ELEMENTS = 1 << 17

# A basis block as a group holds it: dense, or as anchor coefficients.
_Block = np.ndarray | AnchorCoefficients


@dataclass(frozen=True)
class Method:
    """How a training method releases one step's gradient.

    ``basis`` is the anchor basis it builds, ``"power"`` or ``"random"``,
    or None for no basis, in which case every row is all residual and is
    clipped at ``s1``.  ``residual`` says whether the residual sum is
    released; with a basis the embedding sum always is.
    """

    basis: str | None
    residual: bool


METHODS: dict[str, Method] = {
    "gep": Method("power", residual=True),
    "bgep": Method("power", residual=False),
    "gp": Method(None, residual=True),
    "random-basis-gep": Method("random", residual=True),
}

# The bases the methods build, in table order: ("power", "random").
BASIS_MODES = tuple(dict.fromkeys(m.basis for m in METHODS.values() if m.basis))


@dataclass(frozen=True)
class GepConfig:
    """Anchor-subspace release configuration.

    ``k`` basis directions are estimated from ``m`` anchor gradients with
    ``t`` rounds of power iteration; embedding rows are clipped at ``s1``
    and residual rows at ``s2``.  The noise multiplier is not part of it:
    it is calibrated per run and passed to :func:`release_gradient`.
    """

    k: int
    m: int
    t: int = 1
    s1: float = 10.0
    s2: float = 2.0

    def __post_init__(self) -> None:
        if not self.k >= 1:
            raise ValueError("k must be >= 1")
        if not self.m >= 1:
            raise ValueError("m must be >= 1")
        if not self.t >= 1:
            raise ValueError("t must be >= 1")
        if not (self.s1 > 0 and self.s2 > 0):
            raise ValueError("clipping thresholds must be positive")


@dataclass(frozen=True, eq=False)
class PrivateRelease:
    """A perturbed gradient estimate plus the diagnostics that produced it.

    ``projection_error_rate`` and the clip fractions are computed from the
    raw gradients before noise; they are experiment diagnostics and are
    NOT covered by the privacy guarantee of ``v_tilde``.
    """

    v_tilde: np.ndarray
    w_tilde: np.ndarray | None
    r_tilde: np.ndarray | None
    k_effective: int
    clip_fraction_s1: float
    clip_fraction_s2: float
    projection_error_rate: float
    sums: tuple[tuple[float, float], ...]  # (threshold, noise std) per sum perturbed


class AnchorBasis:
    """Per-group orthonormal bases over a partitioned parameter vector.

    Each parameter group carries its own basis block, so the embedding is
    block-diagonal: coordinates of one group never mix into another
    group's embedding.  ``held`` keeps each block in the one form it was
    built in: a dense array, or :class:`AnchorCoefficients` for a group on
    the Gram path.  The release reaches either form through its products
    alone and never materializes a held block.
    """

    def __init__(self, layout: GroupLayout, blocks: list[_Block]):
        if len(blocks) != len(layout.groups):
            raise ValueError("need exactly one basis block per group")
        for group, block in zip(layout.groups, blocks):
            if len(block.shape) != 2 or block.shape[1] != group.length:
                raise ValueError(
                    f"basis block for group {group.name!r} has shape "
                    f"{block.shape}, expected (*, {group.length})"
                )
        self.layout = layout
        self.held = [
            b if isinstance(b, AnchorCoefficients) else np.asarray(b, dtype=np.float64)
            for b in blocks
        ]

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def k_effective(self) -> int:
        return sum(b.shape[0] for b in self.held)


def single_group_layout(p: int, k: int) -> GroupLayout:
    """Layout treating the whole parameter vector as one group, ``"all"``."""
    return group_layout([("all", p)], k)


def build_anchor_basis(
    anchor_grads: np.ndarray | FactoredGradients,
    layout: GroupLayout,
    cfg: GepConfig,
    rng: np.random.Generator,
    basis_mode: str = "power",
) -> AnchorBasis:
    """Estimate one orthonormal basis per parameter group.

    With ``basis_mode="power"`` each group runs ``cfg.t`` rounds of power
    iteration on its columns of the anchor gradients (factored, or a dense
    ``m x p`` matrix); with ``"random"`` the blocks are orthonormalized
    Gaussian draws (the random-projection baseline).  A power group whose
    shapes pass :func:`gep.linalg.gram_path_pays` is held as coefficients
    over its anchor gradients (the Gram path of the module docstring) and
    keeps a reference to them; other blocks do not need the anchors after
    this call.  A power quota above ``min(m, length)`` is clamped, with a
    warning, by :func:`gep.linalg.power_iteration_basis` alone.
    """
    if basis_mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {basis_mode!r}")
    anchor_grads = as_factors(anchor_grads)
    if anchor_grads.p != layout.dim:
        raise ValueError(
            f"anchor gradients have shape {anchor_grads.shape}, expected "
            f"(m, {layout.dim})"
        )
    blocks = []
    for group in layout.groups:
        if basis_mode == "power":
            block = power_iteration_basis(
                anchor_grads.columns(group.offset, group.offset + group.length),
                group.k_alloc,
                cfg.t,
                rng,
            )
        else:
            block, _ = orthonormalize_rows(rng.standard_normal((group.k_alloc, group.length)))
        blocks.append(block)
    return AnchorBasis(layout, blocks)


def _clip_scales(
    sq_norms: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scales that clip rows of these squared norms, and the clipped-row mask."""
    norms = np.sqrt(sq_norms)
    over = norms > threshold
    scales = np.ones_like(norms)
    scales[over] = threshold / norms[over]
    return scales, over


def _project_out(blocks: list[tuple[slice, _Block]], v: np.ndarray) -> np.ndarray:
    """``v`` minus its projection onto every basis block (one p-vector)."""
    if not blocks:
        return v
    out = v.copy()
    for cols, block in blocks:
        out[cols] -= (block @ v[cols]) @ block
    return out


def _error_rate(blocks: list[tuple[slice, _Block]], g_sum: np.ndarray) -> float:
    g_norm = float(np.linalg.norm(g_sum))
    if g_norm == 0.0:
        return math.nan
    return float(np.linalg.norm(_project_out(blocks, g_sum))) / g_norm


def _active_blocks(basis: AnchorBasis) -> list[tuple[slice, _Block]]:
    return [
        (slice(group.offset, group.offset + group.length), block)
        for group, block in zip(basis.layout.groups, basis.held)
        if block.shape[0]
    ]


def _embeddings(
    g: FactoredGradients, blocks: list[tuple[slice, _Block]]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each block's embedding ``W = G B^T`` and the rows' ``||w_i||^2``."""
    w_parts = [g.columns(cols.start, cols.stop).embed(block) for cols, block in blocks]
    sq_w = np.zeros(g.n)
    for w in w_parts:
        sq_w += np.einsum("ij,ij->i", w, w)
    return w_parts, sq_w


def _residual_sq_norms(
    g: FactoredGradients,
    blocks: list[tuple[slice, _Block]],
    w_parts: list[np.ndarray],
    sq: np.ndarray,
    sq_w: np.ndarray,
    threshold: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual squared norms ``||r_i||^2``, the guarded rows, and the sum
    of the guarded rows' residuals clipped at ``threshold``.

    Pythagoras gives every row's norm; rows that keep less than
    ``RESIDUAL_GUARD`` of ``||g_i||^2`` are the guarded rows, whose
    residuals are recomputed explicitly in chunks of bounded size (see the
    module docstring).  With ``threshold`` None the sum stays zero.
    """
    sq_r = np.maximum(sq - sq_w, 0.0)
    explicit = np.flatnonzero(sq_r < RESIDUAL_GUARD * sq)
    explicit_sum = np.zeros(g.p)
    chunk = max(1, _CHUNK_ELEMENTS // g.p)
    for start in range(0, len(explicit), chunk):
        rows = explicit[start : start + chunk]
        r = g.dense(rows)
        for (cols, block), w in zip(blocks, w_parts):
            r[:, cols] -= w[rows] @ block
        sq_r[rows] = np.einsum("ij,ij->i", r, r)
        if threshold is not None:
            explicit_sum += _clip_scales(sq_r[rows], threshold)[0] @ r
    return sq_r, explicit, explicit_sum


def _perturb(
    total: np.ndarray, std: float, rng: np.random.Generator | None
) -> np.ndarray:
    if std == 0.0:
        return total
    return total + gaussian_noise(total.shape, std, rng)


def _release(
    g: FactoredGradients,
    basis: AnchorBasis | None,
    embedding: tuple[float, float] | None,
    residual: tuple[float, float] | None,
    rng: np.random.Generator | None,
) -> PrivateRelease:
    """The one release mechanism behind gep, bgep and gp.

    ``embedding`` and ``residual`` give ``(threshold, noise std)`` for each
    released part, or None for a part left out.  The released parts' clip
    fractions are recorded in part order, as ``clip_fraction_s1`` and then
    ``clip_fraction_s2``, and one not released is NaN.  ``basis=None``
    means no basis: every row is all residual and no projection diagnostic
    is computed.  Noise is drawn from ``rng`` for the embedding, then for the
    residual; a part with noise std 0 draws none.  See the module docstring
    for the factored identities and the cancellation guard.
    """
    n, p = g.shape
    if n == 0:
        raise ValueError("cannot release an empty batch")
    if basis is not None and p != basis.dim:
        raise ValueError(f"gradients have {p} columns, basis spans {basis.dim}")
    sq = g.sq_norms()

    blocks = [] if basis is None else _active_blocks(basis)
    w_parts, sq_w = _embeddings(g, blocks)

    clips: list[float] = []  # each released part's clip fraction, in part order
    w_tilde = None
    if embedding is not None:
        s1, std1 = embedding
        b1, over1 = _clip_scales(sq_w, s1)
        w_sum = np.concatenate([b1 @ w for w in w_parts]) if w_parts else np.zeros(0)
        w_tilde = _perturb(w_sum, std1, rng)
        clips.append(float(np.mean(over1)))

    r_tilde = None
    g_sum = None
    if residual is not None:
        s2, std2 = residual
        sq_r, explicit, explicit_sum = _residual_sq_norms(g, blocks, w_parts, sq, sq_w, s2)
        b2, over2 = _clip_scales(sq_r, s2)
        clips.append(float(np.mean(over2)))
        if len(explicit) == 0 and not over2.any():
            # every weight is one: the plain column sum
            g_sum = g.weighted_sum()
            weighted = g_sum
        else:
            b2[explicit] = 0.0
            weighted = g.weighted_sum(b2)
        r_sum = _project_out(blocks, weighted)
        if len(explicit):
            r_sum = r_sum + explicit_sum
        r_tilde = _perturb(r_sum, std2, rng)

    error_rate = math.nan
    if basis is not None:
        error_rate = _error_rate(blocks, g.weighted_sum() if g_sum is None else g_sum)

    v_tilde = np.zeros(p)
    if w_tilde is not None:
        offset = 0
        for cols, block in blocks:
            k_g = block.shape[0]
            v_tilde[cols] = w_tilde[offset : offset + k_g] @ block
            offset += k_g
    if r_tilde is not None:
        v_tilde += r_tilde
    v_tilde /= n

    clip_s1, clip_s2 = (clips + [math.nan, math.nan])[:2]
    return PrivateRelease(
        v_tilde=v_tilde,
        w_tilde=w_tilde,
        r_tilde=r_tilde,
        k_effective=0 if basis is None else basis.k_effective,
        clip_fraction_s1=clip_s1,
        clip_fraction_s2=clip_s2,
        projection_error_rate=error_rate,
        sums=tuple(part for part in (embedding, residual) if part is not None),
    )


def release_gradient(
    method: str,
    g: np.ndarray | FactoredGradients,
    basis: AnchorBasis | None,
    s1: float,
    s2: float,
    sigma: float,
    rng: np.random.Generator | None,
) -> PrivateRelease:
    """Release one step's gradient estimate the way ``method`` does.

    ``g`` holds the per-sample gradients, factored or as a dense ``n x p``
    matrix.  ``basis`` is the one :data:`METHODS` asks ``method`` to build
    (None for ``gp``).  Embedding rows are clipped at ``s1`` and residual
    rows at ``s2`` (the residual is taken against the unclipped
    embedding), and, when there is no basis, whole rows at ``s1``; that
    clip fraction is reported as ``clip_fraction_s1``.  The released sums
    get the noise stds :func:`gep.accounting.noise_stds` gives, drawn from
    ``rng``, which may be None only when ``sigma`` is 0.  The estimate is
    ``v_tilde = (w_tilde B + r_tilde) / n``, with ``w_tilde B`` mapped back
    group by group; ``bgep`` leaves ``r_tilde`` out, so it converges to the
    batch gradient minus the mean residual.
    """
    spec = METHODS[method]
    if (basis is None) != (spec.basis is None):
        expected = f"a {spec.basis}" if spec.basis else "no"
        raise ValueError(f"method {method!r} expects {expected} basis")
    if not (s1 > 0 and s2 > 0):
        raise ValueError("clipping thresholds must be positive")
    if not sigma >= 0:
        raise ValueError("sigma must be calibrated to a value >= 0")
    if sigma > 0 and rng is None:
        raise ValueError("a release with noise (sigma > 0) needs a generator")
    thresholds = (s1, s2) if spec.basis and spec.residual else (s1,)
    sums = list(zip(thresholds, noise_stds(sigma, thresholds)))
    g = as_factors(g)
    if basis is None:
        return _release(g, None, None, sums[0], rng)
    return _release(g, basis, sums[0], sums[1] if spec.residual else None, rng)


def projection_error_rate(
    g: np.ndarray | FactoredGradients, basis: AnchorBasis
) -> float:
    """Norm of the mean residual relative to the mean gradient.

    Uses unclipped embeddings and residuals; raises when the mean gradient
    vanishes.
    """
    g = as_factors(g)
    if g.p != basis.dim:
        raise ValueError(f"gradients have {g.p} columns, basis spans {basis.dim}")
    rate = _error_rate(_active_blocks(basis), g.weighted_sum())
    if math.isnan(rate):
        raise ValueError("projection error rate is undefined for a zero mean gradient")
    return rate


def stable_rank(
    g: np.ndarray | FactoredGradients,
    basis: AnchorBasis | None = None,
) -> float:
    """Stable rank ``||M||_F^2 / ||M||_2^2`` of the per-sample gradients
    ``G`` (n x p, factored or dense), or with a basis of their residuals
    ``R = G P``.

    Nothing of size n x p is formed.  ``||G||_F^2`` sums the factored row
    norms and ``||R||_F^2`` the residual norms the release kernel uses
    (Pythagoras, guarded rows explicit).  ``||M||_2^2`` is the top
    eigenvalue of ``R R^T = G P G^T``, by power iteration on n-vectors
    ``u -> G P (G^T u)``, with ``G^T u`` one weighted sum and ``G v`` one
    embedding, converged to relative tolerance
    :data:`gep.linalg.SPECTRAL_TOL`.  The result is clamped to its
    mathematical range ``[1, min(n, p)]``.
    """
    g = as_factors(g)
    n, p = g.shape
    if basis is not None and p != basis.dim:
        raise ValueError(f"gradients have {p} columns, basis spans {basis.dim}")
    sq = g.sq_norms()
    blocks = [] if basis is None else _active_blocks(basis)
    w_parts, sq_w = _embeddings(g, blocks)
    sq_r, _, _ = _residual_sq_norms(g, blocks, w_parts, sq, sq_w, None)
    fro2 = float(sq_r.sum())
    if fro2 == 0.0:
        raise ValueError("stable rank is undefined for a zero matrix")

    def gram(u: np.ndarray) -> np.ndarray:
        return g.embed(_project_out(blocks, g.weighted_sum(u))[None, :])[:, 0]

    top = _top_eigenvalue(gram, n, SPECTRAL_TOL)
    if top <= 0.0:
        raise ValueError("spectral norm estimate collapsed to zero")
    return float(min(max(fro2 / top, 1.0), min(n, p)))
