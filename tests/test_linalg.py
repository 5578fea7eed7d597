"""Kernel tests: orthonormalization, power iteration, clipping, noise."""

import numpy as np
import pytest
import scipy.linalg

import gep.linalg
from gep.data import Dataset
from gep.linalg import (
    FactoredGradients,
    GradientPiece,
    RandomStream,
    as_factors,
    count_flops,
    gaussian_noise,
    orthonormalize_rows,
    power_iteration_basis,
)
from gep.release import stable_rank as matrix_free_stable_rank
from oracle import clip_rows, project_split, row_norms
from oracle import stable_rank as dense_stable_rank

# the dense reference and the library's matrix-free stable rank
STABLE_RANKS = pytest.mark.parametrize(
    "stable_rank", [dense_stable_rank, matrix_free_stable_rank], ids=["oracle", "release"]
)


def test_orthonormalize_axis_aligned():
    q, rank = orthonormalize_rows(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert rank == 2
    np.testing.assert_allclose(q, np.eye(2), atol=1e-15)


def test_orthonormalize_duplicate_direction():
    q, rank = orthonormalize_rows(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert rank == 1
    np.testing.assert_allclose(q, np.array([[1.0, 1.0]]) / np.sqrt(2), atol=1e-15)


def test_orthonormalize_full_rank_random():
    # oracle: compare the spanned subspace against a high-precision SVD basis
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 8))
    q, rank = orthonormalize_rows(m)
    assert rank == 5
    assert np.max(np.abs(q @ q.T - np.eye(5))) <= 1e-10
    _, _, vt = np.linalg.svd(m, full_matrices=False)
    proj_mine = q.T @ q
    proj_svd = vt.T @ vt
    assert np.linalg.norm(proj_mine - proj_svd, 2) <= 1e-8


def test_orthonormalize_rejects_bad_input():
    with pytest.raises(ValueError):
        orthonormalize_rows(np.array([[np.nan, 1.0]]))


def reference_cgs2(m, tol=1e-10):
    """CGS2 against a list of accepted rows, restacked for every new row."""
    accepted = []
    for row in m:
        v = row.copy()
        scale = float(np.linalg.norm(v))
        for _ in range(2):
            if accepted:
                q = np.array(accepted)
                v = v - q.T @ (q @ v)
        norm = float(np.linalg.norm(v))
        if norm > tol * scale:
            accepted.append(v / norm)
    return np.array(accepted).reshape(len(accepted), m.shape[1])


def test_orthonormalize_matches_reference_bitwise():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((12, 300))
    m[5] = m[2] + m[3]  # dependent: dropped
    q, rank = orthonormalize_rows(m)
    assert rank == 11
    np.testing.assert_array_equal(q, reference_cgs2(m))
    # multiply-adds per row: two norms, two passes of two products against
    # the rows accepted so far, and the scaling of an accepted row
    expected, count = 0, 0
    for i in range(12):
        expected += 4 * 300 + 2 * 2 * count * 300
        if i != 5:
            expected += 300
            count += 1
    with count_flops() as counter:
        orthonormalize_rows(m)
    assert counter.macs == expected


def test_gram_rounds_make_a_fixed_number_of_products_per_round(monkeypatch):
    # the Gram path orthonormalizes its k coefficient rows as one block:
    # C K, then twice (C K) C^T and L^-1 C, whatever k; CGS2 made about
    # four products per row
    rng = np.random.default_rng(5)
    m, c, a = 16, 30, 24
    delta, act = rng.standard_normal((m, c)), rng.standard_normal((m, a))
    anchor = FactoredGradients([GradientPiece(0, delta, act), GradientPiece(c * a, delta)], 750)
    matmul = gep.linalg._matmul
    calls = []

    def counting(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(gep.linalg, "_matmul", counting)
    per_round = set()
    for k in (3, 6, 12):
        counts = []
        for t in (1, 2):
            calls.clear()
            basis = power_iteration_basis(anchor, k, t, np.random.default_rng(k))
            assert isinstance(basis, gep.linalg.AnchorCoefficients)
            counts.append(len(calls))
        per_round.add(counts[1] - counts[0])
    assert per_round == {7}


def test_gram_rounds_fall_back_when_their_products_overflow():
    # S = C K C^T grows as the fourth power of the gradients and overflows
    # at 1e80, where K is still finite: the rounds hand over to the dense
    # ones, whose CGS2 then names the row that overflows
    rng = np.random.default_rng(6)
    delta, act = 1e80 * rng.standard_normal((10, 30)), rng.standard_normal((10, 24))
    anchor = FactoredGradients([GradientPiece(0, delta, act), GradientPiece(720, delta)], 750)
    w, gram = gep.linalg._power_start(anchor, 4, rng)
    assert np.all(np.isfinite(gram))
    with np.errstate(over="ignore", invalid="ignore"):
        assert gep.linalg._gram_power_rounds(anchor, gram, w, 1) is None
        with pytest.raises(ValueError, match="row 0 of m is not finite or its norm overflows"):
            power_iteration_basis(anchor, 4, 1, rng)


def test_orthonormalize_scale_invariant_rank():
    # duplicate directions must be dropped even at large magnitudes
    q, rank = orthonormalize_rows(np.array([[1e8, 1e8], [2e8, 2e8]]))
    assert rank == 1


@pytest.mark.parametrize("scale", [1.0, 1e-6, 3e-7, 1e-8])
def test_power_iteration_keeps_every_row_of_small_anchors(scale):
    # the rows of W^T G_a scale with the square of the gradients: an
    # absolute drop test emptied the basis at 3e-7, and gep ran as gp
    g = np.random.default_rng(13).standard_normal((40, 300))
    basis = power_iteration_basis(g * scale, 8, 2, np.random.default_rng(14))
    assert basis.shape == (8, 300)
    np.testing.assert_allclose(basis @ basis.T, np.eye(8), atol=1e-12)
    # and a dependent row is dropped at any scale
    _, rank = orthonormalize_rows(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert rank == 1


def test_power_iteration_rank_one_fixed_point():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(12)
    v = rng.standard_normal(30)
    v /= np.linalg.norm(v)
    g = np.outer(u, v)
    basis = power_iteration_basis(g, 1, 1, np.random.default_rng(1))
    assert basis.shape == (1, 30)
    # the single basis row equals v up to sign
    assert min(np.linalg.norm(basis[0] - v), np.linalg.norm(basis[0] + v)) <= 1e-10


def test_power_iteration_exact_rank_three():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 50))
    basis = power_iteration_basis(g, 3, 10, np.random.default_rng(4))
    assert basis.shape[0] == 3
    resid = g - (g @ basis.T) @ basis
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(g)


def test_power_iteration_matches_svd_subspace():
    # gap > 0.1 between retained and discarded singular values
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    sing = np.array([2.0, 1.5, 1.2] + [0.5] * 17)
    g = u @ np.diag(sing) @ v[:, :20].T
    basis = power_iteration_basis(g, 3, 40, np.random.default_rng(12))
    top = v[:, :3].T
    angles = scipy.linalg.subspace_angles(basis.T, top.T)
    assert np.max(angles) <= 1e-6


def test_power_iteration_zero_matrix_and_clamp():
    empty = power_iteration_basis(np.zeros((4, 6)), 2, 3, np.random.default_rng(0))
    assert empty.shape == (0, 6)
    with pytest.warns(RuntimeWarning, match="clamping"):
        basis = power_iteration_basis(
            np.random.default_rng(1).standard_normal((3, 6)), 5, 2,
            np.random.default_rng(2),
        )
    assert basis.shape[0] <= 3


def test_project_split_contained_and_orthogonal():
    rng = np.random.default_rng(5)
    basis, _ = orthonormalize_rows(rng.standard_normal((4, 12)))
    coeffs = rng.standard_normal((9, 4))
    g_in = coeffs @ basis
    w, r = project_split(g_in, basis)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(g_in)
    np.testing.assert_allclose(w, coeffs, atol=1e-12)

    # orthogonal complement: directions with no basis component
    null = rng.standard_normal((6, 12))
    null -= (null @ basis.T) @ basis
    w0, r0 = project_split(null, basis)
    assert np.max(np.abs(w0)) <= 1e-10
    np.testing.assert_allclose(r0, null, atol=1e-12)


def test_project_split_empty_basis():
    g = np.arange(12.0).reshape(3, 4)
    w, r = project_split(g, np.zeros((0, 4)))
    assert w.shape == (3, 0)
    np.testing.assert_array_equal(r, g)


def test_project_split_dimension_mismatch():
    with pytest.raises(ValueError):
        project_split(np.ones((2, 3)), np.ones((1, 4)))


def test_projection_idempotent_and_pythagoras():
    rng = np.random.default_rng(21)
    for trial in range(5):
        g = rng.standard_normal((15, 40))
        basis = power_iteration_basis(g[:8], 6, 3, rng)
        w, r = project_split(g, basis)
        w_again, _ = project_split(r, basis)
        assert np.max(np.abs(w_again)) <= 1e-9 * max(1.0, np.max(np.abs(w)))
        lhs = row_norms(g) ** 2
        rhs = row_norms(w) ** 2 + row_norms(r) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_clip_rows_basic():
    m = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    clipped = clip_rows(m, 2.0)
    np.testing.assert_allclose(clipped[0], np.array([1.2, 1.6]))
    np.testing.assert_array_equal(clipped[1], m[1])  # unchanged bitwise
    np.testing.assert_array_equal(clipped[2], np.zeros(2))
    with pytest.raises(ValueError):
        clip_rows(m, 0.0)


def test_clip_rows_contraction_property():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((30, 7)) * rng.gamma(1.0, 5.0, size=(30, 1))
    for s in (0.5, 2.0, 100.0):
        clipped = clip_rows(m, s)
        norms = row_norms(clipped)
        assert np.all(norms <= np.minimum(row_norms(m), s) + 1e-12)
        # direction preserved: cross products vanish
        cross = np.einsum("ij,ij->i", clipped, m)
        assert np.all(cross >= -1e-12)


@STABLE_RANKS
def test_stable_rank_values(stable_rank):
    rng = np.random.default_rng(9)
    u = rng.standard_normal(10)
    v = rng.standard_normal(25)
    assert abs(stable_rank(np.outer(u, v)) - 1.0) <= 1e-6

    q, _ = orthonormalize_rows(rng.standard_normal((6, 40)))
    assert abs(stable_rank(q) - 6.0) <= 1e-4

    padded = np.zeros((4, 5))
    padded[0, 0] = 2.0
    padded[1, 1] = 1.0
    assert abs(stable_rank(padded) - 1.25) <= 1e-6


@STABLE_RANKS
def test_stable_rank_bounds_and_zero(stable_rank):
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        value = stable_rank(m)
        assert 1.0 <= value <= min(m.shape)
    with pytest.raises(ValueError):
        stable_rank(np.zeros((3, 3)))


def test_gaussian_noise_moments():
    rng = np.random.default_rng(123)
    draws = gaussian_noise((1000, 1000), 1.0, rng)
    assert abs(float(draws.mean())) <= 4e-3
    assert abs(float(draws.var()) - 1.0) <= 1e-2


def test_gaussian_noise_zero_sigma_and_errors():
    rng = np.random.default_rng(1)
    assert np.all(gaussian_noise((3, 3), 0.0, rng) == 0.0)
    with pytest.raises(ValueError):
        gaussian_noise((2, 2), -1.0, rng)


def test_random_stream_determinism():
    stream = RandomStream(42)
    a = stream.generator(3, 1).standard_normal(10)
    b = stream.generator(3, 1).standard_normal(10)
    c = stream.generator(3, 2).standard_normal(10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # same matrix twice through the noise helper
    n1 = gaussian_noise((4, 4), 2.0, stream.generator(0, 0))
    n2 = gaussian_noise((4, 4), 2.0, stream.generator(0, 0))
    np.testing.assert_array_equal(n1, n2)


def test_flop_counter_counts_power_iteration():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((50, 200))
    with count_flops() as counter:
        power_iteration_basis(g, 10, 1, np.random.default_rng(3))
    # two matmuls dominate: 2 * m * k * p
    assert counter.macs >= 2 * 50 * 10 * 200
    assert counter.macs <= 1.5 * (2 * 50 * 10 * 200 + 200 * 10 * 10)


def test_factored_gradients_validation():
    rng = np.random.default_rng(13)
    delta, act = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    f = FactoredGradients([GradientPiece(0, delta, act), GradientPiece(12, delta)], 15)
    assert as_factors(f) is f
    with pytest.raises(ValueError, match="tile"):
        FactoredGradients([GradientPiece(1, delta, act)], 13)
    with pytest.raises(ValueError, match="cover"):
        FactoredGradients([GradientPiece(0, delta, act)], 13)
    with pytest.raises(ValueError):
        FactoredGradients([GradientPiece(0, delta, act[:4])], 12)
    with pytest.raises(ValueError):
        as_factors(np.ones(4))
    # cuts between rows of the 3 x 4 block, or anywhere in delta alone
    np.testing.assert_array_equal(f.columns(4, 14).dense(), f.dense()[:, 4:14])
    with pytest.raises(ValueError, match="cut through"):
        f.columns(2, 14)
    # a non-finite factor entry poisons its rows' norms: caught at entry
    bad = act.copy()
    bad[2, 1] = np.inf
    poisoned = FactoredGradients([GradientPiece(0, delta, bad)], 12)
    with pytest.raises(ValueError, match="non-finite"):
        poisoned.sq_norms()
    with pytest.raises(ValueError, match="non-finite"):
        power_iteration_basis(poisoned, 2, 1, np.random.default_rng(0))
    huge = FactoredGradients([GradientPiece(0, delta * 1e160, act * 1e160)], 12)
    with pytest.raises(ValueError, match="overflow"):
        huge.sq_norms()
    with pytest.raises(ValueError, match="act_sq"):
        FactoredGradients([GradientPiece(0, delta, act, np.ones(4))], 12)
    with pytest.raises(ValueError, match="act_sq"):
        FactoredGradients([GradientPiece(0, delta, None, np.ones(5))], 3)


def test_cached_act_norms_give_the_same_bits():
    rng = np.random.default_rng(16)
    data = Dataset(rng.standard_normal((50, 7)), np.zeros(50, dtype=np.int64))
    delta = rng.standard_normal((50, 3))
    plain = FactoredGradients([GradientPiece(0, delta, data.design), GradientPiece(24, delta)], 27)
    cached = FactoredGradients(
        [GradientPiece(0, delta, data.design, data.design_sq_norms), GradientPiece(24, delta)], 27
    )
    assert cached.sq_norms().tobytes() == plain.sq_norms().tobytes()
    # a column cut keeps the norms with the act they belong to
    assert cached.columns(8, 24).pieces[0].act_sq is data.design_sq_norms
    # the norms of a finite design do not vouch for delta
    bad = delta.copy()
    bad[3, 0] = np.nan
    poisoned = FactoredGradients([GradientPiece(0, bad, data.design, data.design_sq_norms)], 24)
    with pytest.raises(ValueError, match="non-finite"):
        poisoned.sq_norms()


def test_power_iteration_runs_the_dense_products_on_a_dense_matrix():
    # the trivial wrap of a dense matrix computes exactly b <- (g b^T)^T g
    g = np.random.default_rng(14).standard_normal((30, 80))
    rng = np.random.default_rng(15)
    expected = rng.standard_normal((5, 80))
    for _ in range(2):
        expected, _ = orthonormalize_rows((g @ expected.T).T @ g)
    basis = power_iteration_basis(g, 5, 2, np.random.default_rng(15))
    np.testing.assert_array_equal(basis, expected)


@pytest.mark.parametrize("bias_first", [False, True], ids=["weight-then-bias", "bias-first"])
def test_cross_gram_matches_the_dense_product(bias_first, monkeypatch):
    # a block and a bias piece that share one delta on each side: the
    # pieces' products add up to the dense one
    rng = np.random.default_rng(16)

    def batch(n):
        delta, act = rng.standard_normal((n, 3)), rng.standard_normal((n, 4))
        if bias_first:
            return FactoredGradients([GradientPiece(0, delta), GradientPiece(3, delta, act)], 15)
        return FactoredGradients([GradientPiece(0, delta, act), GradientPiece(12, delta)], 15)

    g, h = batch(7), batch(5)
    factors = [x for f in (g, h) for piece in f.pieces for x in (piece.delta, piece.act)]
    before = [None if x is None else x.copy() for x in factors]
    deltas = {id(piece.delta) for piece in g.pieces}
    products = []
    matmul = gep.linalg._matmul

    def recording(a, b):
        out = matmul(a, b)
        if id(a) in deltas:
            products.append((out, out.copy()))
        return out

    monkeypatch.setattr(gep.linalg, "_matmul", recording)
    cross = g.cross_gram(h)
    expected = g.dense() @ h.dense().T
    assert np.max(np.abs(cross - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the in-place accumulation writes into no factor and no delta product
    for x, y in zip(factors, before):
        assert (x is None and y is None) or np.array_equal(x, y)
    for out, snapshot in products:
        assert np.array_equal(out, snapshot)
