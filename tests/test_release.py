"""Release mechanism tests: basis construction, perturbation, baselines."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gep
from gep import DpBudget, TrainConfig
from gep.linalg import (
    SPECTRAL_TOL,
    FactoredGradients,
    GradientPiece,
    RandomStream,
    as_factors,
    count_flops,
    gaussian_noise,
    gram_path_pays,
    orthonormalize_rows,
)
from gep.linalg import _dense_power_rounds, _power_start
from gep.models import (
    GroupLayout,
    ParamGroup,
    make_group_layout,
    per_sample_factors,
    per_sample_gradients,
)
from gep.release import (
    METHODS,
    AnchorBasis,
    GepConfig,
    build_anchor_basis,
    RESIDUAL_GUARD,
    projection_error_rate,
    release_gradient,
    single_group_layout,
    stable_rank,
)
from gep.tasks import logistic_mixture_task, lowrank_regression_task, mlp_cluster_task
from gep.training import dp_train
from oracle import blocks, clip_rows, project, reconstruct, row_norms, split
from oracle import stable_rank as dense_stable_rank


def make_cfg(**kwargs):
    base = dict(k=4, m=16, t=4, s1=10.0, s2=2.0)
    base.update(kwargs)
    return GepConfig(**base)


def exact_rank_gradients(rng, n, m, p, rank):
    """Private and anchor rows drawn from one exact-rank factor space."""
    factors = rng.standard_normal((rank, p))
    private = rng.standard_normal((n, rank)) @ factors
    anchor = rng.standard_normal((m, rank)) @ factors
    return private, anchor


def test_anchor_basis_self_projection():
    rng = np.random.default_rng(0)
    _, anchor = exact_rank_gradients(rng, 1, 16, 60, 4)
    layout = single_group_layout(60, 4)
    basis = build_anchor_basis(anchor, layout, make_cfg(), np.random.default_rng(1))
    assert basis.k_effective == 4
    _, resid = split(basis, anchor)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(anchor)


def test_random_basis_is_orthonormal():
    layout = single_group_layout(40, 6)
    basis = build_anchor_basis(
        np.zeros((10, 40)),
        layout,
        make_cfg(k=6),
        np.random.default_rng(3),
        basis_mode="random",
    )
    block = blocks(basis)[0]
    assert block.shape == (6, 40)
    np.testing.assert_allclose(block @ block.T, np.eye(6), atol=1e-10)


def test_grouped_basis_is_block_diagonal():
    rng = np.random.default_rng(5)
    layout = GroupLayout(
        (ParamGroup("a", 0, 30, 3), ParamGroup("b", 30, 20, 2))
    )
    anchor = rng.standard_normal((25, 50))
    basis = build_anchor_basis(
        anchor, layout, make_cfg(k=5, m=25), np.random.default_rng(6)
    )
    # a matrix supported on group b's columns has zero group-a embedding
    g = np.zeros((7, 50))
    g[:, 30:] = rng.standard_normal((7, 20))
    w = project(basis, g)
    k_a = blocks(basis)[0].shape[0]
    assert np.all(w[:, :k_a] == 0.0)
    # reconstruction respects the partition too
    back = reconstruct(basis, w)
    assert np.all(back[:, :30] == 0.0)


def test_build_anchor_basis_warns_on_few_anchors():
    layout = single_group_layout(30, 8)
    with pytest.warns(RuntimeWarning):
        build_anchor_basis(
            np.random.default_rng(0).standard_normal((4, 30)),
            layout,
            make_cfg(k=8, m=4),
            np.random.default_rng(1),
        )


@pytest.mark.parametrize("model, clamped", [("single-group", 1), ("mlp", 2)])
def test_build_anchor_basis_warns_once_per_clamped_group(model, clamped):
    # m = 10 anchors for k = 40: one group of 40, or MLP layers of 22 and 18
    if model == "mlp":
        task = mlp_cluster_task(0, n=40, input_dim=6, hidden_dim=8, m_aux=10)
        anchor = per_sample_factors(task.model, task.aux)
        layout = make_group_layout(task.model, 40)
    else:
        anchor = np.random.default_rng(0).standard_normal((10, 60))
        layout = single_group_layout(60, 40)
    with pytest.warns(RuntimeWarning) as record:
        build_anchor_basis(anchor, layout, make_cfg(k=40, m=10), np.random.default_rng(1))
    assert len(record) == clamped


def test_gep_release_noiseless_identity():
    rng = np.random.default_rng(8)
    g, anchor = exact_rank_gradients(rng, 30, 16, 80, 6)
    g += 0.05 * rng.standard_normal(g.shape)  # genuine residual
    layout = single_group_layout(80, 4)
    cfg = make_cfg(k=4, s1=1e12, s2=1e12)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(9))
    rel = release_gradient("gep", g, basis, cfg.s1, cfg.s2, 0.0, np.random.default_rng(10))
    g_bar = g.sum(axis=0) / g.shape[0]
    np.testing.assert_allclose(rel.v_tilde, g_bar, rtol=1e-12, atol=1e-14)
    assert rel.clip_fraction_s1 == 0.0
    assert rel.clip_fraction_s2 == 0.0


def test_gep_release_empty_basis_is_exact():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((12, 25))
    layout = single_group_layout(25, 3)
    cfg = make_cfg(k=3, s1=1e12, s2=1e12)
    basis = build_anchor_basis(np.zeros((5, 25)), layout, cfg, np.random.default_rng(0))
    assert basis.k_effective == 0
    rel = release_gradient("gep", g, basis, cfg.s1, cfg.s2, 0.0, np.random.default_rng(1))
    np.testing.assert_array_equal(rel.v_tilde, g.sum(axis=0) / 12)
    assert rel.projection_error_rate == pytest.approx(1.0)


def inactive_thresholds(basis, g):
    """Thresholds just above every row norm: clipping present but inert."""
    w, r = split(basis, g)
    return 1.5 * float(np.max(row_norms(w))), 1.5 * float(np.max(row_norms(r)))


def test_gep_release_monte_carlo_unbiased():
    rng = np.random.default_rng(12)
    g, anchor = exact_rank_gradients(rng, 20, 12, 60, 5)
    g += 0.1 * rng.standard_normal(g.shape)
    layout = single_group_layout(60, 5)
    sigma = 0.5
    cfg = make_cfg(k=5, m=12)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(13))
    s1, s2 = inactive_thresholds(basis, g)
    g_bar = g.sum(axis=0) / g.shape[0]

    draws = 3000
    stream = RandomStream(99)
    total = np.zeros(60)
    for i in range(draws):
        total += release_gradient("gep", g, basis, s1, s2, sigma, stream.generator(i)).v_tilde
    mean = total / draws
    # per-coordinate noise std is at most sigma*sqrt(2)*sqrt(s1^2+s2^2)/n
    per_coord = sigma * math.sqrt(2.0 * (s1**2 + s2**2)) / g.shape[0]
    se = per_coord / math.sqrt(draws)
    assert np.max(np.abs(mean - g_bar)) <= 5 * se


def test_bgep_release_identities():
    rng = np.random.default_rng(14)
    g, anchor = exact_rank_gradients(rng, 15, 14, 50, 4)
    g += 0.2 * rng.standard_normal(g.shape)
    layout = single_group_layout(50, 4)
    cfg = make_cfg(k=4, m=14, s1=1e12, s2=1e12)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(15))
    rel = release_gradient("bgep", g, basis, cfg.s1, cfg.s2, 0.0, np.random.default_rng(16))
    n = g.shape[0]
    _, r = split(basis, g)
    expected = g.sum(axis=0) / n - r.sum(axis=0) / n
    np.testing.assert_allclose(rel.v_tilde, expected, rtol=1e-10, atol=1e-13)
    assert rel.r_tilde is None

    # rows inside the subspace: no bias at all
    g_in, anchor_in = exact_rank_gradients(rng, 10, 14, 50, 4)
    basis_in = build_anchor_basis(
        anchor_in, layout, cfg, np.random.default_rng(17)
    )
    rel_in = release_gradient(
        "bgep", g_in, basis_in, cfg.s1, cfg.s2, 0.0, np.random.default_rng(18)
    )
    np.testing.assert_allclose(
        rel_in.v_tilde, g_in.sum(axis=0) / 10, rtol=1e-8, atol=1e-10
    )


def test_bgep_monte_carlo_converges_to_biased_mean():
    rng = np.random.default_rng(19)
    g, anchor = exact_rank_gradients(rng, 16, 12, 40, 3)
    g += 0.3 * rng.standard_normal(g.shape)
    layout = single_group_layout(40, 3)
    basis = build_anchor_basis(
        anchor, layout, make_cfg(k=3, m=12), np.random.default_rng(20)
    )
    s1, s2 = inactive_thresholds(basis, g)
    n = g.shape[0]
    g_bar = g.sum(axis=0) / n
    _, r = split(basis, g)
    biased_target = g_bar - r.sum(axis=0) / n

    draws = 3000
    stream = RandomStream(7)
    total = np.zeros(40)
    for i in range(draws):
        total += release_gradient("bgep", g, basis, s1, s2, 0.5, stream.generator(i)).v_tilde
    mean = total / draws
    # close to the biased target, far from the true mean
    assert np.linalg.norm(mean - biased_target) < 0.2 * np.linalg.norm(
        mean - g_bar
    )


def test_gp_release_noiseless_is_bitwise_mean():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((9, 30))
    out = release_gradient("gp", g, None, 1e9, 1e9, 0.0, np.random.default_rng(22)).v_tilde
    np.testing.assert_array_equal(out, g.sum(axis=0) / 9)
    single = release_gradient("gp", g[:1], None, 1e9, 1e9, 0.0, np.random.default_rng(23)).v_tilde
    np.testing.assert_array_equal(single, g[0])


def test_gp_release_noise_energy():
    # chi-square moment: E ||noise||^2 = p (sigma S / n)^2
    p, n, sigma, s = 100, 10, 2.0, 3.0
    g = np.zeros((n, p))
    stream = RandomStream(5)
    energies = [
        float(np.sum(
            release_gradient("gp", g, None, s, s, sigma, stream.generator(i)).v_tilde ** 2
        ))
        for i in range(1000)
    ]
    expected = p * (sigma * s / n) ** 2
    assert abs(np.mean(energies) - expected) <= 0.05 * expected


def test_projection_error_rate_cases():
    rng = np.random.default_rng(24)
    g, anchor = exact_rank_gradients(rng, 10, 12, 30, 3)
    layout = single_group_layout(30, 3)
    cfg = make_cfg(k=3, m=12)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(25))
    assert projection_error_rate(g, basis) <= 1e-8

    empty = AnchorBasis(single_group_layout(30, 3), [np.zeros((0, 30))])
    assert projection_error_rate(g, empty) == pytest.approx(1.0)

    with pytest.raises(ValueError):
        projection_error_rate(np.zeros((4, 30)), basis)


def test_projection_error_rate_sweep_to_zero():
    # exact rank-8 gradients, anchors from the same factors: the error
    # falls as k grows and hits numerical zero at the true rank
    rank = 8
    rng = np.random.default_rng(26)
    g, anchor = exact_rank_gradients(rng, 40, 2 * rank, 70, rank)
    errors = []
    for k in range(1, rank + 1):
        layout = single_group_layout(70, k)
        cfg = make_cfg(k=k, m=2 * rank, t=10)
        basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(27))
        errors.append(projection_error_rate(g, basis))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-6


def test_residual_norm_trends_in_k_and_m():
    # approximately low-rank gradients: larger bases and more anchors both
    # shrink the mean squared residual row norm
    ks = [2, 4, 8, 16, 32]
    mean_sq = []
    for k in ks:
        values = []
        for seed in range(6):
            task = lowrank_regression_task(
                seed, n=120, input_dim=59, rank=8, tail=0.15, m_aux=64
            )
            g = per_sample_gradients(task.model, task.private)
            g_a = per_sample_gradients(task.model, task.aux)
            layout = single_group_layout(60, k)
            cfg = make_cfg(k=k, m=64, t=4)
            basis = build_anchor_basis(
                g_a, layout, cfg, RandomStream(seed).generator(2)
            )
            _, r = split(basis, g)
            values.append(float(np.mean(row_norms(r) ** 2)))
        mean_sq.append(float(np.mean(values)))
    inversions = sum(b > a for a, b in zip(mean_sq, mean_sq[1:]))
    assert inversions <= 1
    assert mean_sq[-1] < mean_sq[0]

    # anchor-count sweep on a fixed private set: slice one anchor pool
    ms = [16, 32, 64]
    by_m = {m: [] for m in ms}
    for seed in range(6):
        task = lowrank_regression_task(
            seed, n=120, input_dim=59, rank=8, tail=0.15, m_aux=max(ms)
        )
        g = per_sample_gradients(task.model, task.private)
        g_a_full = per_sample_gradients(task.model, task.aux)
        for m in ms:
            layout = single_group_layout(60, 6)
            cfg = make_cfg(k=6, m=m, t=4)
            basis = build_anchor_basis(
                g_a_full[:m], layout, cfg, RandomStream(seed).generator(2)
            )
            _, r = split(basis, g)
            by_m[m].append(float(np.mean(row_norms(r) ** 2)))
    means = [float(np.mean(by_m[m])) for m in ms]
    assert means[-1] < means[0]


def test_sensitivity_contract_row_removal():
    rng = np.random.default_rng(28)
    g, anchor = exact_rank_gradients(rng, 18, 12, 45, 4)
    g = g * 5.0 + rng.standard_normal(g.shape)  # rows well above thresholds
    layout = single_group_layout(45, 4)
    cfg = make_cfg(k=4, m=12, s1=1.5, s2=0.7)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(29))

    def sums(rows):
        w, r = split(basis, rows)
        return clip_rows(w, cfg.s1).sum(axis=0), clip_rows(r, cfg.s2).sum(axis=0)

    w_full, r_full = sums(g)
    for i in range(g.shape[0]):
        reduced = np.delete(g, i, axis=0)
        w_red, r_red = sums(reduced)
        assert np.linalg.norm(w_full - w_red) <= cfg.s1 + 1e-12
        assert np.linalg.norm(r_full - r_red) <= cfg.s2 + 1e-12


def test_noise_energy_ordering_vs_gp():
    # at a matched per-step budget the anchor-subspace release carries far
    # less noise than full-dimensional perturbation when s2 << s and k << p
    p, n = 400, 50
    k = p // 20
    s, s1, s2 = 10.0, 10.0, 2.0
    sigma = 1.7  # same per-step multiplier for both single-release mechanisms
    gep_energy = 2 * sigma**2 * (k * s1**2 + p * s2**2) / n**2
    gp_energy = p * (sigma * s) ** 2 / n**2
    assert gep_energy < gp_energy

    # empirical check of both closed forms
    rng = np.random.default_rng(30)
    g = np.zeros((n, p))
    anchor = rng.standard_normal((2 * k, p))
    layout = single_group_layout(p, k)
    cfg = make_cfg(k=k, m=2 * k, s1=s1, s2=s2)
    basis = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(31))
    stream = RandomStream(11)
    gep_measured = np.mean(
        [
            float(np.sum(release_gradient(
                "gep", g, basis, s1, s2, sigma, stream.generator(i)
            ).v_tilde ** 2))
            for i in range(400)
        ]
    )
    gp_measured = np.mean(
        [
            float(np.sum(release_gradient(
                "gp", g, None, s, s, sigma, stream.generator(10_000 + i)
            ).v_tilde ** 2))
            for i in range(400)
        ]
    )
    assert gep_measured == pytest.approx(gep_energy, rel=0.15)
    assert gp_measured == pytest.approx(gp_energy, rel=0.15)
    assert gep_measured < gp_measured


def test_release_validation_errors():
    layout = single_group_layout(10, 2)
    basis = AnchorBasis(layout, [np.zeros((0, 10))])
    cfg = make_cfg(k=2, m=4)
    s1, s2 = cfg.s1, cfg.s2
    with pytest.raises(ValueError):
        release_gradient("gep", np.zeros((0, 10)), basis, s1, s2, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        release_gradient("gep", np.zeros((3, 11)), basis, s1, s2, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        release_gradient("gep", np.ones((3, 10)), basis, s1, s2, -1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        release_gradient("gp", np.ones((2, 3)), None, 1.0, 1.0, -0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        release_gradient("gp", np.ones((2, 3)), None, 0.0, 0.0, 1.0, np.random.default_rng(0))
    bad = np.ones((3, 10))
    bad[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        release_gradient("gep", bad, basis, s1, s2, 0.0, np.random.default_rng(0))
    bad[1, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        release_gradient("gp", bad, None, 1.0, 1.0, 0.0, np.random.default_rng(0))


def test_public_names_resolve():
    for name in gep.__all__:
        getattr(gep, name)
    # the release function is not named ``release``, which would hide this
    assert isinstance(gep.release, types.ModuleType)
    assert gep.release_gradient is gep.release.release_gradient


def test_release_records_the_sums_it_perturbed():
    rng = np.random.default_rng(0)
    g, anchor = exact_rank_gradients(rng, 12, 16, 30, 4)
    s1, s2 = 3.0, 0.5
    for sigma in (1.5, 0.0):
        two, one = sigma * math.sqrt(2.0), sigma
        expected = {
            "gep": ((s1, two * s1), (s2, two * s2)),
            "bgep": ((s1, one * s1),),
            "gp": ((s1, one * s1),),  # every row all residual, clipped at s1
            "random-basis-gep": ((s1, two * s1), (s2, two * s2)),
        }
        for name, method in METHODS.items():
            basis = None
            if method.basis is not None:
                layout = single_group_layout(30, 4)
                basis = build_anchor_basis(anchor, layout, make_cfg(), rng, method.basis)
            rel = release_gradient(name, g, basis, s1, s2, sigma, rng)
            assert rel.sums == expected[name], (name, sigma)


def test_method_table():
    assert {name: (m.basis, m.residual) for name, m in METHODS.items()} == {
        "gep": ("power", True),
        "bgep": ("power", False),
        "gp": (None, True),
        "random-basis-gep": ("random", True),
    }
    with pytest.raises(ValueError, match="basis mode"):
        build_anchor_basis(
            np.zeros((4, 10)),
            single_group_layout(10, 2),
            make_cfg(k=2),
            np.random.default_rng(0),
            basis_mode="none",
        )
    g = np.ones((3, 10))
    basis = AnchorBasis(single_group_layout(10, 2), [np.zeros((0, 10))])
    with pytest.raises(ValueError, match="expects a power basis"):
        release_gradient("gep", g, None, 1.0, 1.0, 0.0, None)
    with pytest.raises(ValueError, match="expects no basis"):
        release_gradient("gp", g, basis, 1.0, 1.0, 0.0, None)


def test_a_noisy_release_needs_a_generator():
    g = np.ones((3, 10))
    with pytest.raises(ValueError, match="generator"):
        release_gradient("gp", g, None, 1.0, 1.0, 0.5, None)
    # a noiseless release, as gd_train makes, draws nothing
    rel = release_gradient("gp", g, None, 1.0, 1.0, 0.0, None)
    np.testing.assert_allclose(rel.v_tilde, 1.0 / math.sqrt(10), rtol=1e-15)


def oracle_release(g, basis, cfg, sigma, rng, with_residual):
    """Explicit split, clip, sum and noise: the reference for the kernel.

    ``sigma`` is the step multiplier: each of the two sums of a gep step
    gets ``sigma * sqrt(2)`` times its threshold.
    """
    w, r = split(basis, g)
    block = sigma * math.sqrt(2.0) if with_residual else sigma
    w_sum = clip_rows(w, cfg.s1).sum(axis=0)
    v = reconstruct(basis, w_sum + gaussian_noise(w_sum.shape, block * cfg.s1, rng))
    if with_residual:
        r_sum = clip_rows(r, cfg.s2).sum(axis=0)
        v = v + r_sum + gaussian_noise(r_sum.shape, block * cfg.s2, rng)
    return v / g.shape[0]


MODEL_TASKS = {
    "logistic": lambda: logistic_mixture_task(
        3, n=120, input_dim=29, m_aux=40, n_eval=10
    ),
    "linear": lambda: lowrank_regression_task(
        3, n=120, input_dim=39, rank=4, tail=0.3, m_aux=40
    ),
    "mlp": lambda: mlp_cluster_task(
        3, n=120, input_dim=8, classes=3, hidden_dim=12, m_aux=40
    ),
}


@pytest.mark.parametrize("method", ["gep", "bgep"], ids=["gep_release", "bgep_release"])
@pytest.mark.parametrize("kind", sorted(MODEL_TASKS))
def test_release_matches_explicit_oracle(kind, method):
    task = MODEL_TASKS[kind]()
    assert task.model.kind == kind
    g = per_sample_gradients(task.model, task.private)
    anchor = per_sample_gradients(task.model, task.aux)
    layout = make_group_layout(task.model, 6)
    basis = build_anchor_basis(
        anchor, layout, make_cfg(k=6, m=40, t=2), np.random.default_rng(40)
    )
    w, r = split(basis, g)
    # thresholds at the median row norms: about half the rows clip
    s1 = float(np.median(row_norms(w)))
    s2 = float(np.median(row_norms(r)))
    cfg = make_cfg(k=6, m=40, t=2, s1=s1, s2=s2)
    with_residual = method == "gep"

    rel = release_gradient(method, g, basis, s1, s2, 0.3, np.random.default_rng(41))
    expected = oracle_release(g, basis, cfg, 0.3, np.random.default_rng(41), with_residual)
    assert np.linalg.norm(rel.v_tilde - expected) <= 1e-12 * np.linalg.norm(expected)
    assert rel.clip_fraction_s1 == np.mean(row_norms(w) > s1)
    if with_residual:
        assert rel.clip_fraction_s2 == np.mean(row_norms(r) > s2)
    g_bar = g.sum(axis=0)
    assert rel.projection_error_rate == pytest.approx(
        np.linalg.norm(r.sum(axis=0)) / np.linalg.norm(g_bar), rel=1e-10
    )


def test_tiny_residual_rows_clip_within_s2():
    # residuals 1e-6 of the gradient norm: Pythagoras alone keeps only a
    # few digits of ||r||^2, so these rows must go the explicit way
    rng = np.random.default_rng(42)
    g, anchor = exact_rank_gradients(rng, 40, 12, 60, 4)
    layout = single_group_layout(60, 4)
    basis = build_anchor_basis(
        anchor, layout, make_cfg(k=4, m=12), np.random.default_rng(43)
    )
    noise = rng.standard_normal(g.shape)
    noise -= reconstruct(basis, project(basis, noise))
    g = g + 1e-6 * noise * (row_norms(g) / row_norms(noise))[:, None]
    _, r = split(basis, g)
    s2 = 0.5 * float(np.median(row_norms(r)))
    s1 = 1e12

    for i in range(g.shape[0]):
        row = release_gradient("gep", g[i : i + 1], basis, s1, s2, 0.0, np.random.default_rng(0))
        assert np.linalg.norm(row.r_tilde) <= s2 * (1 + 1e-12)
    rel = release_gradient("gep", g, basis, s1, s2, 0.0, np.random.default_rng(0))
    expected = clip_rows(r, s2).sum(axis=0)
    assert np.linalg.norm(rel.r_tilde - expected) <= 1e-12 * np.linalg.norm(expected)
    assert rel.clip_fraction_s2 == np.mean(row_norms(r) > s2)


@pytest.mark.parametrize(
    "layout",
    [
        single_group_layout(400, 6),
        GroupLayout((ParamGroup("a", 0, 300, 4), ParamGroup("b", 300, 100, 2))),
    ],
    ids=["one-group", "two-groups"],
)
def test_gep_release_builds_no_n_by_p_matrix(layout):
    rng = np.random.default_rng(44)
    g = rng.standard_normal((2000, 400))
    # rows have norm ~20 with embeddings ~2.4: both thresholds clip
    cfg = make_cfg(k=6, m=40, s1=2.0, s2=19.0)
    basis = build_anchor_basis(
        rng.standard_normal((40, 400)), layout, cfg, np.random.default_rng(45)
    )
    tracemalloc.start()
    try:
        rel = release_gradient("gep", g, basis, cfg.s1, cfg.s2, 1.0, np.random.default_rng(46))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < rel.clip_fraction_s1 < 1.0 and 0.0 < rel.clip_fraction_s2 < 1.0
    assert peak < 0.25 * g.nbytes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    resid_log10=st.floats(-8.0, 1.0),
    clip_q=st.floats(0.1, 0.9),
)
def test_one_row_moves_clipped_sums_by_at_most_threshold(seed, n, resid_log10, clip_q):
    rng = np.random.default_rng(seed)
    p, k = 30, 3
    g, anchor = exact_rank_gradients(rng, n + 1, 10, p, k)
    g *= 10.0 ** rng.uniform(-2.0, 2.0, size=(n + 1, 1))
    # residual rows of relative size 10**resid_log10 around the rank-k part
    scale = 10.0**resid_log10 / math.sqrt(p)
    g += scale * row_norms(g)[:, None] * rng.standard_normal(g.shape)
    layout = single_group_layout(p, k)
    basis = build_anchor_basis(
        anchor, layout, make_cfg(k=k, m=10), np.random.default_rng(seed)
    )
    w, r = split(basis, g)
    s1 = float(np.quantile(row_norms(w), clip_q))
    s2 = float(np.quantile(row_norms(r), clip_q))
    s = float(np.quantile(row_norms(g), clip_q))
    full = release_gradient("gep", g, basis, s1, s2, 0.0, np.random.default_rng(0))
    gp_full = release_gradient(
        "gp", g, None, s, s, 0.0, np.random.default_rng(0)
    ).v_tilde * (n + 1)
    for i in range(n + 1):
        rest = np.delete(g, i, axis=0)
        reduced = release_gradient("gep", rest, basis, s1, s2, 0.0, np.random.default_rng(0))
        assert np.linalg.norm(full.w_tilde - reduced.w_tilde) <= s1 * (1 + 1e-12)
        assert np.linalg.norm(full.r_tilde - reduced.r_tilde) <= s2 * (1 + 1e-12)
        gp_reduced = release_gradient(
            "gp", rest, None, s, s, 0.0, np.random.default_rng(0)
        ).v_tilde * n
        assert np.linalg.norm(gp_full - gp_reduced) <= s * (1 + 1e-12)


def gp_oracle(g, s, sigma, rng):
    total = clip_rows(g, s).sum(axis=0)
    return (total + gaussian_noise(total.shape, sigma * s, rng)) / g.shape[0]


@pytest.mark.parametrize("method", ["gep", "bgep", "gp"])
@pytest.mark.parametrize("kind", sorted(MODEL_TASKS))
def test_factored_release_matches_dense_and_oracle(kind, method):
    task = MODEL_TASKS[kind]()
    factors = per_sample_factors(task.model, task.private)
    if kind == "mlp":
        assert len(factors.pieces) == 2  # one [W | b] piece per layer
    assert all(piece.act is not None for piece in factors.pieces)
    g = factors.dense()
    layout = make_group_layout(task.model, 6)
    basis = build_anchor_basis(
        per_sample_factors(task.model, task.aux),
        layout,
        make_cfg(k=6, m=40, t=2),
        np.random.default_rng(40),
    )
    w, r = split(basis, g)
    if method == "gp":
        s = float(np.median(row_norms(g)))
        released = [
            release_gradient("gp", x, None, s, s, 0.3, np.random.default_rng(41)).v_tilde
            for x in (factors, g)
        ]
        expected = gp_oracle(g, s, 0.3, np.random.default_rng(41))
    else:
        cfg = make_cfg(
            k=6, m=40, t=2,
            s1=float(np.median(row_norms(w))), s2=float(np.median(row_norms(r))),
        )
        rels = [
            release_gradient(method, x, basis, cfg.s1, cfg.s2, 0.3, np.random.default_rng(41))
            for x in (factors, g)
        ]
        assert rels[0].clip_fraction_s1 == rels[1].clip_fraction_s1
        assert rels[0].clip_fraction_s2 == rels[1].clip_fraction_s2 or method == "bgep"
        released = [rel.v_tilde for rel in rels]
        expected = oracle_release(
            g, basis, cfg, 0.3, np.random.default_rng(41), method == "gep"
        )
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(released[0] - released[1]) <= 1e-12 * scale
    assert np.linalg.norm(released[0] - expected) <= 1e-12 * scale


def low_rank_factors(rng, n, c, a, rank, noise):
    """Pieces ``delta (x) act`` and ``delta`` whose rows lie within ``noise``
    (relative) of a ``rank^2 + rank`` dimensional subspace."""
    u = rng.standard_normal((rank, c))
    v = rng.standard_normal((rank, a))
    delta = rng.standard_normal((n, rank)) @ u
    act = rng.standard_normal((n, rank)) @ v
    delta += noise * np.abs(delta).max() * rng.standard_normal(delta.shape)
    act += noise * np.abs(act).max() * rng.standard_normal(act.shape)
    pieces = (GradientPiece(0, delta, act), GradientPiece(c * a, delta))
    return FactoredGradients(pieces, c * a + c)


def test_factored_release_with_small_residuals_uses_the_guard():
    # residuals of a few percent of the gradient norm: most rows fall under
    # the cancellation guard and are materialized from their factors.  (At
    # residuals of 1e-6 the oracle's own g - W B keeps only 1e-10 relative,
    # so the one-row property test below checks that regime instead.)
    c, a, rank = 5, 7, 2
    factors = low_rank_factors(np.random.default_rng(48), 40, c, a, rank, 1e-2)
    anchor = low_rank_factors(np.random.default_rng(48), 30, c, a, rank, 0.0)
    k = rank * rank + rank
    basis = build_anchor_basis(
        anchor, single_group_layout(factors.p, k), make_cfg(k=k, m=30, t=4),
        np.random.default_rng(47),
    )
    assert basis.k_effective == k
    g = factors.dense()
    w, r = split(basis, g)
    guarded = row_norms(r) ** 2 < RESIDUAL_GUARD * row_norms(g) ** 2
    assert 0.5 < np.mean(guarded) < 1.0
    s1 = float(np.median(row_norms(w)))
    s2 = 0.5 * float(np.median(row_norms(r)))
    cfg = make_cfg(k=k, m=30, s1=s1, s2=s2)
    rel = release_gradient("gep", factors, basis, s1, s2, 0.0, np.random.default_rng(0))
    expected_r = clip_rows(r, s2).sum(axis=0)
    assert np.linalg.norm(rel.r_tilde - expected_r) <= 1e-12 * np.linalg.norm(expected_r)
    expected = oracle_release(g, basis, cfg, 0.0, np.random.default_rng(0), True)
    assert np.linalg.norm(rel.v_tilde - expected) <= 1e-12 * np.linalg.norm(expected)
    assert rel.clip_fraction_s2 == np.mean(row_norms(r) > s2)


@pytest.mark.parametrize("kind", sorted(MODEL_TASKS))
def test_factored_power_iteration_basis_matches_dense(kind):
    task = MODEL_TASKS[kind]()
    anchor = per_sample_factors(task.model, task.aux)
    layout = make_group_layout(task.model, 6)
    cfg = make_cfg(k=6, m=40, t=2)
    factored = build_anchor_basis(anchor, layout, cfg, np.random.default_rng(49))
    dense = build_anchor_basis(anchor.dense(), layout, cfg, np.random.default_rng(49))
    assert factored.k_effective == dense.k_effective == 6
    for block_f, block_d in zip(blocks(factored), blocks(dense)):
        assert np.max(np.abs(block_f - block_d)) <= 1e-12


def drop_row(factors, i):
    return FactoredGradients(
        [
            GradientPiece(
                piece.offset,
                np.delete(piece.delta, i, axis=0),
                None if piece.act is None else np.delete(piece.act, i, axis=0),
            )
            for piece in factors.pieces
        ],
        factors.p,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    resid_log10=st.floats(-8.0, 0.0),
    clip_q=st.floats(0.1, 0.9),
)
def test_one_row_moves_factored_sums_by_at_most_threshold(seed, n, resid_log10, clip_q):
    rng = np.random.default_rng(seed)
    c, a, rank = 4, 6, 2
    factors = low_rank_factors(rng, n + 1, c, a, rank, 10.0**resid_log10)
    factors.pieces[0].delta[:] *= 10.0 ** rng.uniform(-2.0, 2.0, size=(n + 1, 1))
    anchor = low_rank_factors(rng, 12, c, a, rank, 0.0)
    k = rank * rank
    basis = build_anchor_basis(
        anchor, single_group_layout(factors.p, k), make_cfg(k=k, m=12), rng
    )
    g = factors.dense()
    w, r = split(basis, g)
    s1 = float(np.quantile(row_norms(w), clip_q))
    s2 = float(np.quantile(row_norms(r), clip_q))
    s = float(np.quantile(row_norms(g), clip_q))
    full = release_gradient("gep", factors, basis, s1, s2, 0.0, np.random.default_rng(0))
    gp_full = release_gradient(
        "gp", factors, None, s, s, 0.0, np.random.default_rng(0)
    ).v_tilde * (n + 1)
    for i in range(n + 1):
        rest = drop_row(factors, i)
        reduced = release_gradient("gep", rest, basis, s1, s2, 0.0, np.random.default_rng(0))
        assert np.linalg.norm(full.w_tilde - reduced.w_tilde) <= s1 * (1 + 1e-12)
        assert np.linalg.norm(full.r_tilde - reduced.r_tilde) <= s2 * (1 + 1e-12)
        gp_reduced = release_gradient(
            "gp", rest, None, s, s, 0.0, np.random.default_rng(0)
        ).v_tilde * n
        assert np.linalg.norm(gp_full - gp_reduced) <= s * (1 + 1e-12)


@pytest.mark.parametrize("track_spectra", [False, True])
def test_gep_training_step_builds_no_n_by_p_matrix(track_spectra):
    # an MLP whose layer blocks are wider than 4 k_g: the release, the
    # basis and the stable-rank temporaries stay below a quarter of the G
    # they replace
    task = mlp_cluster_task(0, n=600, input_dim=48, classes=6, hidden_dim=96, m_aux=200)
    cfg = TrainConfig(
        model=task.model,
        gep=make_cfg(k=16, m=200, t=1, s1=1.0, s2=0.1),
        budget=DpBudget(8.0, 1e-5),
        steps=1,
        aux_data=task.aux,
        sigma_override=1.0,
        track_spectra=track_spectra,
    )
    tracemalloc.start()
    try:
        _, metrics = dp_train(cfg, task.private, task.eval)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics[0].clip_fraction_s1 > 0.0 and metrics[0].clip_fraction_s2 > 0.0
    assert math.isnan(metrics[0].stable_rank_r) != track_spectra
    assert peak < 0.25 * task.private.n * task.model.p * 8


# ---------------------------------------------------------------------------
# Gram path: power bases held as coefficients over the anchor gradients


def shaped_factors(m, shapes):
    """Zero factors whose pieces have the given ``(c, a)`` shapes (a=1: bias)."""
    pieces, offset = [], 0
    for c, a in shapes:
        act = None if a == 1 else np.zeros((m, a))
        pieces.append(GradientPiece(offset, np.zeros((m, c)), act))
        offset += c * a
    return FactoredGradients(pieces, offset)


def held_kinds(basis):
    return [type(block).__name__ for block in basis.held]


def test_gram_shape_rule_picks_wide_mlp_layers_only():
    # mlp-wide (d=64, h=128, 10 classes, m=400, k=40): layer 1 only
    task = mlp_cluster_task(0, n=20, input_dim=64, classes=10, hidden_dim=128, m_aux=400)
    anchor = per_sample_factors(task.model, task.aux)
    layout = make_group_layout(task.model, 40)
    picks = [
        gram_path_pays(anchor.columns(g.offset, g.offset + g.length), g.k_alloc)
        for g in layout.groups
    ]
    assert [g.k_alloc for g in layout.groups] == [29, 11]
    assert picks == [True, False]
    basis = build_anchor_basis(anchor, layout, make_cfg(k=40, m=400, t=1), np.random.default_rng(0))
    assert held_kinds(basis) == ["AnchorCoefficients", "ndarray"]
    random = build_anchor_basis(
        anchor, layout, make_cfg(k=40, m=400), np.random.default_rng(0), basis_mode="random"
    )
    assert held_kinds(random) == ["ndarray", "ndarray"]
    # logistic workloads, one (classes x (d + 1)) block: logreg-full and
    # poisson-q05 (m=400, k=6), cli-grid (m=200, k=8)
    assert not gram_path_pays(shaped_factors(400, [(2, 200)]), 6)
    assert not gram_path_pays(shaped_factors(200, [(2, 101)]), 8)
    # criterion 8's dense anchors, every group split
    for groups in (1, 2, 5):
        p_g = 1000 // groups
        assert not gram_path_pays(as_factors(np.zeros((100, p_g))), 20)


@settings(max_examples=40, deadline=None, derandomize=True)
# exactly singular K, held as coefficients (k=4) and falling back (k=6, 8)
@example(seed=1, c=16, a=12, k=4, extra_m=3, t=1, rank=2, noise=0.0)
@example(seed=2, c=30, a=24, k=6, extra_m=1, t=2, rank=2, noise=0.0)
@example(seed=3, c=20, a=18, k=8, extra_m=6, t=2, rank=2, noise=0.0)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(16, 30),
    a=st.integers(12, 24),
    k=st.integers(3, 8),
    extra_m=st.integers(1, 6),
    t=st.sampled_from([1, 2]),
    rank=st.integers(1, 2),
    noise=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 0.1, 1.0]),
)
def test_gram_basis_is_orthonormal_or_falls_back(seed, c, a, k, extra_m, t, rank, noise):
    rng = np.random.default_rng(seed)
    m = k + extra_m
    anchor = low_rank_factors(rng, m, c, a, rank, noise)
    if noise == 0.0:
        # an exactly singular K: a duplicate row and an all-zero row too;
        # the jittered Cholesky of the start draw still factors it
        weight, bias = anchor.pieces
        weight.delta[1], weight.act[1] = weight.delta[0], weight.act[0]
        weight.delta[-1] = 0.0
        assert bias.delta is weight.delta
    assert gram_path_pays(anchor, k)
    basis = build_anchor_basis(
        anchor, single_group_layout(anchor.p, k), make_cfg(k=k, m=m, t=t), rng
    )
    block = blocks(basis)[0]
    assert np.max(np.abs(block @ block.T - np.eye(block.shape[0]))) <= 1e-12
    # the anchors span rank^2 + rank directions up to the noise: a larger
    # basis is near rank deficient, beyond what the Gram path can resolve
    if k > rank * rank + rank and noise <= 1e-4:
        assert held_kinds(basis) == ["ndarray"]


def test_gram_start_draw_has_the_law_of_the_dense_start():
    # the columns of G_a B_0^T are i.i.d. N(0, K); so are those of W_0 = L z
    rng = np.random.default_rng(0)
    m, c, a, k = 12, 8, 6, 20_000
    delta, act = rng.standard_normal((m, c)), rng.standard_normal((m, a))
    pieces = [GradientPiece(0, delta, act), GradientPiece(c * a, delta)]
    anchor = FactoredGradients(pieces, c * a + c)
    assert gram_path_pays(anchor, 8)
    gram = anchor.dense() @ anchor.dense().T
    # E ||W W^T / k - K||_F^2 = (||K||_F^2 + tr(K)^2) / k for N(0, K) columns
    spread = math.sqrt((np.linalg.norm(gram) ** 2 + np.trace(gram) ** 2) / k)
    w, held_gram = _power_start(anchor, k, rng)
    assert held_gram is not None and w.shape == (m, k)
    dense_start = anchor.embed(rng.standard_normal((k, anchor.p)))
    isotropic = math.sqrt(np.trace(gram) / m) * rng.standard_normal((m, k))
    for start in (w, dense_start):
        assert np.linalg.norm(start @ start.T / k - gram) <= 3 * spread
    assert np.linalg.norm(isotropic @ isotropic.T / k - gram) > 10 * spread


GRAM_MLP = dict(input_dim=24, classes=3, hidden_dim=32, m_aux=40)


def gram_mlp_basis(task, t=2, seed=40):
    layout = make_group_layout(task.model, 12)
    basis = build_anchor_basis(
        per_sample_factors(task.model, task.aux), layout, make_cfg(k=12, m=40, t=t),
        np.random.default_rng(seed),
    )
    assert held_kinds(basis) == ["AnchorCoefficients", "ndarray"]
    return basis


@pytest.mark.parametrize("t", [1, 2])
def test_gram_basis_matches_the_dense_rounds(t):
    task = mlp_cluster_task(3, n=120, **GRAM_MLP)
    anchor = per_sample_factors(task.model, task.aux)
    basis = gram_mlp_basis(task, t=t)
    rng = np.random.default_rng(40)
    for group, block in zip(basis.layout.groups, blocks(basis)):
        # the group's own start W_0, then the dense rounds on dense anchors
        cols = anchor.columns(group.offset, group.offset + group.length)
        w, _ = _power_start(cols, group.k_alloc, rng)
        dense = _dense_power_rounds(as_factors(cols.dense()), w, t)
        assert block.shape == dense.shape
        assert np.max(np.abs(block - dense)) <= 1e-12
    # the same release as from the dense blocks, in fewer multiply-adds
    g = per_sample_factors(task.model, task.private)
    rels, counts = [], []
    for b in (basis, AnchorBasis(basis.layout, blocks(basis))):
        with count_flops() as counter:
            rels.append(release_gradient("gep", g, b, 0.1, 0.1, 0.5, np.random.default_rng(1)))
        counts.append(counter.macs)
    scale = np.linalg.norm(rels[1].v_tilde)
    assert np.linalg.norm(rels[0].v_tilde - rels[1].v_tilde) <= 1e-12 * scale
    assert counts[0] < counts[1]


@pytest.mark.parametrize("method", ["gep", "bgep"], ids=["gep_release", "bgep_release"])
def test_gram_release_matches_explicit_oracle(method):
    task = mlp_cluster_task(3, n=120, **GRAM_MLP)
    factors = per_sample_factors(task.model, task.private)
    g = factors.dense()
    basis = gram_mlp_basis(task)
    w, r = split(basis, g)
    s1 = float(np.median(row_norms(w)))
    s2 = float(np.median(row_norms(r)))
    cfg = make_cfg(k=12, m=40, t=2, s1=s1, s2=s2)
    with_residual = method == "gep"
    expected = oracle_release(g, basis, cfg, 0.3, np.random.default_rng(41), with_residual)
    scale = np.linalg.norm(expected)
    for x in (factors, g):
        rel = release_gradient(method, x, basis, s1, s2, 0.3, np.random.default_rng(41))
        assert np.linalg.norm(rel.v_tilde - expected) <= 1e-12 * scale
        assert rel.clip_fraction_s1 == np.mean(row_norms(w) > s1)
        if with_residual:
            assert rel.clip_fraction_s2 == np.mean(row_norms(r) > s2)
        assert rel.projection_error_rate == pytest.approx(
            np.linalg.norm(r.sum(axis=0)) / np.linalg.norm(g.sum(axis=0)), rel=1e-10
        )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    clip_q=st.floats(0.1, 0.9),
)
def test_one_row_moves_gram_release_sums_by_at_most_threshold(seed, n, clip_q):
    task = mlp_cluster_task(seed % 1000, n=17, **GRAM_MLP)
    basis = gram_mlp_basis(task, t=1 + seed % 2, seed=seed)
    factors = per_sample_factors(task.model, task.private.subset(np.arange(n + 1)))
    w, r = split(basis, factors.dense())
    s1 = float(np.quantile(row_norms(w), clip_q))
    s2 = float(np.quantile(row_norms(r), clip_q))
    full = release_gradient("gep", factors, basis, s1, s2, 0.0, np.random.default_rng(0))
    for i in range(n + 1):
        reduced = release_gradient(
            "gep", drop_row(factors, i), basis, s1, s2, 0.0, np.random.default_rng(0)
        )
        assert np.linalg.norm(full.w_tilde - reduced.w_tilde) <= s1 * (1 + 1e-12)
        assert np.linalg.norm(full.r_tilde - reduced.r_tilde) <= s2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Matrix-free stable ranks against the dense oracle

SPECTRA_TASKS = {
    "logistic": (lambda: logistic_mixture_task(3, n=120, input_dim=29, m_aux=40, n_eval=10), 6),
    "gram-mlp": (lambda: mlp_cluster_task(3, n=120, **GRAM_MLP), 12),
    "guarded-lowrank": (
        lambda: lowrank_regression_task(3, n=120, input_dim=39, rank=4, tail=0.05, m_aux=40),
        5,
    ),
}


@pytest.mark.parametrize("kind", sorted(SPECTRA_TASKS))
def test_stable_rank_matches_the_dense_oracle(kind):
    make_task, k = SPECTRA_TASKS[kind]
    task = make_task()
    factors = per_sample_factors(task.model, task.private)
    basis = build_anchor_basis(
        per_sample_factors(task.model, task.aux), make_group_layout(task.model, k),
        make_cfg(k=k, m=40, t=2), np.random.default_rng(5),
    )
    g = factors.dense()
    _, r = split(basis, g)
    if kind == "gram-mlp":
        assert held_kinds(basis) == ["AnchorCoefficients", "ndarray"]
    if kind == "guarded-lowrank":
        assert np.any(row_norms(r) ** 2 < RESIDUAL_GUARD * row_norms(g) ** 2)
    sr_g, sr_r = dense_stable_rank(g), dense_stable_rank(r)
    for x in (factors, g):
        assert stable_rank(x) == pytest.approx(sr_g, rel=SPECTRAL_TOL)
        assert stable_rank(x, basis) == pytest.approx(sr_r, rel=SPECTRAL_TOL)
