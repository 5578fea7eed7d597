"""Model tests: gradient correctness, parameter grouping, evaluation."""

import math

import numpy as np
import pytest

from gep.data import Dataset, SynthParams, synth_dataset
from gep.linalg import count_flops
from gep.models import (
    _log_softmax,
    _softmax,
    allocate_basis_counts,
    evaluate,
    forward,
    init_model,
    make_group_layout,
    param_count,
    per_sample_factors,
    per_sample_gradients,
)
from gep.tasks import mlp_cluster_task
from oracle import forward_logits, log_softmax, softmax, stable_rank


def numerical_gradient(model, data, h=1e-5):
    """Central finite differences of the mean loss (independent oracle)."""
    base = model.theta.copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] += h
        up, _ = evaluate(model.with_theta(bumped), data)
        bumped[i] -= 2 * h
        down, _ = evaluate(model.with_theta(bumped), data)
        grad[i] = (up - down) / (2 * h)
    return grad


def random_model_and_data(kind, rng, n=12):
    if kind == "linear":
        model = init_model("linear", 5, 1, rng=rng, scale=0.7)
        data = Dataset(rng.standard_normal((n, 5)), rng.standard_normal(n))
    elif kind == "logistic":
        model = init_model("logistic", 4, 3, rng=rng, scale=0.7)
        data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, 3, size=n))
    else:
        model = init_model("mlp", 4, 3, hidden_dim=6, rng=rng, scale=0.9)
        data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, 3, size=n))
    return model, data


def test_linear_gradient_at_origin():
    model = init_model("linear", 3, 1)
    x = np.array([[1.0, -2.0, 0.5]])
    y = np.array([2.0])
    rows = per_sample_gradients(model, Dataset(x, y))
    np.testing.assert_allclose(rows[0], -2.0 * np.array([1.0, -2.0, 0.5, 1.0]))


def test_linear_gradient_aligned_with_features():
    # least squares: each row is the augmented feature scaled by the residual,
    # so labels change only the length, never the direction
    rng = np.random.default_rng(0)
    model = init_model("linear", 6, 1, rng=rng, scale=0.5)
    features = rng.standard_normal((8, 6))
    for labels in (rng.standard_normal(8), rng.standard_normal(8) * 100):
        rows = per_sample_gradients(model, Dataset(features, labels))
        augmented = np.hstack([features, np.ones((8, 1))])
        cos = np.abs(np.einsum("ij,ij->i", rows, augmented)) / (
            np.linalg.norm(rows, axis=1) * np.linalg.norm(augmented, axis=1)
        )
        np.testing.assert_allclose(cos, 1.0, rtol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(42)
    for _ in range(10):
        model, data = random_model_and_data(kind, rng)
        rows = per_sample_gradients(model, data)
        mean_grad = rows.mean(axis=0)
        oracle = numerical_gradient(model, data)
        np.testing.assert_allclose(mean_grad, oracle, atol=1e-5, rtol=1e-4)


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_per_sample_additivity(kind):
    rng = np.random.default_rng(7)
    model, data = random_model_and_data(kind, rng, n=20)
    rows = per_sample_gradients(model, data)
    # the batch gradient is exactly the mean of the per-sample rows
    half = Dataset(data.features[:10], data.labels[:10])
    rows_half = per_sample_gradients(model, half)
    np.testing.assert_allclose(rows[:10], rows_half, rtol=1e-12)


def test_duplicated_sample_rows_identical():
    rng = np.random.default_rng(3)
    model, data = random_model_and_data("logistic", rng, n=4)
    doubled = Dataset(
        np.vstack([data.features, data.features[:1]]),
        np.concatenate([data.labels, data.labels[:1]]),
    )
    rows = per_sample_gradients(model, doubled)
    np.testing.assert_array_equal(rows[0], rows[4])


def test_gradient_input_validation():
    model = init_model("logistic", 4, 3)
    with pytest.raises(ValueError):
        per_sample_gradients(model, Dataset(np.ones((2, 5)), np.zeros(2, dtype=int)))
    with pytest.raises(ValueError):
        per_sample_gradients(
            model, Dataset(np.ones((0, 4)), np.zeros(0, dtype=int))
        )


def test_evaluate_cases():
    rng = np.random.default_rng(5)
    # uniform-random labels give chance accuracy
    n = 10_000
    data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, 10, size=n))
    model = init_model("logistic", 4, 10, rng=rng, scale=0.3)
    _, acc = evaluate(model, data)
    assert abs(acc - 0.1) <= 0.02

    # zero-parameter binary logistic: symmetric start
    model0 = init_model("logistic", 4, 2)
    loss, _ = evaluate(model0, Dataset(rng.standard_normal((50, 4)),
                                       rng.integers(0, 2, size=50)))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    # regression reports no accuracy
    lin = init_model("linear", 4, 1)
    loss, acc = evaluate(lin, Dataset(rng.standard_normal((5, 4)),
                                      rng.standard_normal(5)))
    assert math.isnan(acc)

    # float class labels must be exact integers: no rounding of 1.000001
    x = rng.standard_normal((3, 4))
    with pytest.raises(ValueError, match="integers"):
        evaluate(model0, Dataset(x, np.array([0.0, 1.0, 1.000001])))
    with pytest.raises(ValueError, match="integers"):
        per_sample_factors(model0, Dataset(x, np.array([0.0, 1.0, 1.000001])))
    floats = Dataset(x, np.array([0.0, 1.0, 1.0]))
    ints = Dataset(x, np.array([0, 1, 1]))
    assert floats.labels.dtype == np.float64
    assert evaluate(model0, floats) == evaluate(model0, ints)


def test_evaluate_perfect_separable_fit():
    data = synth_dataset(
        "separable",
        SynthParams(n=200, input_dim=6, margin=1.0),
        np.random.default_rng(11),
    )
    # fit by a few steps of full-batch gradient descent
    model = init_model("logistic", 6, 2)
    theta = model.theta.copy()
    for _ in range(300):
        rows = per_sample_gradients(model.with_theta(theta), data)
        theta -= 0.5 * rows.mean(axis=0)
    _, acc = evaluate(model.with_theta(theta), data)
    assert acc == 1.0


def test_param_counts():
    assert param_count("linear", 5, 1) == 6
    assert param_count("logistic", 5, 3) == 18
    assert param_count("mlp", 5, 3, 7) == 5 * 7 + 7 + 3 * 7 + 3
    with pytest.raises(ValueError):
        param_count("linear", 5, 2)


def test_allocate_basis_counts_sqrt_rule():
    # sizes 4:1 whose sqrt weights are 2:1
    assert allocate_basis_counts([400, 100], 3) == [2, 1]
    # three blocks: exact partition regardless of rounding
    for k in (3, 7, 30, 57):
        counts = allocate_basis_counts([500, 80, 20], k)
        assert sum(counts) == k
        assert all(c >= 1 for c in counts)
    # caps at the block dimension
    counts = allocate_basis_counts([2, 1000], 40)
    assert counts[0] <= 2 and sum(counts) == 40
    # quotas 2:3 after rounding, the first capped at 1: the freed unit
    # goes to the group with room
    assert allocate_basis_counts([1, 4], 5) == [1, 4]
    with pytest.raises(ValueError):
        allocate_basis_counts([10, 10], 1)


def test_make_group_layout():
    lin = init_model("linear", 9, 1)
    layout = make_group_layout(lin, 4)
    assert len(layout.groups) == 1
    assert layout.groups[0].k_alloc == 4
    assert layout.dim == 10

    mlp = init_model("mlp", 10, 3, 8, rng=np.random.default_rng(0), scale=1.0)
    layout = make_group_layout(mlp, 30)
    assert len(layout.groups) == 2
    assert sum(g.k_alloc for g in layout.groups) == 30
    assert layout.dim == mlp.p
    # contiguous tiling
    assert layout.groups[0].offset == 0
    assert layout.groups[1].offset == layout.groups[0].length

    with pytest.raises(ValueError):
        make_group_layout(mlp, 1)  # fewer basis vectors than groups


def test_mlp_gradient_matrix_is_redundant():
    # clustered data keeps the gradient matrix far from full stable rank
    task = mlp_cluster_task(seed=0)
    rows = per_sample_gradients(task.model, task.private)
    n, p = rows.shape
    assert stable_rank(rows) <= 0.2 * min(n, p)


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_factored_identities_match_dense(kind):
    # norms, embedding, back-projection and weighted sums computed from the
    # outer-product factors agree with the dense gradient matrix
    rng = np.random.default_rng(8)
    model, data = random_model_and_data(kind, rng, n=15)
    factors = per_sample_factors(model, data)
    g = per_sample_gradients(model, data)
    assert factors.shape == g.shape
    np.testing.assert_array_equal(factors.dense(), g)
    np.testing.assert_array_equal(factors.dense(np.array([4, 0, 4])), g[[4, 0, 4]])

    def close(x, y):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    close(factors.sq_norms(), np.einsum("ij,ij->i", g, g))
    basis = rng.standard_normal((3, g.shape[1]))
    w = rng.standard_normal((data.n, 3))
    with count_flops() as counter:
        close(factors.embed(basis), g @ basis.T)
        close(factors.back_project(w), w.T @ g)
    assert counter.macs == 2 * 3 * g.shape[0] * g.shape[1]
    weights = rng.random(data.n)
    close(factors.weighted_sum(weights), weights @ g)
    close(factors.weighted_sum(), g.sum(axis=0))
    # every piece lies inside one basis group
    for group in make_group_layout(model, 2).groups:
        cols = slice(group.offset, group.offset + group.length)
        np.testing.assert_array_equal(
            factors.columns(cols.start, cols.stop).dense(), g[:, cols]
        )


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_every_layer_is_one_piece_on_a_bias_augmented_input(kind):
    # delta (x) [a, 1] per layer: one piece per basis group, none with a = 1
    model, data = random_model_and_data(kind, np.random.default_rng(12), n=9)
    factors = per_sample_factors(model, data)
    groups = make_group_layout(model, 2).groups
    assert [(piece.offset, piece.width) for piece in factors.pieces] == [
        (group.offset, group.length) for group in groups
    ]
    assert all(piece.act is not None for piece in factors.pieces)
    first = factors.pieces[0]
    assert first.act is data.design and first.act_sq is data.design_sq_norms
    if kind == "mlp":
        hidden = factors.pieces[1].act
        assert hidden.shape == (data.n, model.hidden_dim + 1)
        assert np.all(hidden[:, -1] == 1.0)


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_one_forward_feeds_evaluate_and_the_backward_pass(kind):
    rng = np.random.default_rng(9)
    model, data = random_model_and_data(kind, rng, n=15)
    fwd = forward(model, data)
    assert evaluate(model, data, fwd) == evaluate(model, data)
    np.testing.assert_array_equal(
        per_sample_factors(model, data, fwd).dense(), per_sample_gradients(model, data)
    )
    assert (fwd.hidden is not None) == (kind == "mlp")
    # a forward pass of another model or dataset is refused
    other = model.with_theta(model.theta + 1.0)
    with pytest.raises(ValueError, match="another model or dataset"):
        evaluate(other, data, fwd)
    with pytest.raises(ValueError, match="another model or dataset"):
        per_sample_factors(model, data.subset(np.arange(data.n)), fwd)


def test_softmax_matches_the_row_wise_oracle():
    rng = np.random.default_rng(10)
    # two classes: the class-major reductions add and compare the same pairs
    z = rng.standard_normal((2000, 2)) * 3.0
    assert _softmax(z).tobytes() == softmax(z).tobytes()
    assert _log_softmax(z).tobytes() == log_softmax(z).tobytes()
    # ten classes: numpy's pairwise row sum and the class-major running sum
    # add the same ten terms in another order
    z = rng.standard_normal((2000, 10))
    probs = softmax(z)
    assert np.all(np.abs(_softmax(z) - probs) <= 4 * np.spacing(probs))
    # every row's sum is at least 1 (its largest term is exp(0)), so the
    # order moves the log-sum by ulps of 1 even where an entry is near 0
    logs = log_softmax(z)
    assert np.all(np.abs(_log_softmax(z) - logs) <= 4 * np.spacing(np.maximum(np.abs(logs), 1.0)))
    assert _softmax(z).flags.c_contiguous
    # far-off logits stay finite: both subtract each row's largest first
    for offset in (-1e3, 1e3):
        shifted = z + offset
        assert np.all(np.isfinite(_softmax(shifted)))
        assert np.all(np.isfinite(_log_softmax(shifted)))
        np.testing.assert_allclose(_softmax(shifted).sum(axis=1), 1.0, rtol=1e-14)


def test_forward_logits_match_the_oracle():
    rng = np.random.default_rng(11)
    data = Dataset(rng.standard_normal((2000, 200)), rng.integers(0, 2, size=2000))
    model = init_model("logistic", 200, 2, rng=rng, scale=0.5)
    expected = forward_logits(model, data)
    # a contiguous weight copy changes only OpenBLAS's summation order
    got = forward(model, data).logits
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    # the other kinds multiply as before, bit for bit
    linear = init_model("linear", 200, 1, rng=rng, scale=0.5)
    assert forward(linear, data).logits.tobytes() == forward_logits(linear, data).tobytes()
    small = Dataset(rng.standard_normal((300, 20)), rng.integers(0, 4, size=300))
    mlp = init_model("mlp", 20, 4, hidden_dim=16, rng=rng, scale=1.0)
    assert forward(mlp, small).logits.tobytes() == forward_logits(mlp, small).tobytes()
