"""Networks: forward passes, gradients vs finite differences, Adam, k-means."""

import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from riskdomains.domains import CLASSIFIED_DOMAINS, Domain
from riskdomains.errors import ConfigError, DataError, NumericalError
from riskdomains.networks import (
    HIDDEN,
    AdamState,
    MlpModel,
    RbfModel,
    TrainConfig,
    adam_step,
    build_rbf_prototypes,
    compute_rbf_width,
    dropout_mask,
    init_mlp,
    init_rbf,
    kmeans,
    mlp_forward,
    mlp_loss_and_grads,
    one_hot,
    rbf_features,
    rbf_forward,
    rbf_loss_and_grads,
    squared_distances,
    train_mlp,
    train_rbf,
)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # The 1e-4 floor keeps finite-difference noise on near-zero entries from
    # blowing up the ratio; true gradients of interest are well above it.
    denom = np.abs(analytic) + np.abs(numeric) + 1e-4
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_gradient(loss_fn, array: np.ndarray, coords, h=1e-5) -> np.ndarray:
    grad = np.zeros(len(coords))
    for n, idx in enumerate(coords):
        original = array[idx]
        array[idx] = original + h
        up = loss_fn()
        array[idx] = original - h
        down = loss_fn()
        array[idx] = original
        grad[n] = (up - down) / (2 * h)
    return grad


def sample_coords(rng, shape, count=25):
    flat = [tuple(idx) for idx in itertools.product(*map(range, shape))]
    picks = rng.choice(len(flat), size=min(count, len(flat)), replace=False)
    return [flat[i] for i in picks]


def separable_data(rng, n_per_class=6, dim=20):
    xs, labels = [], []
    for i in range(7):
        center = np.zeros(dim)
        center[i] = 3.0
        xs.append(center + 0.3 * rng.normal(size=(n_per_class, dim)))
        labels.extend([i] * n_per_class)
    return np.vstack(xs), one_hot(np.array(labels))


class TestMlpForward:
    def zero_model(self, dim=10):
        return MlpModel(
            w1=np.zeros((dim, HIDDEN)), b1=np.zeros(HIDDEN),
            w2=np.zeros((HIDDEN, HIDDEN)), b2=np.zeros(HIDDEN),
            w3=np.zeros((HIDDEN, 7)), b3=np.zeros(7),
        )

    def test_zero_parameters_give_half(self):
        out = mlp_forward(self.zero_model(), np.ones((3, 10)))
        assert np.allclose(out, 0.5)

    def test_infer_is_repeatable(self):
        rng = np.random.default_rng(0)
        model = init_mlp(10, rng)
        x = rng.normal(size=(4, 10))
        assert np.array_equal(mlp_forward(model, x), mlp_forward(model, x))

    def test_outputs_strictly_in_unit_interval(self):
        rng = np.random.default_rng(1)
        model = init_mlp(10, rng)
        out = mlp_forward(model, 5 * rng.normal(size=(20, 10)))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        model = init_mlp(10, rng)
        with pytest.raises(DataError):
            mlp_forward(model, np.ones((1, 9)))

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("w1", (10,)),
            ("b1", (HIDDEN, 1)),
            ("w2", (50, 200)),
            ("b2", (HIDDEN, 1)),
            ("w3", (HIDDEN, 6)),
            ("b3", (7, 1)),
        ],
    )
    def test_parameter_shapes_must_fit(self, name, shape):
        params = self.zero_model().params()
        params[name] = np.zeros(shape)
        with pytest.raises(DataError, match=rf"\b{name}\b.*shape \[{shape[0]}"):
            MlpModel(**params)

    def test_scores_is_the_forward_pass(self):
        model = init_mlp(10, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(5, 10))
        assert np.array_equal(model.scores(x), mlp_forward(model, x))


class TestGradients:
    @pytest.mark.parametrize("loss", ["cce", "bce", "mse"])
    def test_mlp_all_layers(self, loss):
        rng = np.random.default_rng(42)
        model = init_mlp(12, rng)
        x = 0.5 * rng.normal(size=(5, 12))
        y = one_hot(rng.integers(0, 7, size=5))
        _, grads = mlp_loss_and_grads(model, x, y, kind=loss)
        params = model.params()
        worst = 0.0
        for name, array in params.items():
            coords = sample_coords(rng, array.shape)
            numeric = fd_gradient(
                lambda: mlp_loss_and_grads(model, x, y, kind=loss)[0],
                array, coords,
            )
            analytic = np.array([grads[name][idx] for idx in coords])
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    @pytest.mark.parametrize("loss", ["cce", "bce", "mse"])
    def test_rbf_output_layer(self, loss):
        rng = np.random.default_rng(43)
        prototypes = rng.normal(size=(20, 8))
        model = init_rbf(prototypes, width=1.3, rng=rng)
        x = rng.normal(size=(5, 8))
        y = one_hot(rng.integers(0, 7, size=5))
        _, grads = rbf_loss_and_grads(model, x, y, kind=loss)
        worst = 0.0
        for name, array in model.params().items():
            coords = sample_coords(rng, array.shape)
            numeric = fd_gradient(
                lambda: rbf_loss_and_grads(model, x, y, kind=loss)[0],
                array, coords,
            )
            analytic = np.array([grads[name][idx] for idx in coords])
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        adam_step(AdamState(), params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_single_step_hand_value(self):
        params = {"w": np.array([1.0])}
        adam_step(AdamState(), params, {"w": np.array([1.0])})
        assert params["w"][0] == pytest.approx(0.999, abs=1e-6)
        assert params["w"][0] == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-15)

    def test_three_steps_descend_quadratic(self):
        params = {"w": np.array([1.0])}
        state = AdamState()
        previous = 1.0
        for _ in range(3):
            adam_step(state, params, {"w": 2 * params["w"]})
            assert abs(params["w"][0]) < previous
            previous = abs(params["w"][0])

    def test_non_finite_gradient(self):
        with pytest.raises(NumericalError):
            adam_step(AdamState(), {"w": np.ones(1)}, {"w": np.array([np.nan])})


class TestKmeans:
    def test_unit_square_corners(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        result = kmeans(points, k=4, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(map(tuple, result.centroids)) == sorted(map(tuple, points))

    def test_k_one_is_mean(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(13, 4))
        result = kmeans(points, k=1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)

    def test_separated_pairs_global_optimum(self):
        points = np.array(
            [[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [10.0, 10.0], [10.2, 10.0], [10.0, 10.2]]
        )
        result = kmeans(points, k=2, seed=1)
        best = brute_force_kmeans_sse(points, 2)
        assert result.inertia == pytest.approx(best, abs=1e-9)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            points = rng.normal(size=(rng.integers(5, 40), rng.integers(1, 5)))
            k = int(rng.integers(1, min(5, len(points)) + 1))
            history = kmeans(points, k=k, seed=trial).history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_too_few_points(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((2, 2)), k=3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(30, 3))
        a = kmeans(points, k=4, seed=9)
        b = kmeans(points, k=4, seed=9)
        assert np.array_equal(a.centroids, b.centroids)


class TestSquaredDistances:
    @pytest.mark.parametrize("m, n, d", [(1, 1, 3), (1, 9, 4), (8, 1, 4), (13, 9, 100)])
    def test_matches_cdist(self, m, n, d):
        """cdist is the test-only reference; the product form may differ from
        it by rounding on the scale of the squared norms."""
        rng = np.random.default_rng(m * n * d)
        a = rng.normal(scale=3.0, size=(m, d))
        b = rng.normal(scale=3.0, size=(n, d))
        d2 = squared_distances(a, b)
        scale = (a * a).sum(axis=1).max() + (b * b).sum(axis=1).max()
        assert d2.shape == (m, n)
        assert np.abs(d2 - cdist(a, b, "sqeuclidean")).max() <= 1e-12 * scale

    def test_identical_rows_are_not_negative(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(40, 100))
        d2 = squared_distances(a, a)
        assert d2.min() >= 0.0
        assert np.diag(d2).max() <= 1e-12 * (a * a).sum(axis=1).max()

    def test_rounding_does_not_trip_the_inertia_check(self):
        """Copies of a point lie a few ulps from their centroid, not 0, so
        inertia is rounding noise that must not read as an increase."""
        rng = np.random.default_rng(0)
        unit = rng.normal(size=(3, 100))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        result = kmeans(np.repeat(unit, 7, axis=0), k=5, seed=0)
        assert result.inertia < 1e-12
        nearest = squared_distances(unit, result.centroids).min(axis=1)
        assert nearest.max() < 1e-12


def brute_force_kmeans_sse(points: np.ndarray, k: int) -> float:
    """Exact optimum by enumerating every assignment of points to k clusters."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        sse = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if assignment[i] == j]]
            centroid = members.mean(axis=0)
            sse += float(((members - centroid) ** 2).sum())
        best = min(best, sse)
    return best


class TestRbfPieces:
    def test_prototypes_from_identical_vectors(self):
        vector = np.arange(5.0)
        vectors_by_domain = {
            d: np.tile(vector, (50, 1)) for d in CLASSIFIED_DOMAINS
        }
        prototypes = build_rbf_prototypes(vectors_by_domain, per_domain_k=50, seed=0)
        assert prototypes.shape == (350, 5)
        assert np.allclose(prototypes, vector)

    def test_prototypes_deterministic(self):
        rng = np.random.default_rng(6)
        vectors_by_domain = {
            d: rng.normal(size=(12, 4)) for d in CLASSIFIED_DOMAINS
        }
        a = build_rbf_prototypes(vectors_by_domain, per_domain_k=3, seed=2)
        b = build_rbf_prototypes(vectors_by_domain, per_domain_k=3, seed=2)
        assert np.array_equal(a, b)

    def test_insufficient_vectors_names_domain(self):
        rng = np.random.default_rng(7)
        vectors_by_domain = {d: rng.normal(size=(60, 4)) for d in CLASSIFIED_DOMAINS}
        vectors_by_domain[Domain.OCCUPATION] = rng.normal(size=(10, 4))
        with pytest.raises(DataError, match="Occupation"):
            build_rbf_prototypes(vectors_by_domain, per_domain_k=50, seed=0)

    def test_width_two_prototypes(self):
        prototypes = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert compute_rbf_width(prototypes) == pytest.approx(
            2.0 / np.sqrt(2.0), abs=1e-12
        )

    def test_width_350_prototypes(self):
        # d_max / sqrt(2), independent of the prototype count.
        prototypes = np.zeros((350, 3))
        prototypes[-1, 0] = 5.0
        assert compute_rbf_width(prototypes) == pytest.approx(
            5.0 / np.sqrt(2.0), abs=1e-12
        )
        assert compute_rbf_width(prototypes) == pytest.approx(3.535534, abs=1e-6)

    def test_width_coincident_prototypes(self):
        with pytest.raises(DataError):
            compute_rbf_width(np.ones((5, 3)))

    def test_forward_at_prototype(self):
        rng = np.random.default_rng(9)
        prototypes = rng.normal(size=(6, 4))
        model = init_rbf(prototypes, width=0.8, rng=rng)
        features = rbf_features(model, prototypes[2])
        assert features[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_forward_zero_weights_returns_bias(self):
        prototypes = np.array([[0.0, 0.0], [1.0, 1.0]])
        bias = np.arange(7.0)
        model = RbfModel(prototypes=prototypes, width=1.0, w=np.zeros((2, 7)), b=bias)
        out = rbf_forward(model, np.array([[5.0, -3.0]]))
        assert np.allclose(out, bias)

    def test_gaussian_decay_monotone(self):
        prototypes = np.array([[0.0], [10.0]])
        model = RbfModel(prototypes=prototypes, width=1.0, w=np.zeros((2, 7)), b=np.zeros(7))
        values = [rbf_features(model, np.array([[d]]))[0, 0] for d in [0.0, 0.5, 1.0, 2.0, 4.0]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_forward_dimension_mismatch(self):
        prototypes = np.zeros((2, 3))
        model = RbfModel(prototypes=prototypes, width=1.0, w=np.zeros((2, 7)), b=np.zeros(7))
        with pytest.raises(DataError):
            rbf_forward(model, np.ones((1, 4)))

    @pytest.mark.parametrize(
        "change, pattern",
        [
            ({"prototypes": np.zeros(6)}, r"prototypes .*shape \[6\]"),
            ({"w": np.zeros((3, 7))}, r"\bw\b.*shape \[3, 7\]"),
            ({"b": np.zeros((7, 1))}, r"\bb\b.*shape \[7, 1\]"),
            ({"width": 0.0}, "width"),
            ({"width": -1.0}, "width"),
            ({"width": float("nan")}, "width"),
            ({"width": float("inf")}, "width"),
        ],
    )
    def test_parameters_must_fit(self, change, pattern):
        params = {"prototypes": np.zeros((2, 3)), "width": 1.0,
                  "w": np.zeros((2, 7)), "b": np.zeros(7)}
        with pytest.raises(DataError, match=pattern):
            RbfModel(**{**params, **change})

    def test_scores_is_the_forward_pass(self):
        rng = np.random.default_rng(5)
        model = init_rbf(rng.normal(size=(6, 4)), width=0.8, rng=rng)
        x = rng.normal(size=(3, 4))
        assert np.array_equal(model.scores(x), rbf_forward(model, x))


class TestTraining:
    def test_mlp_bit_deterministic(self):
        rng = np.random.default_rng(10)
        x, y = separable_data(rng)
        config = TrainConfig(epochs=3, batch_size=16, seed=7, loss="cce")
        a, history_a = train_mlp(x, y, config)
        b, history_b = train_mlp(x, y, config)
        for name in a.params():
            assert np.array_equal(a.params()[name], b.params()[name])
        assert history_a == history_b

    def test_mlp_loss_descends(self):
        rng = np.random.default_rng(11)
        x, y = separable_data(rng)
        _, history = train_mlp(x, y, TrainConfig(epochs=30, batch_size=16, seed=0))
        assert history[-1] < history[0]

    def test_mlp_empty_data(self):
        with pytest.raises(DataError):
            train_mlp(np.zeros((0, 5)), np.zeros((0, 7)), TrainConfig(epochs=1))

    def test_mlp_rejects_non_one_hot(self):
        x = np.zeros((3, 5))
        y = np.full((3, 7), 0.5)
        with pytest.raises(DataError):
            train_mlp(x, y, TrainConfig(epochs=1))

    def test_step_count_is_epochs_times_batches(self):
        rng = np.random.default_rng(12)
        x, y = separable_data(rng, n_per_class=3)  # 21 samples
        _, history = train_mlp(x, y, TrainConfig(epochs=4, batch_size=8, seed=0))
        assert len(history) == 4

    def test_rbf_bit_deterministic(self):
        rng = np.random.default_rng(13)
        x, y = separable_data(rng, dim=8)
        prototypes = rng.normal(size=(14, 8))
        width = compute_rbf_width(prototypes)
        config = TrainConfig(epochs=3, batch_size=16, seed=5, loss="mse")
        a, _ = train_rbf(prototypes, width, x, y, config)
        b, _ = train_rbf(prototypes, width, x, y, config)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_rbf_loss_descends(self):
        rng = np.random.default_rng(14)
        x, y = separable_data(rng, dim=8)
        prototypes = build_rbf_prototypes(
            {
                d: x[y[:, i] == 1.0]
                for i, d in enumerate(CLASSIFIED_DOMAINS)
            },
            per_domain_k=2,
            seed=0,
        )
        width = compute_rbf_width(prototypes)
        config = TrainConfig(epochs=50, batch_size=16, seed=0, loss="mse")
        _, history = train_rbf(prototypes, width, x, y, config)
        assert history[-1] < history[0]

    def test_rbf_prototypes_unchanged_by_training(self):
        rng = np.random.default_rng(15)
        x, y = separable_data(rng, dim=8)
        prototypes = rng.normal(size=(10, 8))
        config = TrainConfig(epochs=2, batch_size=16, seed=0, loss="mse")
        trained, _ = train_rbf(prototypes, 1.0, x, y, config)
        assert np.array_equal(trained.prototypes, prototypes)
        assert trained.width == 1.0


class TestDropout:
    def test_inverted_mask_expectation(self):
        rng = np.random.default_rng(16)
        for rate in (0.2, 0.5):
            mask = dropout_mask(rng, (100_000,), rate)
            assert abs(mask.mean() - 1.0) < 0.01
            kept = mask[mask > 0]
            assert np.allclose(kept, 1.0 / (1.0 - rate))

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(17)
        assert np.all(dropout_mask(rng, (50,), 0.0) == 1.0)

    def test_rate_one_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ConfigError):
            dropout_mask(rng, (5,), 1.0)


def test_one_hot_shape_and_placement():
    y = one_hot(np.array([0, 6, 3]))
    assert y.shape == (3, 7)
    assert y[0, 0] == 1.0 and y[1, 6] == 1.0 and y[2, 3] == 1.0
    assert y.sum() == 3.0
