"""Unit tests for the composed objective f(x) = mean_i loss(a_i . x, b_i)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igm_lab import LOGISTIC, SQUARE, ComposedProblem


def central_difference(problem, x, h):
    grad = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (problem.objective(x + step) - problem.objective(x - step)) / (2.0 * h)
    return grad


def random_problem(loss, seed, samples=6, features=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((samples, features))
    if loss == SQUARE:
        b = rng.standard_normal(samples)
    else:
        b = np.where(rng.standard_normal(samples) >= 0, 1.0, -1.0)
    return ComposedProblem(a, b, loss)


class TestSquareTiny:
    """Closed-form checks on the two-sample problem 2.5 (x_1 - 1)^2."""

    problem = ComposedProblem(
        np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]), SQUARE
    )

    def test_objective_at_origin(self):
        assert self.problem.objective(np.zeros(2)) == pytest.approx(2.5, abs=1e-15)

    def test_objective_vanishes_on_optimal_line(self):
        assert self.problem.objective(np.array([1.0, 7.0])) == 0.0

    def test_gradient_at_origin(self):
        assert np.allclose(self.problem.gradient(np.zeros(2)), [-5.0, 0.0], atol=1e-14)

    def test_sample_gradients_at_origin(self):
        grads = self.problem.sample_gradients(np.zeros(2))
        assert np.allclose(grads[0], [-2.0, 0.0], atol=1e-14)
        assert np.allclose(grads[1], [-8.0, 0.0], atol=1e-14)

    def test_constants(self):
        constants = self.problem.constants
        assert constants.outer == pytest.approx(1.0, abs=1e-15)
        assert constants.operator_norm == pytest.approx(np.sqrt(5.0), rel=1e-14)
        assert constants.composed == pytest.approx(5.0, rel=1e-14)
        assert constants.composed == pytest.approx(
            constants.outer * constants.operator_norm**2, rel=1e-15
        )

    def test_sample_radius(self):
        assert self.problem.sample_radius == pytest.approx(2.0, abs=1e-15)


class TestLogisticTiny:
    """Closed-form checks on the symmetric one-feature logistic problem."""

    problem = ComposedProblem(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), LOGISTIC)

    def test_objective_at_origin(self):
        assert self.problem.objective(np.zeros(1)) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_gradient_vanishes_at_origin(self):
        assert np.allclose(self.problem.gradient(np.zeros(1)), [0.0], atol=1e-15)

    def test_sample_gradient_at_origin(self):
        assert np.allclose(self.problem.sample_gradients(np.zeros(1))[0], [-0.5], atol=1e-15)

    def test_constants(self):
        constants = self.problem.constants
        # outer = max_i b_i^2 / (4 M); composed multiplies by the squared
        # operator norm of the feature matrix, here exactly 2
        assert constants.outer == pytest.approx(0.125, abs=1e-16)
        assert constants.operator_norm == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert constants.composed == pytest.approx(0.25, rel=1e-14)

    def test_sample_radius(self):
        assert self.problem.sample_radius == pytest.approx(1.0, abs=1e-15)


def test_single_sample_identity_constants():
    problem = ComposedProblem(np.array([[1.0]]), np.array([0.0]), SQUARE)
    assert problem.constants.composed == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
def test_gradient_matches_finite_differences(loss):
    problem = random_problem(loss, seed=5)
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.standard_normal(problem.n_features) * rng.uniform(0.1, 3.0)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        grad = problem.gradient(x)
        approx = central_difference(problem, x, h)
        assert np.linalg.norm(grad - approx) <= 1e-6 * (1.0 + np.linalg.norm(grad))


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_sample_gradients_average_to_gradient(loss, seed):
    problem = random_problem(loss, seed=7, samples=9, features=4)
    x = np.random.default_rng(seed).standard_normal(4) * 2.0
    grads = problem.sample_gradients(x)
    assert grads.shape == (9, 4)
    assert np.allclose(grads.mean(axis=0), problem.gradient(x), atol=1e-12)
    for i in range(9):
        # row i is the gradient of the one-sample problem on sample i
        alone = ComposedProblem(problem.features[i : i + 1], problem.labels[i : i + 1], loss)
        assert np.allclose(grads[i], alone.gradient(x), atol=1e-14)


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
def test_gradient_is_lipschitz_with_composed_constant(loss):
    problem = random_problem(loss, seed=11, samples=8, features=4)
    lipschitz = problem.constants.composed
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        y = rng.standard_normal(4) * rng.uniform(0.1, 5.0)
        lhs = np.linalg.norm(problem.gradient(x) - problem.gradient(y))
        assert lhs <= lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-9)


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
def test_objective_is_convex_on_segments(loss):
    problem = random_problem(loss, seed=13)
    rng = np.random.default_rng(29)
    for _ in range(100):
        x = rng.standard_normal(3) * 2.0
        y = rng.standard_normal(3) * 2.0
        lam = rng.uniform()
        mix = problem.objective(lam * x + (1.0 - lam) * y)
        chord = lam * problem.objective(x) + (1.0 - lam) * problem.objective(y)
        assert mix <= chord + 1e-12 * (1.0 + abs(chord))


def test_logistic_stays_finite_at_extreme_scores():
    problem = ComposedProblem(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), LOGISTIC)
    for score in (1e2, 1e3, 1e4, -1e4):
        x = np.array([score])
        assert np.isfinite(problem.objective(x))
        assert np.all(np.isfinite(problem.gradient(x)))
    # a badly misclassified sample costs about |score|, not an overflow
    assert problem.objective(np.array([1e4])) == pytest.approx(5e3, rel=1e-3)


def test_validation_rejects_bad_inputs():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        ComposedProblem(a, np.array([1.0]), SQUARE)
    with pytest.raises(ValueError):
        ComposedProblem(a, np.array([1.0, np.inf]), SQUARE)
    with pytest.raises(ValueError):
        ComposedProblem(a, np.array([1.0, 0.5]), LOGISTIC)
    with pytest.raises(ValueError):
        ComposedProblem(a, np.array([1.0, 2.0]), "hinge")
    with pytest.raises(ValueError):
        ComposedProblem(np.zeros((0, 2)), np.zeros(0), SQUARE)
    with pytest.raises(ValueError):
        ComposedProblem(np.zeros((2, 2)), np.zeros(2), SQUARE)


def test_problem_arrays_are_immutable():
    problem = ComposedProblem(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]), SQUARE)
    with pytest.raises(ValueError):
        problem.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        problem.labels[0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.loss = LOGISTIC


def test_point_shape_is_checked():
    problem = ComposedProblem(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]), SQUARE)
    with pytest.raises(ValueError):
        problem.objective(np.zeros(3))
    with pytest.raises(ValueError):
        problem.gradient(np.zeros((2, 1)))


def test_digest_tracks_content():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    b = np.array([1.0, -1.0])
    problem = ComposedProblem(a, b, SQUARE)
    same = ComposedProblem(a.copy(), b.copy(), SQUARE)
    other = ComposedProblem(a, np.array([1.0, 1.0]), SQUARE)
    assert problem.digest == same.digest
    assert problem.digest != other.digest
    assert problem.digest != ComposedProblem(a, b, LOGISTIC).digest
