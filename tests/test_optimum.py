"""Unit tests for optimal-set certification and distance queries."""

import numpy as np
import pytest

from igm_lab import (
    LOGISTIC,
    SQUARE,
    CertificationError,
    ComposedProblem,
    GeometricNorms,
    GradientTooSmallError,
    OptimalSetCertificate,
    SyntheticError,
    ZeroError,
    attach_distances,
    certify,
    distance_to_optimum,
    error_bound_ratio,
    run,
)
from igm_lab.linalg import RANK_CUTOFF


class TestSquareTinyCertificate:
    def test_certificate_values(self, ls_tiny):
        problem, cert = ls_tiny
        assert cert.f_min == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(cert.optimal_image, [1.0, 2.0], atol=1e-12)
        assert np.allclose(cert.minimizer, [1.0, 0.0], atol=1e-12)
        assert cert.method == "least_squares"

    def test_certificate_invariants(self, ls_tiny):
        problem, cert = ls_tiny
        lipschitz = problem.constants.composed
        assert cert.gradient_norm <= 1e-11 * (1.0 + lipschitz)
        assert np.allclose(problem.features @ cert.minimizer, cert.optimal_image, atol=1e-12)
        assert problem.objective(cert.minimizer) == pytest.approx(cert.f_min, abs=1e-15)

    def test_distances(self, ls_tiny):
        problem, cert = ls_tiny
        assert distance_to_optimum(cert, problem.features, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)
        assert distance_to_optimum(cert, problem.features, np.array([1.0, 7.0])) == pytest.approx(0.0, abs=1e-12)
        assert distance_to_optimum(cert, problem.features, np.array([3.0, 0.0])) == pytest.approx(2.0, abs=1e-12)

    def test_distance_triangle_sanity(self, ls_tiny):
        problem, cert = ls_tiny
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.standard_normal(2) * 3.0
            dist = distance_to_optimum(cert, problem.features, x)
            assert dist <= np.linalg.norm(x - cert.minimizer) + 1e-12

    def test_error_bound_ratio_closed_form(self, ls_tiny):
        problem, cert = ls_tiny
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.standard_normal(2) * 4.0
            if abs(x[0] - 1.0) < 1e-6:
                continue
            assert error_bound_ratio(cert, problem, x) == pytest.approx(0.2, abs=1e-12)

    def test_error_bound_ratio_rejects_near_optimal_points(self, ls_tiny):
        problem, cert = ls_tiny
        with pytest.raises(GradientTooSmallError):
            error_bound_ratio(cert, problem, np.array([1.0, 5.0]))


class TestLogisticTinyCertificate:
    def test_certificate_values(self, log_tiny):
        problem, cert = log_tiny
        assert cert.f_min == pytest.approx(np.log(2.0), rel=1e-12)
        assert np.allclose(cert.optimal_image, [0.0, 0.0], atol=1e-10)
        assert np.allclose(cert.minimizer, [0.0], atol=1e-10)
        assert cert.method.startswith("gradient_descent")

    def test_error_bound_ratio_is_finite_positive(self, log_tiny):
        problem, cert = log_tiny
        ratio = error_bound_ratio(cert, problem, np.array([1.0]))
        assert np.isfinite(ratio)
        assert ratio > 0.0


def test_identity_square_problem_recovers_labels():
    labels = np.array([0.5, -1.5, 2.0])
    problem = ComposedProblem(np.eye(3), labels, SQUARE)
    cert = certify(problem)
    assert np.allclose(cert.minimizer, labels, atol=1e-10)
    assert cert.f_min == pytest.approx(0.0, abs=1e-20)


def test_certification_iteration_cap_raises():
    features = np.array([[1.0, 0.2], [0.9, -0.4], [1.1, 0.3], [0.8, -0.1]])
    labels = np.array([1.0, -1.0, -1.0, 1.0])
    problem = ComposedProblem(features, labels, LOGISTIC)
    with pytest.raises(CertificationError):
        certify(problem, max_iterations=3)


def test_logistic_certificate_minimizer_has_no_null_component():
    # duplicated column makes the feature matrix rank-deficient, so the
    # reported minimizer must be the min-norm representative
    rng = np.random.default_rng(7)
    base = rng.standard_normal((30, 2))
    features = np.column_stack([base, base[:, 0]])
    labels = np.where(rng.standard_normal(30) >= 0, 1.0, -1.0)
    problem = ComposedProblem(features, labels, LOGISTIC)
    cert = certify(problem)
    _, _, vt = np.linalg.svd(features)
    null_basis = vt[2:]
    assert np.allclose(null_basis @ cert.minimizer, 0.0, atol=1e-9)
    assert np.linalg.norm(problem.gradient(cert.minimizer)) <= 1e-11 * (
        1.0 + problem.constants.composed
    )


def test_certificate_json_round_trip(ls_tiny):
    _, cert = ls_tiny
    clone = OptimalSetCertificate.from_json(cert.to_json())
    assert clone.f_min == cert.f_min
    assert np.array_equal(clone.optimal_image, cert.optimal_image)
    assert np.array_equal(clone.minimizer, cert.minimizer)
    assert clone.gradient_norm == cert.gradient_norm
    assert clone.method == cert.method


def test_attach_distances_fills_every_iterate(ls_tiny):
    problem, cert = ls_tiny
    traj = run(problem, ZeroError(), np.zeros(2), 3, seed=0)
    returned = attach_distances(cert, problem, traj)
    assert returned is traj
    assert traj.dists.shape == traj.fs.shape
    assert traj.dists[0] == pytest.approx(1.0, abs=1e-12)
    assert traj.dists[1] == pytest.approx(0.0, abs=1e-12)
    for k in range(traj.fs.size):
        direct = distance_to_optimum(cert, problem.features, traj.xs[k])
        assert traj.dists[k] == pytest.approx(direct, abs=1e-12)


def test_attach_distances_computes_one_pseudoinverse_per_problem(monkeypatch):
    rng = np.random.default_rng(12)
    problem = ComposedProblem(rng.standard_normal((40, 6)), rng.standard_normal(40), SQUARE)
    cert = certify(problem)
    calls = []
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    model = SyntheticError(GeometricNorms(0.5, 0.8))
    trajectories = [run(problem, model, np.zeros(6), 25, seed=seed) for seed in (0, 1)]
    for traj in trajectories:
        attach_distances(cert, problem, traj)
    assert calls == [(40, 6)]
    E = problem.features
    inline = pinv(E, rcond=RANK_CUTOFF * max(E.shape))
    for traj in trajectories:
        expected = np.linalg.norm((traj.xs @ E.T - cert.optimal_image) @ inline.T, axis=1)
        assert np.array_equal(traj.dists, expected)
