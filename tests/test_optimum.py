"""Unit tests for optimal-set certification and distance queries."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from igm_lab import (
    LOGISTIC,
    SQUARE,
    CertificationError,
    ComposedProblem,
    GeometricNorms,
    LeastSquaresSpec,
    OptimalSetCertificate,
    SyntheticError,
    ZeroError,
    attach_distances,
    certify,
    error_bound_ratios,
    generate_least_squares,
    run,
)
from igm_lab import optimum
from igm_lab.linalg import RANK_CUTOFF


def distances(cert, problem, points):
    """``attach_distances`` at each row of a stack of points."""
    return attach_distances(cert, problem, SimpleNamespace(xs=np.asarray(points, dtype=float))).dists


def ratios(cert, problem, points):
    """``error_bound_ratios`` at each row of a stack of points."""
    points = np.asarray(points, dtype=float)
    grad_norms = np.array([np.linalg.norm(problem.gradient(x)) for x in points])
    return error_bound_ratios(SimpleNamespace(dists=distances(cert, problem, points), grad_norms=grad_norms))


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
        dists = distances(cert, problem, [[0.0, 0.0], [1.0, 7.0], [3.0, 0.0]])
        assert dists == pytest.approx([1.0, 0.0, 2.0], abs=1e-12)

    def test_distance_triangle_sanity(self, ls_tiny):
        problem, cert = ls_tiny
        points = np.random.default_rng(2).standard_normal((25, 2)) * 3.0
        dists = distances(cert, problem, points)
        assert np.all(dists <= np.linalg.norm(points - cert.minimizer, axis=1) + 1e-12)

    def test_error_bound_ratio_closed_form(self, ls_tiny):
        problem, cert = ls_tiny
        points = np.random.default_rng(3).standard_normal((25, 2)) * 4.0
        points = points[np.abs(points[:, 0] - 1.0) >= 1e-6]
        assert ratios(cert, problem, points) == pytest.approx(np.full(len(points), 0.2), abs=1e-12)

    def test_error_bound_ratio_rejects_near_optimal_points(self, ls_tiny):
        # the gradient vanishes on the optimal line, where no ratio is taken
        problem, cert = ls_tiny
        assert ratios(cert, problem, [[1.0, 5.0], [2.0, 5.0]]) == pytest.approx([0.2], abs=1e-12)


class TestLogisticTinyCertificate:
    def test_certificate_values(self, log_tiny):
        problem, cert = log_tiny
        assert cert.f_min == pytest.approx(np.log(2.0), rel=1e-12)
        assert np.allclose(cert.optimal_image, [0.0, 0.0], atol=1e-10)
        assert np.allclose(cert.minimizer, [0.0], atol=1e-10)
        assert cert.method.startswith("gradient_descent")

    def test_error_bound_ratio_is_finite_positive(self, log_tiny):
        problem, cert = log_tiny
        (ratio,) = ratios(cert, problem, [[1.0]])
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
    # the optimal set is the line x_1 = 1
    assert traj.dists == pytest.approx(np.abs(traj.xs[:, 0] - 1.0), abs=1e-12)


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
def test_attach_distances_computes_one_factorization_per_problem(monkeypatch, loss):
    # certify and every attach share one rank_factorization of the problem
    rng = np.random.default_rng(12)
    labels = rng.standard_normal(40)
    if loss == LOGISTIC:
        labels = np.where(labels >= 0, 1.0, -1.0)
    problem = ComposedProblem(rng.standard_normal((40, 6)), labels, loss)
    calls = []
    factor = optimum.rank_factorization

    def counted(a):
        calls.append(a.shape)
        return factor(a)

    monkeypatch.setattr(optimum, "rank_factorization", counted)
    cert = certify(problem)
    model = SyntheticError(GeometricNorms(0.5, 0.8))
    trajectories = [run(problem, model, np.zeros(6), 25, seed=seed) for seed in (0, 1)]
    for traj in trajectories:
        attach_distances(cert, problem, traj)
    assert calls == [(40, 6)]
    # the pseudoinverse oracle ||pinv(E) (E x - E x*)|| agrees to rounding
    E = problem.features
    inline = np.linalg.pinv(E, rcond=RANK_CUTOFF * max(E.shape))
    for traj in trajectories:
        expected = np.linalg.norm((traj.xs @ E.T - cert.optimal_image) @ inline.T, axis=1)
        assert traj.dists == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_attach_distances_peak_memory_is_independent_of_the_sample_count():
    # one (K+1, n) by (n, r) product per trajectory: at 20000 x 5 with 35
    # iterates a (K+1, M) array of offsets would be 5.3 MiB
    problem = generate_least_squares(LeastSquaresSpec(20000, 5, 3, 0.1, seed=5, singular_range=(0.7, 1.0)))
    cert = certify(problem)
    model = SyntheticError(GeometricNorms(0.5, 0.8))
    traj = attach_distances(cert, problem, run(problem, model, np.zeros(5), 34, seed=0))
    tracemalloc.start()
    try:
        attach_distances(cert, problem, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.dists.shape == (35,)
    assert peak <= 64 * 2**10, peak
