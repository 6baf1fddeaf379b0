"""Shared fixtures: two closed-form tiny problems and a cross-model battery;
and the expected squared batch error, a reference for batch-error tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from igm_lab import (
    LOGISTIC,
    SQUARE,
    ComposedProblem,
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    LeastSquaresSpec,
    LogisticSpec,
    OptimalSetCertificate,
    PolynomialNorms,
    PolynomialResidualSchedule,
    RateReport,
    SyntheticError,
    Trajectory,
    ZeroError,
    attach_distances,
    certify,
    diagnose,
    generate_least_squares,
    generate_logistic,
    run_batch,
)


def expected_sq_error(problem: ComposedProblem, x, batch_size: int) -> float:
    """Expected squared batch-error norm under uniform sampling without
    replacement of ``batch_size`` samples: the sample variance of the
    per-sample gradients times (M - s) / (M s)."""
    m = problem.n_samples
    if not 1 <= batch_size <= m:
        raise ValueError(f"batch_size must lie in [1, {m}]")
    if m == 1:
        return 0.0
    grads = problem.sample_gradients(x)
    spread = grads - grads.mean(axis=0)
    total = float(np.sum(spread**2))
    return ((m - batch_size) / (m * batch_size)) * total / (m - 1)


@pytest.fixture(scope="session")
def ls_tiny() -> tuple[ComposedProblem, OptimalSetCertificate]:
    """Two-sample square-loss problem whose optimal set is the line x_1 = 1.

    f(x) = ((x_1 - 1)^2 + (2 x_1 - 2)^2) / 2 = 2.5 (x_1 - 1)^2, so every
    derived quantity has a closed form: f_min = 0, dist(x) = |x_1 - 1|,
    and dist / grad-norm is exactly 0.2 away from the optimum.
    """
    features = np.array([[1.0, 0.0], [2.0, 0.0]])
    labels = np.array([1.0, 2.0])
    problem = ComposedProblem(features, labels, SQUARE)
    return problem, certify(problem)


@pytest.fixture(scope="session")
def log_tiny() -> tuple[ComposedProblem, OptimalSetCertificate]:
    """One-feature logistic problem with opposite labels; optimum at 0."""
    features = np.array([[1.0], [1.0]])
    labels = np.array([1.0, -1.0])
    problem = ComposedProblem(features, labels, LOGISTIC)
    return problem, certify(problem)


@dataclass(frozen=True)
class BatteryRun:
    """One diagnosed trajectory from the cross-model battery."""

    name: str
    problem: ComposedProblem
    cert: OptimalSetCertificate
    traj: Trajectory
    report: RateReport


@pytest.fixture(scope="session")
def battery() -> list[BatteryRun]:
    """Twenty runs spanning problem kinds and error models.

    Three problems (rank-deficient least squares, full-rank least squares,
    logistic) crossed with zero, synthetic geometric, synthetic polynomial,
    prefix-batch, and uniform-batch errors; five extra runs probe a fixed
    error direction, a second sampling seed, a polynomial batch schedule,
    a long horizon, and a small error scale.
    """
    p1 = generate_least_squares(LeastSquaresSpec(50, 20, 5, 0.1, seed=11))
    p2 = generate_least_squares(LeastSquaresSpec(40, 8, 8, 0.05, seed=12))
    p3 = generate_logistic(LogisticSpec(80, 4, 0.15, seed=13))
    certs = {id(p1): certify(p1), id(p2): certify(p2), id(p3): certify(p3)}
    fixed_dir = np.random.default_rng(17).standard_normal(20)

    def geometric() -> SyntheticError:
        return SyntheticError(GeometricNorms(1.0, 0.9))

    def polynomial() -> SyntheticError:
        return SyntheticError(PolynomialNorms(1.0, 1.0))

    def prefix(ratio: float = 0.8) -> IncrementalBatchError:
        schedule = GeometricResidualSchedule(0.5, ratio)
        return IncrementalBatchError(schedule, selection="prefix")

    def uniform(ratio: float = 0.8) -> IncrementalBatchError:
        schedule = GeometricResidualSchedule(0.5, ratio)
        return IncrementalBatchError(schedule, selection="uniform")

    configs = [
        ("p1-zero", p1, ZeroError(), 500, 0),
        ("p1-geometric", p1, geometric(), 500, 0),
        ("p1-polynomial", p1, polynomial(), 1200, 0),
        ("p1-prefix", p1, prefix(), 500, 0),
        ("p1-uniform", p1, uniform(), 500, 0),
        ("p2-zero", p2, ZeroError(), 500, 0),
        ("p2-geometric", p2, geometric(), 500, 0),
        ("p2-polynomial", p2, polynomial(), 1200, 0),
        ("p2-prefix", p2, prefix(), 500, 0),
        ("p2-uniform", p2, uniform(), 500, 0),
        ("p3-zero", p3, ZeroError(), 500, 0),
        ("p3-geometric", p3, geometric(), 800, 0),
        ("p3-polynomial", p3, polynomial(), 1500, 0),
        ("p3-prefix", p3, prefix(0.9), 800, 0),
        ("p3-uniform", p3, uniform(0.9), 800, 0),
        ("p1-geometric-fixed", p1, SyntheticError(GeometricNorms(1.0, 0.9), fixed_dir), 500, 0),
        ("p1-uniform-seed1", p1, uniform(), 500, 1),
        ("p2-poly-prefix", p2, IncrementalBatchError(PolynomialResidualSchedule(0.5, 1.0), selection="prefix"), 1200, 0),
        ("p3-zero-long", p3, ZeroError(), 5000, 0),
        ("p3-geometric-small", p3, SyntheticError(GeometricNorms(0.01, 0.9)), 800, 0),
    ]
    runs = []
    for name, problem, model, iterations, seed in configs:
        cert = certs[id(problem)]
        [traj] = run_batch(problem, model, np.zeros((1, problem.n_features)), iterations, [seed])
        attach_distances(cert, problem, traj)
        runs.append(BatteryRun(name, problem, cert, traj, diagnose(problem, cert, traj)))
    return runs
