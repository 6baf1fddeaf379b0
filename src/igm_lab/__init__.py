"""Inexact gradient method lab.

A small laboratory for gradient descent with controlled gradient errors
on composed convex objectives (square and logistic losses over a linear
map). It runs the method under synthetic or incremental-batch error
models, certifies the optimal set, and mechanically verifies the
convergence guarantees along every trajectory.
"""

from .config import DatasetSpec, ExperimentConfig, StartSpec, parse_config
from .datagen import (
    LeastSquaresSpec,
    LogisticSpec,
    generate_least_squares,
    generate_logistic,
    load_problem,
    save_problem,
)
from .diagnostics import (
    AggregateReport,
    CensusEntry,
    ExponentFit,
    IterateEnvelopeFit,
    RateFit,
    RateReport,
    aggregate_expectation,
    check_logistic_error_bound,
    check_ls_error_bound,
    check_ls_expected_bound,
    diagnose,
    envelope_check,
    error_bound_ratios,
    estimate_tau,
    find_mu_delta,
    fit_linear_rate,
    fit_sublinear_exponent,
    iterate_rate_check,
    qualifying_length,
    verify_descent,
    verify_iter_bounds,
)
from .engine import (
    ExplicitSchedule,
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    PolynomialNorms,
    PolynomialResidualSchedule,
    SyntheticError,
    Trajectory,
    ZeroError,
    run,
    run_batch,
)
from .linalg import rank_factorization, spectral_norm
from .optimum import CertificationError, OptimalSetCertificate, attach_distances, certify
from .problems import LOGISTIC, LOSSES, SQUARE, ComposedProblem, LipschitzConstants

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "CensusEntry",
    "CertificationError",
    "ComposedProblem",
    "DatasetSpec",
    "ExperimentConfig",
    "ExplicitSchedule",
    "ExponentFit",
    "GeometricNorms",
    "GeometricResidualSchedule",
    "IncrementalBatchError",
    "IterateEnvelopeFit",
    "LOGISTIC",
    "LOSSES",
    "LeastSquaresSpec",
    "LipschitzConstants",
    "LogisticSpec",
    "OptimalSetCertificate",
    "PolynomialNorms",
    "PolynomialResidualSchedule",
    "RateFit",
    "RateReport",
    "SQUARE",
    "StartSpec",
    "SyntheticError",
    "Trajectory",
    "ZeroError",
    "aggregate_expectation",
    "attach_distances",
    "certify",
    "check_logistic_error_bound",
    "check_ls_error_bound",
    "check_ls_expected_bound",
    "diagnose",
    "envelope_check",
    "error_bound_ratios",
    "estimate_tau",
    "find_mu_delta",
    "fit_linear_rate",
    "fit_sublinear_exponent",
    "generate_least_squares",
    "generate_logistic",
    "iterate_rate_check",
    "load_problem",
    "parse_config",
    "qualifying_length",
    "rank_factorization",
    "run",
    "run_batch",
    "save_problem",
    "spectral_norm",
    "verify_descent",
    "verify_iter_bounds",
]
