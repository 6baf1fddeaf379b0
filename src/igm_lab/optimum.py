"""Certificates describing the optimal set of a composed problem.

For these objectives the optimal set is the affine slice
``{x : features @ x == optimal_image}``: strict convexity of the outer loss
makes the score vector unique at every minimizer, so one reference
minimizer plus its image pins down the whole set. That turns distance to
the optimal set into a minimum-norm linear solve, which is what the
diagnostics need.

Square problems are certified by a direct least-squares solve; logistic
problems by exact gradient descent run to a tiny gradient norm, followed by
projection onto the row space to get the minimum-norm representative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_CUTOFF, min_norm_solve, rank_factorization
from .problems import SQUARE, ComposedProblem

# Certified gradient-norm ceiling, relative to 1 + L.
GRAD_NORM_BOUND = 1e-11

# Gradient norm below which an error-bound ratio is meaningless.
RATIO_GRAD_FLOOR = 1e-10


class CertificationError(RuntimeError):
    """Optimality could not be certified within the iteration budget."""


class GradientTooSmallError(ValueError):
    """Error-bound ratio requested at a point with a vanishing gradient."""


@dataclass(eq=False)
class OptimalSetCertificate:
    """Minimum value, shared optimal image, and a reference minimizer."""

    f_min: float
    optimal_image: np.ndarray
    minimizer: np.ndarray
    gradient_norm: float
    method: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "f_min": float(self.f_min),
                "optimal_image": [float(v) for v in self.optimal_image],
                "minimizer": [float(v) for v in self.minimizer],
                "gradient_norm": float(self.gradient_norm),
                "method": self.method,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "OptimalSetCertificate":
        data = json.loads(text)
        return cls(
            f_min=float(data["f_min"]),
            optimal_image=np.asarray(data["optimal_image"], dtype=float),
            minimizer=np.asarray(data["minimizer"], dtype=float),
            gradient_norm=float(data["gradient_norm"]),
            method=str(data["method"]),
        )


def certify(
    problem: ComposedProblem,
    max_iterations: int = 10_000_000,
    grad_tolerance: float = 1e-12,
) -> OptimalSetCertificate:
    """Compute an optimal-set certificate for ``problem``.

    Square losses are solved exactly (minimum-norm least squares). Logistic
    losses run exact gradient descent from zero until the gradient norm
    drops below ``grad_tolerance``, then project the result onto the row
    space; descent from zero already stays there, so the projection only
    strips rounding noise.

    Raises
    ------
    CertificationError
        If the iteration budget runs out, or the certified point fails the
        gradient-norm bound.
    """
    E = problem.features
    L = problem.constants.composed
    if problem.loss == SQUARE:
        x = np.linalg.lstsq(E, problem.labels, rcond=RANK_CUTOFF * max(E.shape))[0]
        method = "least_squares"
    else:
        x = np.zeros(problem.n_features)
        step = 1.0 / L
        for iteration in range(max_iterations):
            g = problem.gradient(x)
            if math.sqrt(g.dot(g)) <= grad_tolerance:
                break
            x = x - step * g
        else:
            raise CertificationError(
                f"gradient descent did not reach tolerance {grad_tolerance:g} "
                f"within {max_iterations} iterations"
            )
        _, basis = rank_factorization(E)
        x = basis @ (basis.T @ x)
        method = f"gradient_descent(iterations={iteration})"

    gradient_norm = float(np.linalg.norm(problem.gradient(x)))
    if gradient_norm > GRAD_NORM_BOUND * (1.0 + L):
        raise CertificationError(
            f"certified point has gradient norm {gradient_norm:.3e}, above "
            f"{GRAD_NORM_BOUND * (1.0 + L):.3e}"
        )
    return OptimalSetCertificate(
        f_min=problem.objective(x),
        optimal_image=E @ x,
        minimizer=x,
        gradient_norm=gradient_norm,
        method=method,
    )


def distance_to_optimum(cert: OptimalSetCertificate, features, x) -> float:
    """Euclidean distance from ``x`` to the optimal set."""
    features = np.asarray(features, dtype=float)
    offset = features @ np.asarray(x, dtype=float) - cert.optimal_image
    return float(np.linalg.norm(min_norm_solve(features, offset)))


def error_bound_ratio(cert: OptimalSetCertificate, problem: ComposedProblem, x) -> float:
    """Distance to the optimal set divided by the gradient norm at ``x``."""
    grad_norm = float(np.linalg.norm(problem.gradient(x)))
    if grad_norm <= RATIO_GRAD_FLOOR:
        raise GradientTooSmallError(
            f"gradient norm {grad_norm:.3e} is at or below {RATIO_GRAD_FLOOR:g}"
        )
    return distance_to_optimum(cert, problem.features, x) / grad_norm


def attach_distances(cert: OptimalSetCertificate, problem: ComposedProblem, traj):
    """Fill ``traj.dists`` with the distance of every iterate to the optimal set.

    Uses one pseudoinverse per problem (``problem.pseudoinverse``, computed
    on first use and shared by every trajectory); pointwise it matches
    ``distance_to_optimum`` to rounding.
    """
    offsets = traj.xs @ problem.features.T - cert.optimal_image
    traj.dists = np.linalg.norm(offsets @ problem.pseudoinverse.T, axis=1)
    return traj
