"""Certificates describing the optimal set of a composed problem.

For these objectives the optimal set is the affine slice
``{x : features @ x == optimal_image}``: strict convexity of the outer loss
makes the score vector unique at every minimizer, so one reference
minimizer x* pins down the whole set as x* plus the null space of the
features. The distance from x to that set is the length of the row-space
part of x - x*, which is what the diagnostics need.

Square problems are certified by a direct least-squares solve; logistic
problems by exact gradient descent run to a tiny gradient norm, followed by
projection onto the row space to get the minimum-norm representative. The
row-space basis comes from one ``rank_factorization`` per problem, shared by
that projection and by every ``attach_distances`` call.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_CUTOFF, rank_factorization
from .problems import SQUARE, ComposedProblem

# Certified gradient-norm ceiling, relative to 1 + L.
GRAD_NORM_BOUND = 1e-11


class CertificationError(RuntimeError):
    """Optimality could not be certified within the iteration budget."""


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

    Square losses are solved exactly by minimum-norm ``lstsq`` (a minimizer
    V_r S_r^-1 U_r^T b from the SVD lands an ulp off on the two-sample
    closed-form problem, enough to move its exact 0.2 error-bound ratio).
    Logistic losses run exact gradient descent from zero until the gradient
    norm drops below ``grad_tolerance``, then project the result onto the
    row space; descent from zero already stays there, so the projection
    only strips rounding noise.

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
        basis = _row_basis(problem)
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


@functools.lru_cache(maxsize=1)
def _row_basis(problem: ComposedProblem) -> np.ndarray:
    """Read-only (n, r) orthonormal basis V_r of the row space of the features.

    Cached for the latest problem (problems hash by identity), so a command
    factors its problem once; the (M, r) left factor is not kept, as it would
    be a second copy of a tall dataset. ``rank_factorization`` is looked up
    in this module at call time, so a wrapper on that name sees the call.
    """
    basis = rank_factorization(problem.features)[1]
    basis.flags.writeable = False
    return basis


def attach_distances(cert: OptimalSetCertificate, problem: ComposedProblem, traj):
    """Fill ``traj.dists`` with the distance of every iterate to the optimal set.

    The distance from x to ``{x* + z : features @ z == 0}`` is
    ``||V_r.T @ (x - x*)||``, with V_r the row-space basis of the features,
    truncated at ``RANK_CUTOFF`` as ``rank_factorization`` does; that is
    ``||pinv(E) @ (E @ x - E @ x*)||`` in exact arithmetic, at the cost of
    one (K+1, n) by (n, r) product per trajectory.
    """
    traj.dists = np.linalg.norm((traj.xs - cert.minimizer) @ _row_basis(problem), axis=1)
    return traj
