"""Certificates describing the optimal set of a composed problem.

For these objectives the optimal set is the affine slice
``{x : features @ x == optimal_image}``: strict convexity of the outer loss
makes the score vector unique at every minimizer, so one reference
minimizer x* pins down the whole set as x* plus the null space of the
features. The distance from x to that set is the length of the row-space
part of x - x*, which is what the diagnostics need.

Square problems are certified by a direct least-squares solve; logistic
problems by damped Newton in row-space coordinates, which lands on the
minimum-norm representative, run to a tiny gradient norm. On separable data
no minimizer exists, and the first Newton iterate that classifies every
sample correctly, beyond the rounding of its scores, is an exact witness of
that. The row-space basis comes from one ``rank_factorization`` per problem,
shared by the Newton iteration and by every ``attach_distances`` call.
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
# Damped Newton's step cap for logistic certificates. The steps grow with
# log ||x*||: 7 on the benchmark's 4000 x 50 data (||x*|| about 3), 14-39 on
# near-separable data with ||x*|| from 300 to 4e4. The cap leaves room for
# more than twice that, and holds a failing certificate to 100 Hessians,
# about 0.1 s at 4000 x 50.
NEWTON_STEP_CAP = 100
# Armijo's sufficient-decrease fraction, and how often a Newton step may be
# halved: 2**-52 of a step is below one ulp of it.
ARMIJO_FRACTION = 1e-4
MAX_HALVINGS = 52


class CertificationError(RuntimeError):
    """Optimality could not be certified: the step cap ran out, a Newton
    step failed, the data are separable, or the final check failed."""


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
    max_iterations: int = NEWTON_STEP_CAP,
    grad_tolerance: float = 1e-12,
) -> OptimalSetCertificate:
    """Compute an optimal-set certificate for ``problem``.

    Square losses are solved exactly by minimum-norm ``lstsq`` (a minimizer
    V_r S_r^-1 U_r^T b from the SVD lands an ulp off on the two-sample
    closed-form problem, enough to move its exact 0.2 error-bound ratio).
    Logistic losses run damped Newton from zero in row-space coordinates
    (``_newton``) until the gradient norm drops below ``grad_tolerance``,
    taking at most ``max_iterations`` steps (``NEWTON_STEP_CAP`` says why
    100); every iterate lies in the row space, so the result is the
    minimum-norm minimizer. Each iterate is also tested as a separation
    witness (``_separates``): one whose every margin is positive beyond its
    rounding proves that the data are separable and no minimizer exists.
    The method is recorded as ``newton(iterations=N)``.

    Raises
    ------
    CertificationError
        If the step cap is reached, the Hessian is not positive definite,
        the line search finds no decrease, an iterate separates the data
        (then no minimizer exists), or the certified point fails the
        gradient-norm bound.
    """
    E = problem.features
    L = problem.constants.composed
    if problem.loss == SQUARE:
        x = np.linalg.lstsq(E, problem.labels, rcond=RANK_CUTOFF * max(E.shape))[0]
        method = "least_squares"
    else:
        x, steps = _newton(problem, max_iterations, grad_tolerance)
        method = f"newton(iterations={steps})"

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


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff: the relative
    error bound of a k-term sum of products (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1)."""
    ku = k * np.finfo(float).eps / 2.0
    return ku / (1.0 - ku)


def _newton(problem: ComposedProblem, max_steps: int, grad_tolerance: float) -> tuple[np.ndarray, int]:
    """Minimize a logistic problem by damped Newton; returns (x*, steps).

    The iterate is x = V_r u, with V_r the row-space basis of
    ``_row_basis``. One ``evaluate`` per trial point gives f, the slopes
    and the gradient g; the Hessian in u is V_r^T (E^T diag(w) E / M) V_r
    with w = |slope| (1 - |slope|), formed as the Gram matrix of the rows
    of E scaled by sqrt(w) in one reused (M, n) array. It is positive
    definite while the rows with positive w span the row space, and the
    step d solves H d = -V_r^T g by Cholesky. Backtracking halves the step
    until Armijo's condition on f holds. Once the Newton decrement
    -g_u^T d is below the rounding of f, gamma_M f, that test compares
    rounding errors, so the full step is taken: the iterate is then deep in
    Newton's quadratic region, and without this rule the line search
    stalls above ``grad_tolerance`` on nearly flat data.
    """
    E = problem.features
    m = problem.n_samples
    basis = _row_basis(problem)
    u = np.zeros(basis.shape[1])
    x = np.zeros(problem.n_features)
    buffers = (np.empty(m), np.empty(m))
    scaled = np.empty_like(E)
    f, slopes, g = problem.evaluate(x, buffers)
    steps = 0
    while (grad_norm := math.sqrt(g.dot(g))) > grad_tolerance:
        if steps == max_steps:
            raise CertificationError(
                f"damped Newton did not reach gradient norm {grad_tolerance:g} within {max_steps} steps "
                f"(it reached {grad_norm:.3e})"
            )
        magnitude = np.abs(slopes)
        np.multiply(E, np.sqrt(magnitude * (1.0 - magnitude))[:, None], out=scaled)
        hessian = basis.T @ (scaled.T @ scaled) @ basis / m
        g_u = g @ basis
        try:
            factor = np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            raise CertificationError(
                f"the Hessian at Newton step {steps} is not positive definite: the loss is flat, to "
                f"rounding, along some row-space direction (gradient norm {grad_norm:.3e})"
            ) from None
        # numpy has no triangular solve; r is at most n, so the general one costs little
        d = -np.linalg.solve(factor.T, np.linalg.solve(factor, g_u))
        decrement = -g_u.dot(d)
        full_step = decrement <= _gamma(m) * f
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = u + t * d
            x = basis @ trial
            f_trial, slopes, g = problem.evaluate(x, buffers)
            if full_step or f_trial <= f - ARMIJO_FRACTION * t * decrement:
                break
            t *= 0.5
        else:
            raise CertificationError(
                f"the line search found no decrease at Newton step {steps} (gradient norm {grad_norm:.3e})"
            )
        u, f = trial, f_trial
        steps += 1
        if _separates(problem, x, slopes, scaled):
            raise CertificationError(
                f"the data are separable: Newton iterate {steps} classifies every sample correctly, "
                "beyond rounding, so the loss has no minimizer"
            )
    return x, steps


def _separates(problem: ComposedProblem, x: np.ndarray, slopes: np.ndarray, scratch: np.ndarray) -> bool:
    """Whether every margin y_i a_i^T x is positive beyond its rounding.

    The computed score of a sample is within gamma_n sum_j |a_ij x_j| of
    the exact one (Higham, section 3.1), whatever order the product sums
    in; twice that bound also covers the rounding of the bound itself.
    Such an x is an exact witness: f(t x) falls to 0 as t grows, and f is
    positive everywhere, so no minimizer exists. A positive margin gives a
    slope of magnitude at most 1/2, which rules out most iterates before
    the two passes over E (``scratch`` takes |E|).
    """
    if np.max(np.abs(slopes)) > 0.5:
        return False
    E = problem.features
    bound = np.abs(E, out=scratch) @ np.abs(x)
    return bool(np.all(problem.labels * (E @ x) > 2.0 * _gamma(problem.n_features) * bound))


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
