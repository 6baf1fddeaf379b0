"""Gradient descent with an injected per-iteration gradient error.

The update is x_{k+1} = x_k - (gradient + error) / L with the fixed step
1 / L, L the composed smoothness constant. Each iterate is evaluated once:
f, the gradient and the batch error all come from one residual pass
(``ComposedProblem.evaluate``). Error models:

* ``ZeroError``             exact gradients
* ``SyntheticError``        prescribed norm schedule, random or fixed direction
* ``IncrementalBatchError`` the error made by averaging a sample subset
                            instead of the full sum

Errors are indexed from 1: the step from x_{k-1} to x_k uses error k, so a
geometric schedule gives ||e_k||^2 = scale * ratio**k literally. Batch
schedules are indexed by the 0-based step, matching their residual targets.

Randomness comes from one generator per run, consumed in a fixed order.
Zero and synthetic errors do not depend on the iterate, so ``run`` draws
their whole stream before the first step: one ``standard_normal`` call
filling all K random directions gives the same numbers, in the same order,
as one call per step. Uniform batch selection draws one left-out set per
step, in iteration order, with ``rng.choice(M, M - s, replace=False,
shuffle=False)``; prefix selection leaves out the rows from s on.

Runs are reproducible bit for bit, and the step kernel keeps the bits fixed:
every sum adds the same values in the same order, and every norm is
``sqrt(v . v)``, which is what ``np.linalg.norm`` computes for a real 1-D
array. ``tests/test_engine.py`` checks this against a plain reference loop.
Rewrites measured to change the bits, and so left out: ``np.einsum`` or
``sum(where=...)`` in place of the BLAS product over the left-out rows, and
iterating several seeds as one stacked array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ComposedProblem

# Agreement tolerance between the two algebraic forms of the batch error.
_BATCH_FORM_ATOL = 1e-12


class DivergedError(RuntimeError):
    """Iteration produced a non-finite objective, gradient, or point."""

    def __init__(self, iteration: int):
        super().__init__(f"iterate diverged at iteration {iteration}")
        self.iteration = iteration


# ---------------------------------------------------------------------------
# error-norm schedules (synthetic models)


@dataclass(frozen=True)
class GeometricNorms:
    """Squared error norm ``scale * ratio**k`` at error index k >= 1."""

    scale: float
    ratio: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")

    def norm_at(self, k: int) -> float:
        return math.sqrt(self.scale * self.ratio**k)


@dataclass(frozen=True)
class PolynomialNorms:
    """Squared error norm ``scale / k**(1 + power)`` at error index k >= 1."""

    scale: float
    power: float

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.power <= 0:
            raise ValueError("power must be positive")

    def norm_at(self, k: int) -> float:
        try:
            return math.sqrt(self.scale / k ** (1.0 + self.power))
        except OverflowError:  # k**(1 + power) beyond the float range: its limit, 0
            return 0.0


# ---------------------------------------------------------------------------
# batch-size schedules (incremental model)


@dataclass(frozen=True)
class GeometricResidualSchedule:
    """Batch sizes keeping the left-out fraction at most initial * ratio**k."""

    initial: float
    ratio: float
    total: int

    def __post_init__(self):
        if not 0.0 < self.initial < 1.0:
            raise ValueError("initial residual fraction must lie in (0, 1)")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.total < 1:
            raise ValueError("total must be at least 1")

    def size_at(self, k: int) -> int:
        return min(self.total, math.ceil(self.total * (1.0 - self.initial * self.ratio**k)))


@dataclass(frozen=True)
class PolynomialResidualSchedule:
    """Batch sizes keeping the left-out fraction at most initial / (k+1)**(1+power)."""

    initial: float
    power: float
    total: int

    def __post_init__(self):
        if not 0.0 < self.initial < 1.0:
            raise ValueError("initial residual fraction must lie in (0, 1)")
        if self.power <= 0:
            raise ValueError("power must be positive")
        if self.total < 1:
            raise ValueError("total must be at least 1")

    def size_at(self, k: int) -> int:
        try:
            target = self.initial / (k + 1) ** (1.0 + self.power)
        except OverflowError:  # (k+1)**(1 + power) beyond the float range: a full batch
            return self.total
        return min(self.total, math.ceil(self.total * (1.0 - target)))


@dataclass(frozen=True)
class ExplicitSchedule:
    """A hand-picked nondecreasing size sequence; the last size repeats."""

    sizes: tuple[int, ...]
    total: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ValueError("sizes must be nonempty")
        if any(not 1 <= s <= self.total for s in sizes):
            raise ValueError(f"sizes must lie in [1, {self.total}]")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be nondecreasing")
        object.__setattr__(self, "sizes", sizes)

    def size_at(self, k: int) -> int:
        return self.sizes[min(k, len(self.sizes) - 1)]


BatchSchedule = GeometricResidualSchedule | PolynomialResidualSchedule | ExplicitSchedule


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ZeroError:
    def describe(self) -> str:
        return "zero"


@dataclass(frozen=True, eq=False)
class SyntheticError:
    """Error with scheduled norm; direction drawn uniformly on the sphere
    unless a fixed unit vector is given."""

    norms: GeometricNorms | PolynomialNorms
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.direction is not None:
            d = np.asarray(self.direction, dtype=float)
            norm = np.linalg.norm(d)
            if d.ndim != 1 or norm == 0 or not np.all(np.isfinite(d)):
                raise ValueError("direction must be a finite nonzero vector")
            object.__setattr__(self, "direction", d / norm)

    def describe(self) -> str:
        kind = "geometric" if isinstance(self.norms, GeometricNorms) else "polynomial"
        how = "random" if self.direction is None else "fixed"
        return f"{kind}({self.norms}, direction={how})"


@dataclass(frozen=True)
class IncrementalBatchError:
    """Error from averaging only a batch of per-sample gradients."""

    schedule: BatchSchedule
    selection: str = "prefix"

    def __post_init__(self):
        if self.selection not in ("prefix", "uniform"):
            raise ValueError("selection must be 'prefix' or 'uniform'")

    def describe(self) -> str:
        return f"batch({self.schedule}, selection={self.selection})"


ErrorModel = ZeroError | SyntheticError | IncrementalBatchError


def _check_fits(model: ErrorModel, problem: ComposedProblem) -> None:
    """Reject a model whose shape does not match the problem's."""
    direction = getattr(model, "direction", None)
    if direction is not None and direction.shape != (problem.n_features,):
        raise ValueError(f"direction length {direction.size} does not match {problem.n_features} features")
    schedule = getattr(model, "schedule", None)
    if schedule is not None and schedule.total != problem.n_samples:
        raise ValueError(f"batch schedule total {schedule.total} does not match {problem.n_samples} samples")


def _forms_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b, rtol=0.0, atol=_BATCH_FORM_ATOL)`` at a fifth of
    its per-call cost: NaN never agrees, equal infinities do. Unlike
    ``allclose`` it leaves numpy's warning on ``inf - inf`` switched on."""
    return bool(((np.abs(a - b) <= _BATCH_FORM_ATOL) | (a == b)).all())


def _batch_error(features: np.ndarray, slopes: np.ndarray, g: np.ndarray, left_out: np.ndarray) -> np.ndarray:
    """Batch-mean gradient minus the full gradient ``g`` for the batch of
    s = M - r rows that leaves out the r rows ``left_out``, the per-sample
    gradients being ``slopes[:, None] * features``. With S_R the gathered
    left-out sum and S_B one BLAS pass over all M rows with the left-out
    slopes zeroed, e = (r g - S_R) / s for r <= s (exactly zero for a full
    batch) and S_B / s - g for r > s, whose rounding does not grow with r / s.
    The direct form must agree with (r / (M s)) S_B - S_R / M to
    _BATCH_FORM_ATOL per coordinate; the two differ by (S_B + S_R - M g) / M,
    so a repeated left-out index or a ``g`` off the mean breaks it."""
    m = features.shape[0]
    r = left_out.shape[0]
    s = m - r
    left_sum = slopes.take(left_out) @ features.take(left_out, axis=0)
    masked = slopes.copy()
    masked[left_out] = 0.0
    batch_sum = masked @ features
    direct = batch_sum / s - g
    if not _forms_agree((r / (m * s)) * batch_sum - left_sum / m, direct):
        raise ArithmeticError("batch-error forms disagree beyond tolerance")
    return (r * g - left_sum) / s if r <= s else direct


def _fill_errors(model: ZeroError | SyntheticError, errors: np.ndarray, first: int,
                 rng: np.random.Generator) -> None:
    """Write the errors e_first, e_first+1, ... of a model that does not
    depend on the iterate into the rows of ``errors``. Each row is a unit
    direction scaled by its scheduled norm; random directions come from one
    ``standard_normal`` call over all rows, which draws what one call per
    row would."""
    if isinstance(model, ZeroError):
        errors.fill(0.0)
        return
    if model.direction is None:
        rng.standard_normal(out=errors)
        for d in errors:
            d /= math.sqrt(d.dot(d))
    else:
        errors[:] = model.direction
    for k, d in enumerate(errors, start=first):
        d *= model.norms.norm_at(k)


def _draw_error(
    model: ErrorModel,
    problem: ComposedProblem,
    slopes: np.ndarray,
    g: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int | None]:
    """Error vector e_k (1-based index k) and the batch size if batched."""
    if k < 1:
        raise ValueError("error index k starts at 1")
    if not isinstance(model, IncrementalBatchError):
        errors = np.empty((1, problem.n_features))
        _fill_errors(model, errors, k, rng)
        return errors[0], None
    size = model.schedule.size_at(k - 1)
    m = problem.n_samples
    if model.selection == "prefix":
        left_out = np.arange(size, m)
    else:
        left_out = rng.choice(m, m - size, replace=False, shuffle=False)
    return _batch_error(problem.features, slopes, g, left_out), size


def make_error(model: ErrorModel, problem: ComposedProblem, x, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Draw the error vector e_k for the step from x_{k-1} (see module doc)."""
    _check_fits(model, problem)
    _, slopes, g = problem.evaluate(x)
    return _draw_error(model, problem, slopes, g, k, rng)[0]


def expected_sq_error(problem: ComposedProblem, x, batch_size: int) -> float:
    """Expected squared batch-error norm under uniform sampling without
    replacement of ``batch_size`` samples."""
    m = problem.n_samples
    if not 1 <= batch_size <= m:
        raise ValueError(f"batch_size must lie in [1, {m}]")
    if m == 1:
        return 0.0
    grads = problem.sample_gradients(x)
    spread = grads - grads.mean(axis=0)
    total = float(np.sum(spread**2))
    return ((m - batch_size) / (m * batch_size)) * total / (m - 1)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Complete record of one run.

    Arrays are indexed by iteration: ``xs``, ``fs``, ``grad_norms`` (and
    ``dists`` once attached) have K+1 entries for a K-step run, while
    ``errors``, ``err_norms``, ``step_norms``, and ``batch_sizes`` have K
    entries; entry k of those describes the step from x_k to x_{k+1}.
    """

    xs: np.ndarray
    fs: np.ndarray
    grad_norms: np.ndarray
    errors: np.ndarray
    err_norms: np.ndarray
    step_norms: np.ndarray
    batch_sizes: np.ndarray | None
    seed: int
    problem_digest: str
    model_label: str
    dists: np.ndarray | None = field(default=None)

    @property
    def iterations(self) -> int:
        return self.step_norms.shape[0]

    def gaps(self, f_min: float) -> np.ndarray:
        return self.fs - f_min


def run(
    problem: ComposedProblem,
    model: ErrorModel,
    x0,
    iterations: int,
    seed: int = 0,
) -> Trajectory:
    """Run the inexact gradient method for a fixed number of steps.

    Parameters
    ----------
    problem : ComposedProblem
    model : ErrorModel
        Where the per-iteration gradient error comes from.
    x0 : (n,) array_like
        Starting point.
    iterations : int
        Number of steps K >= 1; the trajectory records K+1 iterates.
    seed : int
        Seeds the run's private random generator.

    Raises
    ------
    DivergedError
        If any objective value, gradient, or iterate stops being finite.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    x = np.array(x0, dtype=float)
    if x.shape != (problem.n_features,):
        raise ValueError(f"x0 must have shape ({problem.n_features},)")
    _check_fits(model, problem)
    rng = np.random.default_rng(seed)
    L = problem.constants.composed
    K = iterations
    n = problem.n_features
    xs = np.empty((K + 1, n))
    fs = np.empty(K + 1)
    grad_norms = np.empty(K + 1)
    errors = np.empty((K, n))
    err_norms = np.empty(K)
    step_norms = np.empty(K)
    batched = isinstance(model, IncrementalBatchError)
    batch_sizes = np.empty(K, dtype=np.int64) if batched else None
    if not batched:
        _fill_errors(model, errors, 1, rng)

    for k in range(K + 1):
        f, slopes, g = problem.evaluate(x)
        gg = g.dot(g)
        # a finite sum of squares has only finite terms, so the entrywise
        # test runs only where the sum is not finite (NaN, or an overflow)
        if not (math.isfinite(f) and (math.isfinite(gg) or np.isfinite(g).all())):
            raise DivergedError(k)
        xs[k] = x
        fs[k] = f
        grad_norms[k] = math.sqrt(gg)
        if k == K:
            break
        if batched:
            errors[k], batch_sizes[k] = _draw_error(model, problem, slopes, g, k + 1, rng)
        e = errors[k]
        err_norms[k] = math.sqrt(e.dot(e))
        step = g + e
        step /= L
        step_norms[k] = math.sqrt(step.dot(step))
        x = x - step

    return Trajectory(
        xs=xs,
        fs=fs,
        grad_norms=grad_norms,
        errors=errors,
        err_norms=err_norms,
        step_norms=step_norms,
        batch_sizes=batch_sizes,
        seed=seed,
        problem_digest=problem.digest,
        model_label=model.describe(),
    )
