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

``run_batch`` steps several seeds as one (S, n) stack; ``run`` is its
one-seed case. Randomness comes from one generator per seed, consumed in a
fixed order. Zero and synthetic errors do not depend on the iterate, so
their whole stream is drawn before the first step: one ``standard_normal``
call filling all K random directions of a seed gives the same numbers, in
the same order, as one call per step. Uniform batch selection draws one
left-out set per step, in iteration order, with ``rng.choice(M, M - s,
replace=False, shuffle=False)``; prefix selection leaves out the rows from
s on.

One step evaluates the whole stack once. ``evaluate`` writes its margins
and slopes, and the logistic sigmoid's temporaries, into two (S, M)
buffers that the run allocates once, so no step allocates an (S, M) array.
Only what belongs to one seed runs seed by seed: a uniform batch's draw,
the gathered product over its left-out rows, and one masked BLAS pass over
all M rows into a reused scratch row. The rest runs once over the stack:
the batch size, both batch-error forms, their agreement check, the chosen
error, the update, and the finiteness check. Each check is one reduction
over the stack; only when it fails are the rows examined, and a failing row
leaves the stack. Norms stay squared in the loop and are rooted once at the
end; the error norms are taken from the stored errors after the loop.

Runs are reproducible bit for bit, and the step kernel keeps the bits fixed:
every sum adds the same values in the same order, and every norm is
``sqrt(v . v)``, which is what ``np.linalg.norm`` computes for a real 1-D
array. A stack keeps each seed's bits by the unit-middle-axis rule: every
product over the stack is a ``matmul`` of (S, 1, a) items, by an (a, b)
matrix or by (S, a, 1) items, which numpy hands row by row to the BLAS
call one vector takes; the plain GEMM ``X @ E.T`` rounds differently.
``tests/test_engine.py`` checks all of this against a plain reference
loop. Rewrites measured to change the bits, and so left out: ``np.einsum``
or ``sum(where=...)`` in place of the BLAS product over the left-out rows,
and a GEMM over the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ComposedProblem

# Agreement tolerance between the two algebraic forms of the batch error.
_BATCH_FORM_ATOL = 1e-12


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
# batch-size schedules (incremental model): size_at(k, m) is the batch
# size at 0-based step k of a problem with m samples


@dataclass(frozen=True)
class GeometricResidualSchedule:
    """Batch sizes keeping the left-out fraction at most initial * ratio**k."""

    initial: float
    ratio: float

    def __post_init__(self):
        if not 0.0 < self.initial < 1.0:
            raise ValueError("initial residual fraction must lie in (0, 1)")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")

    def size_at(self, k: int, m: int) -> int:
        return min(m, math.ceil(m * (1.0 - self.initial * self.ratio**k)))


@dataclass(frozen=True)
class PolynomialResidualSchedule:
    """Batch sizes keeping the left-out fraction at most initial / (k+1)**(1+power)."""

    initial: float
    power: float

    def __post_init__(self):
        if not 0.0 < self.initial < 1.0:
            raise ValueError("initial residual fraction must lie in (0, 1)")
        if self.power <= 0:
            raise ValueError("power must be positive")

    def size_at(self, k: int, m: int) -> int:
        try:
            target = self.initial / (k + 1) ** (1.0 + self.power)
        except OverflowError:  # (k+1)**(1 + power) beyond the float range: a full batch
            return m
        return min(m, math.ceil(m * (1.0 - target)))


@dataclass(frozen=True)
class ExplicitSchedule:
    """A hand-picked nondecreasing size sequence; the last size repeats.
    ``check_fits`` holds the sizes to at most the problem's M."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes:
            raise ValueError("sizes must be nonempty")
        if any(s < 1 for s in sizes):
            raise ValueError("sizes must be at least 1")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be nondecreasing")
        object.__setattr__(self, "sizes", sizes)

    def size_at(self, k: int, m: int) -> int:
        return self.sizes[min(k, len(self.sizes) - 1)]


BatchSchedule = GeometricResidualSchedule | PolynomialResidualSchedule | ExplicitSchedule


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ZeroError:
    """Exact gradients."""


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


@dataclass(frozen=True)
class IncrementalBatchError:
    """Error from averaging only a batch of per-sample gradients."""

    schedule: BatchSchedule
    selection: str = "prefix"

    def __post_init__(self):
        if self.selection not in ("prefix", "uniform"):
            raise ValueError("selection must be 'prefix' or 'uniform'")


ErrorModel = ZeroError | SyntheticError | IncrementalBatchError


def check_fits(model: ErrorModel, problem: ComposedProblem) -> None:
    """Reject a model whose shape does not match the problem's: a fixed
    direction of another length than n, or an explicit batch size above M."""
    direction = getattr(model, "direction", None)
    if direction is not None and direction.shape != (problem.n_features,):
        raise ValueError(f"direction length {direction.size} does not match {problem.n_features} features")
    schedule = getattr(model, "schedule", None)
    if isinstance(schedule, ExplicitSchedule) and max(schedule.sizes) > problem.n_samples:
        raise ValueError(f"sizes must lie in [1, {problem.n_samples}]")


def _forms_agree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.allclose(a, b, rtol=0.0, atol=_BATCH_FORM_ATOL)`` along the last
    axis, at a fifth of its per-call cost: NaN never agrees, equal infinities
    do. Unlike ``allclose`` it leaves numpy's warning on ``inf - inf``
    switched on."""
    return ((np.abs(a - b) <= _BATCH_FORM_ATOL) | (a == b)).all(axis=-1)


def _batch_errors(model: IncrementalBatchError, problem: ComposedProblem, slopes: np.ndarray, g: np.ndarray,
                  step: int, rngs) -> tuple[np.ndarray, int, dict[int, str]]:
    """A stack's batch errors (S, n) at 0-based ``step``, the batch size, and its failed rows.

    Row i's batch-mean gradient minus its full gradient ``g[i]``, the
    per-sample gradients being ``slopes[i, :, None] * features``, for the
    batch of s = M - r rows that leaves out r rows: the tail from s on
    (prefix selection), or ``rngs[i].choice(M, r, replace=False,
    shuffle=False)`` (uniform). Only what belongs to one row runs per row:
    the draw, the gathered left-out sum S_R and one BLAS pass S_B over all M
    rows with the left-out slopes zeroed, in a reused scratch row. Over the
    stack, e = (r g - S_R) / s for r <= s (exactly zero for a full batch)
    and S_B / s - g for r > s, whose rounding does not grow with r / s.
    The direct form must agree with (r / (M s)) S_B - S_R / M to
    _BATCH_FORM_ATOL per coordinate; the two differ by (S_B + S_R - M g) / M,
    so a repeated left-out index or a ``g`` off the mean breaks it, and each
    such row's message names the step and its own largest difference."""
    features = problem.features
    m = problem.n_samples
    size = model.schedule.size_at(step, m)
    r = m - size
    prefix = np.arange(size, m) if model.selection == "prefix" else None
    left_sums = np.empty_like(g)
    batch_sums = np.empty_like(g)
    masked = np.empty(m)
    for i, rng in enumerate(rngs):
        left_out = prefix if prefix is not None else rng.choice(m, r, replace=False, shuffle=False)
        left_sums[i] = slopes[i].take(left_out) @ features.take(left_out, axis=0)
        masked[:] = slopes[i]
        masked[left_out] = 0.0
        batch_sums[i] = masked @ features
    direct = batch_sums / size - g
    other = (r / (m * size)) * batch_sums - left_sums / m
    # one reduction passes a stack whose largest difference is within the
    # tolerance (a NaN fails it); only then are the rows examined one by one
    disagree = {}
    if not np.maximum.reduce(np.abs(other - direct), axis=None) <= _BATCH_FORM_ATOL:
        for i in np.flatnonzero(~_forms_agree(other, direct)).tolist():
            disagree[i] = (f"at step {step}, batch-error forms disagree by up to"
                           f" {np.max(np.abs(other[i] - direct[i])):.3g}, beyond {_BATCH_FORM_ATOL:g}")
    return ((r * g - left_sums) / size if r <= size else direct), size, disagree


def _dots(v: np.ndarray) -> np.ndarray:
    """``v . v`` for each vector along the last axis, by the unit-middle-axis
    rule, so each value is ``v.dot(v)`` bit for bit."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _fill_errors(model: ZeroError | SyntheticError, errors: np.ndarray, rngs: list[np.random.Generator]) -> None:
    """Write the errors e_1, ..., e_K of a model that does not depend on the
    iterate into ``errors`` (S, K, n), seed i's from ``rngs[i]``. Each row is
    a unit direction scaled by its scheduled norm; a seed's random
    directions come from one ``standard_normal`` call over its K rows, which
    draws what one call per row would."""
    if isinstance(model, ZeroError):
        errors.fill(0.0)
        return
    if model.direction is None:
        for rng, block in zip(rngs, errors):
            rng.standard_normal(out=block)
        errors /= np.sqrt(_dots(errors))[..., None]
    else:
        errors[:] = model.direction
    errors *= np.array([model.norms.norm_at(k) for k in range(1, errors.shape[1] + 1)])[:, None]


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Complete record of one run.

    Arrays are indexed by iteration: ``xs``, ``fs``, ``grad_norms`` (and
    ``dists`` once attached) have K+1 entries for a K-step run, while
    ``errors``, ``err_norms``, ``step_norms``, and ``batch_sizes`` have K
    entries; entry k of those describes the step from x_k to x_{k+1}.
    A run that failed at iterate x_k stops there, and ``failure`` says why.
    """

    xs: np.ndarray
    fs: np.ndarray
    grad_norms: np.ndarray
    errors: np.ndarray
    err_norms: np.ndarray
    step_norms: np.ndarray
    batch_sizes: np.ndarray | None
    seed: int
    dists: np.ndarray | None = field(default=None)
    failure: str | None = None

    @property
    def iterations(self) -> int:
        return self.step_norms.shape[0]

    def gaps(self, f_min: float) -> np.ndarray:
        return self.fs - f_min


def run(problem: ComposedProblem, model: ErrorModel, x0, iterations: int, seed: int = 0) -> Trajectory:
    """``run_batch`` for the one start ``x0`` and the one ``seed``."""
    return run_batch(problem, model, [x0], iterations, [seed])[0]


def run_batch(problem: ComposedProblem, model: ErrorModel, starts, iterations: int, seeds) -> list[Trajectory]:
    """Run the inexact gradient method once per seed, all seeds as one stack.

    Parameters
    ----------
    problem : ComposedProblem
    model : ErrorModel
        Where the per-iteration gradient error comes from.
    starts : (S, n) array_like
        One starting point per seed.
    iterations : int
        Number of steps K >= 1; each trajectory records K+1 iterates.
    seeds : sequence of S ints
        Each seeds its run's private random generator.

    Returns
    -------
    The S trajectories, in the order of ``seeds``. Each holds, bit for bit,
    what a stack of that seed alone gives.

    A seed stops at x_k, with its ``failure`` named, where f or the gradient
    is not finite or the batch-error forms of step k disagree (see
    ``_batch_errors``); it leaves the stack, and the others keep their bits.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    seeds = list(seeds)
    S, n, K = len(seeds), problem.n_features, iterations
    x = np.array(starts, dtype=float)
    if x.shape != (S, n):
        raise ValueError(f"starts must have shape ({S}, {n}), one row per seed")
    check_fits(model, problem)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    L = problem.constants.composed
    # zeroed: the roots taken at the end also pass over what failed runs never reached
    xs = np.zeros((S, K + 1, n))
    fs = np.zeros((S, K + 1))
    grad_norms = np.zeros((S, K + 1))
    errors = np.zeros((S, K, n))
    step_norms = np.zeros((S, K))
    batched = isinstance(model, IncrementalBatchError)
    batch_sizes = np.zeros((S, K), dtype=np.int64) if batched else None
    if not batched:
        _fill_errors(model, errors, rngs)
    # evaluate's margins and slopes, written anew at every iterate
    buffers = (np.empty((S, problem.n_samples)), np.empty((S, problem.n_samples)))
    ends, failures = [K] * S, [None] * S  # each run's last iterate, and what ended it early
    at = slice(None)  # the records of the stack's rows; a view until a run fails

    def drop(failed: dict[int, str], k: int) -> None:
        """End the runs of stack rows ``failed`` at iterate k, and take them out of the stack."""
        nonlocal x, g, slopes, rngs, at, buffers
        live = np.arange(S)[at]
        for i, message in failed.items():
            ends[live[i]], failures[live[i]] = k, f"seed {seeds[live[i]]}: {message}"
        keep = [i for i in range(live.size) if i not in failed]
        x, g, slopes, at = x[keep], g[keep], slopes[keep], live[keep]
        rngs, buffers = [rngs[i] for i in keep], tuple(buffer[:at.size] for buffer in buffers)

    for k in range(K + 1):
        f, slopes, g = problem.evaluate(x, buffers)
        gg = _dots(g)
        xs[at, k] = x
        fs[at, k] = f
        grad_norms[at, k] = gg
        # one reduction, which cannot overflow, passes a stack with every
        # |f| and g . g finite; only then are the rows examined one by one.
        # A gradient of finite entries passes even where g . g overflows
        if not math.isfinite(np.maximum.reduce(np.maximum(np.abs(f), gg))):
            finite = np.isfinite(f) & (np.isfinite(gg) | np.isfinite(g).all(axis=1))
            if not finite.all():
                drop(dict.fromkeys(np.flatnonzero(~finite).tolist(), f"diverged at iteration {k}"), k)
        if batched and k < K and len(x):
            errors[at, k], batch_sizes[at, k], disagree = _batch_errors(model, problem, slopes, g, k, rngs)
            if disagree:
                drop(disagree, k)
        if k == K or not len(x):
            break
        step = g + errors[at, k]
        step /= L
        step_norms[at, k] = _dots(step)
        x = x - step
    # the loop keeps squared norms; each root is taken once, at the end
    np.sqrt(grad_norms, out=grad_norms)
    np.sqrt(step_norms, out=step_norms)
    err_norms = np.sqrt(_dots(errors))

    return [Trajectory(xs[i, :k + 1], fs[i, :k + 1], grad_norms[i, :k + 1], errors[i, :k], err_norms[i, :k],
                       step_norms[i, :k], None if batch_sizes is None else batch_sizes[i, :k], seed, failure=failure)
            for i, (seed, k, failure) in enumerate(zip(seeds, ends, failures))]
