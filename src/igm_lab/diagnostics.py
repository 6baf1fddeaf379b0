"""Trajectory diagnostics: inequality censuses and rate estimation.

Every guarantee the method comes with is checked mechanically here,
over whole trajectories, each inequality family at its own tolerance
constant below:

* sufficient decrease of the objective per step,
* per-step bounds on the squared step and on the gap growth,
* the gap recursion gap_{k+1} <= mu * gap_k + delta * ||e_{k+1}||^2 and its
  unrolled envelope,
* step-norm and distance envelopes driven by the same mu,
* closed-form error bounds for batch gradients (square and logistic), and
* linear / sublinear rate fits on gap sequences.

Fits ignore gaps below GAP_FLOOR, where floating-point cancellation in
f - f_min dominates; the same cutoff bounds the window of the per-iterate
ratio checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimum import OptimalSetCertificate
from .problems import LOGISTIC, SQUARE, ComposedProblem, LipschitzConstants

GAP_FLOOR = 1e-14
DESCENT_TOL = 1e-9
ITER_BOUND_TOL = 1e-9
ENVELOPE_TOL = 1e-10
ERROR_BOUND_TOL = 1e-9
TAU_GRAD_FLOOR = 1e-8
RATIO_SPREAD_LIMIT = 1e3
TRANSIENT_SKIP = 10

MU_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999)
DELTA_GRID = tuple(10.0**p for p in range(-3, 7))
MU_DELTA_SLACK = 1e-12

# census families, in the order a verdict lists their violation counts
FAMILIES = ("descent", "iter_bound_a", "iter_bound_b", "mu_delta_envelope", "iterate_envelope",
            "ls_error_bound", "logistic_error_bound")


@dataclass(frozen=True)
class CensusEntry:
    """Outcome of one inequality checked along a trajectory.

    ``worst_slack`` is the smallest margin seen, tolerance included;
    a negative value means a violation and ``worst_index`` points at it.
    """

    name: str
    checked: int
    violations: int
    worst_slack: float
    worst_index: int | None = None


def _census(name: str, margins: np.ndarray) -> CensusEntry:
    if margins.size == 0:
        return CensusEntry(name, 0, 0, float("inf"), None)
    worst = int(np.argmin(margins))
    return CensusEntry(
        name=name,
        checked=int(margins.size),
        violations=int(np.sum(margins < 0)),
        worst_slack=float(margins[worst]),
        worst_index=worst,
    )


# ---------------------------------------------------------------------------
# per-step inequality censuses


def verify_descent(traj, constants: LipschitzConstants) -> CensusEntry:
    """Check f(x_k) - f(x_{k+1}) >= L/2 * ||step||^2 - ||e|| * ||step||."""
    L = constants.composed
    drop = traj.fs[:-1] - traj.fs[1:]
    rhs = 0.5 * L * traj.step_norms**2 - traj.err_norms * traj.step_norms
    tol = DESCENT_TOL * (1.0 + np.abs(traj.fs[:-1]))
    return _census("descent", drop - rhs + tol)


def verify_iter_bounds(
    traj, constants: LipschitzConstants, cert: OptimalSetCertificate
) -> tuple[CensusEntry, CensusEntry]:
    """Check the two per-step corollaries of sufficient decrease.

    (a) ||step||^2 <= 4/L * (f_k - f_{k+1} + ||e||^2 / L)
    (b) 0 <= gap_{k+1} <= gap_k + ||e||^2 / (2L)
    """
    L = constants.composed
    tol = ITER_BOUND_TOL * (1.0 + np.abs(traj.fs[:-1]))
    drop = traj.fs[:-1] - traj.fs[1:]
    e2 = traj.err_norms**2
    margin_a = (4.0 / L) * (drop + e2 / L) + tol - traj.step_norms**2
    gaps = traj.gaps(cert.f_min)
    upper = gaps[:-1] + e2 / (2.0 * L) + tol - gaps[1:]
    lower = gaps[1:] + tol
    return _census("iter_bound_a", margin_a), _census("iter_bound_b", np.minimum(upper, lower))


# ---------------------------------------------------------------------------
# error-bound (distance vs gradient) diagnostics


def error_bound_ratios(traj, grad_floor: float = TAU_GRAD_FLOOR) -> np.ndarray:
    """Distance / gradient-norm ratios at the qualifying iterates."""
    if traj.dists is None:
        raise ValueError("trajectory has no attached distances")
    mask = traj.grad_norms > grad_floor
    return traj.dists[mask] / traj.grad_norms[mask]


def estimate_tau(traj, grad_floor: float = TAU_GRAD_FLOOR) -> float:
    """Largest distance / gradient-norm ratio along the trajectory."""
    ratios = error_bound_ratios(traj, grad_floor)
    if ratios.size == 0:
        raise ValueError(f"no iterate has gradient norm above {grad_floor:g}")
    return float(np.max(ratios))


# ---------------------------------------------------------------------------
# rate fits


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(gap_k) against k over [start, stop)."""

    rate: float
    r_squared: float
    start: int
    stop: int


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(gap_k) against log(k) over [start, stop)."""

    exponent: float
    r_squared: float
    start: int
    stop: int


def qualifying_length(gaps) -> int:
    """Number of leading gaps at or above GAP_FLOOR (and finite)."""
    gaps = np.asarray(gaps, dtype=float)
    bad = ~(gaps >= GAP_FLOOR)
    idx = np.nonzero(bad)[0]
    return int(idx[0]) if idx.size else gaps.shape[0]


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        return 1.0 if ss_res <= 1e-24 else 0.0
    return 1.0 - ss_res / ss_tot


def _tail_line(gaps, tail_fraction: float, skip: int, log_k: bool):
    """Least-squares line through log(gap_k) against k, or against log k
    from k = 1, over the trailing ``tail_fraction`` of the qualifying gaps
    (skipping at least the first ``skip`` iterations as transient).

    Returns (slope, R^2, start, stop). Raises ``ValueError`` with fewer
    than 5 qualifying gaps (6 against log k).
    """
    gaps = np.asarray(gaps, dtype=float)
    m = qualifying_length(gaps)
    need = 6 if log_k else 5
    if m < need:
        raise ValueError(f"only {m} qualifying gaps, need at least {need}")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = min(max(int(m * (1.0 - tail_fraction)), skip, int(log_k)), m - 5)
    k = np.arange(start, m, dtype=float)
    x = np.log(k) if log_k else k
    y = np.log(gaps[start:m])
    slope, intercept = np.polyfit(x, y, 1)
    return slope, _r_squared(y, slope * x + intercept), start, m


def fit_linear_rate(gaps, tail_fraction: float = 0.5, skip: int = TRANSIENT_SKIP) -> RateFit:
    """Fit a per-iteration contraction factor, exp(slope) of the tail line
    through log(gap) against k. Raises ``ValueError`` with fewer than 5
    qualifying points."""
    slope, r_squared, start, stop = _tail_line(gaps, tail_fraction, skip, log_k=False)
    return RateFit(float(np.exp(slope)), r_squared, start, stop)


def fit_sublinear_exponent(gaps, tail_fraction: float = 0.5, skip: int = TRANSIENT_SKIP) -> ExponentFit:
    """Fit gap_k ~ k**exponent on the tail window (k >= 1)."""
    slope, r_squared, start, stop = _tail_line(gaps, tail_fraction, skip, log_k=True)
    return ExponentFit(float(slope), r_squared, start, stop)


def _or_none(estimate, *args):
    """``estimate(*args)``, or None where it finds too little data (ValueError)."""
    try:
        return estimate(*args)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# gap recursion and envelopes


def find_mu_delta(traj, cert: OptimalSetCertificate) -> tuple[float, float] | None:
    """Smallest grid pair (mu, delta) satisfying the gap recursion.

    Searches mu over MU_GRID (ascending) and delta over DELTA_GRID for
    gap_{k+1} <= mu * gap_k + delta * ||e_{k+1}||^2 + MU_DELTA_SLACK at
    every step; returns None when no grid pair works.
    """
    gaps = traj.gaps(cert.f_min)
    e2 = traj.err_norms**2
    for mu in MU_GRID:
        need = gaps[1:] - mu * gaps[:-1] - MU_DELTA_SLACK
        active = need > 0
        if not np.any(active):
            return mu, DELTA_GRID[0]
        if np.any(e2[active] == 0.0):
            continue
        required = float(np.max(need[active] / e2[active]))
        for delta in DELTA_GRID:
            if delta >= required:
                return mu, delta
    return None


def envelope_check(traj, mu: float, delta: float, cert: OptimalSetCertificate) -> CensusEntry:
    """Check the unrolled gap envelope
    gap_k <= mu**k * gap_0 + delta * sum_j mu**(k-j) * ||e_j||^2."""
    gaps = traj.gaps(cert.f_min)
    # python floats round each operation as numpy float64 scalars do
    level = float(gaps[0])
    envelope = [level]
    for sq in (traj.err_norms**2).tolist():
        level = mu * level + delta * sq
        envelope.append(level)
    tol = ENVELOPE_TOL * (1.0 + gaps[0])
    return _census("mu_delta_envelope", np.array(envelope) + tol - gaps)


@dataclass(frozen=True)
class IterateEnvelopeFit:
    """Smallest scalars making the step-norm and distance envelopes hold."""

    lambda1: float
    lambda2: float
    census: CensusEntry


def _ratio_spread(ratios: np.ndarray) -> tuple[float, bool]:
    """(max/median, ok) for one nonnegative ratio sequence."""
    if not np.all(np.isfinite(ratios)):
        return float("inf"), False
    top = float(np.max(ratios))
    if top == 0.0:
        return 0.0, True
    med = float(np.median(ratios))
    if med == 0.0:
        return float("inf"), False
    spread = top / med
    return spread, spread <= RATIO_SPREAD_LIMIT


def iterate_rate_check(traj, cert: OptimalSetCertificate, mu: float) -> IterateEnvelopeFit:
    """Fit the iterate envelopes driven by a feasible mu.

    The envelope at step k is sum_{j<=k+1} mu**((k+1-j)/2) * ||e_j|| plus
    ((1+mu)/2)**(k/2); lambda1 and lambda2 are the largest step-norm and
    distance ratios against it over the gap-qualifying window. The
    boundedness heuristic (max <= RATIO_SPREAD_LIMIT * median) skips the
    transient, where fast problem modes die off long before the envelope
    moves; a non-convergent tail still blows the spread up. The census's
    ``worst_index`` is the step of the largest ratio in whichever sequence
    spreads more.
    """
    if traj.dists is None:
        raise ValueError("trajectory has no attached distances")
    m = min(qualifying_length(traj.gaps(cert.f_min)), traj.iterations)
    if m < 1:
        raise ValueError("no qualifying iterations")
    # python floats round each operation as numpy float64 scalars do,
    # and float ** int calls the same C pow
    levels = []
    weighted = 0.0
    root = math.sqrt(mu)
    shrink = math.sqrt((1.0 + mu) / 2.0)
    for k, err in enumerate(traj.err_norms[:m].tolist()):
        weighted = root * weighted + err
        levels.append(weighted + shrink**k)
    envelope = np.array(levels)
    step_ratios = traj.step_norms[:m] / envelope
    dist_ratios = traj.dists[:m] / envelope
    settled = TRANSIENT_SKIP if m > 2 * TRANSIENT_SKIP else 0
    spread1, ok1 = _ratio_spread(step_ratios[settled:])
    spread2, ok2 = _ratio_spread(dist_ratios[settled:])
    widest = step_ratios if spread1 >= spread2 else dist_ratios
    census = CensusEntry(
        name="iterate_envelope",
        checked=2 * m,
        violations=int(not ok1) + int(not ok2),
        worst_slack=float(RATIO_SPREAD_LIMIT - max(spread1, spread2)),
        worst_index=settled + int(np.argmax(widest[settled:])),
    )
    return IterateEnvelopeFit(
        lambda1=float(np.max(step_ratios)),
        lambda2=float(np.max(dist_ratios)),
        census=census,
    )


# ---------------------------------------------------------------------------
# batch-error bounds


def check_ls_error_bound(traj, problem: ComposedProblem) -> CensusEntry:
    """Check ||e_{k+1}||^2 <= 8 R^2 * leftout_fraction * f(x_k) for square
    losses, at steps whose batch holds at least half the samples."""
    if problem.loss != SQUARE:
        raise ValueError("square-loss bound requested on a non-square problem")
    if traj.batch_sizes is None:
        return CensusEntry("ls_error_bound", 0, 0, float("inf"), None)
    m = problem.n_samples
    radius = problem.sample_radius
    sizes = traj.batch_sizes
    mask = 2 * sizes >= m
    leftout = (m - sizes[mask]) / m
    bound = 8.0 * radius**2 * leftout * traj.fs[:-1][mask]
    return _census("ls_error_bound", bound + ERROR_BOUND_TOL - traj.err_norms[mask] ** 2)


def check_logistic_error_bound(traj, problem: ComposedProblem) -> CensusEntry:
    """Check ||e_{k+1}||^2 <= 4 R^4 * leftout_fraction^2 for logistic losses."""
    if problem.loss != LOGISTIC:
        raise ValueError("logistic bound requested on a non-logistic problem")
    if traj.batch_sizes is None:
        return CensusEntry("logistic_error_bound", 0, 0, float("inf"), None)
    m = problem.n_samples
    radius = problem.sample_radius
    leftout = (m - traj.batch_sizes) / m
    bound = 4.0 * radius**4 * leftout**2
    return _census("logistic_error_bound", bound + ERROR_BOUND_TOL - traj.err_norms**2)


def check_ls_expected_bound(trajs, problem: ComposedProblem, cert: OptimalSetCertificate) -> CensusEntry:
    """Monte-Carlo form of the expected squared-error bound for square losses:
    mean ||e_{k+1}||^2 <= 16 R^2 * stochastic_leftout * (mean gap + f_min),
    with a 3-standard-error allowance on the left."""
    if problem.loss != SQUARE:
        raise ValueError("square-loss bound requested on a non-square problem")
    if len(trajs) < 2:
        raise ValueError("need at least 2 trajectories")
    sizes = trajs[0].batch_sizes
    if sizes is None:
        raise ValueError("trajectories carry no batch sizes")
    for t in trajs[1:]:
        if t.batch_sizes is None or not np.array_equal(t.batch_sizes, sizes):
            raise ValueError("trajectories must share one batch schedule")
    m = problem.n_samples
    radius = problem.sample_radius
    e2 = np.stack([t.err_norms**2 for t in trajs])
    mean_e2 = e2.mean(axis=0)
    se = e2.std(axis=0, ddof=1) / np.sqrt(e2.shape[0])
    rel_se = np.divide(se, mean_e2, out=np.zeros_like(se), where=mean_e2 > 0)
    mean_gap = np.stack([t.gaps(cert.f_min)[:-1] for t in trajs]).mean(axis=0)
    stoch_leftout = (m - sizes) / ((m - 1) * sizes)
    bound = 16.0 * radius**2 * stoch_leftout * (mean_gap + cert.f_min)
    return _census("ls_expected_bound", bound * (1.0 + 3.0 * rel_se) - mean_e2)


# ---------------------------------------------------------------------------
# aggregation over seeds


@dataclass(eq=False)
class AggregateReport:
    """The per-iteration mean gap over seeds, with rate fits on it."""

    mean_gap: np.ndarray
    linear_fit: RateFit | None
    sublinear_fit: ExponentFit | None


def aggregate_expectation(trajs, cert: OptimalSetCertificate, tail_fraction: float = 0.5) -> AggregateReport:
    """Average trajectories from independent seeds and fit the mean gap."""
    failure = next((t.failure for t in trajs if t.failure is not None), None)
    if failure is not None:
        raise ValueError(f"no verdict for a failed run: {failure}")
    if len(trajs) < 2:
        raise ValueError("need at least 2 trajectories")
    length = trajs[0].fs.shape[0]
    if any(t.fs.shape[0] != length for t in trajs):
        raise ValueError("trajectories must have equal length")
    mean_gap = np.stack([t.gaps(cert.f_min) for t in trajs]).mean(axis=0)
    return AggregateReport(
        mean_gap=mean_gap,
        linear_fit=_or_none(fit_linear_rate, mean_gap, tail_fraction),
        sublinear_fit=_or_none(fit_sublinear_exponent, mean_gap, tail_fraction),
    )


# ---------------------------------------------------------------------------
# one-call report


@dataclass(eq=False)
class RateReport:
    """Everything the verdict of one run needs."""

    census: dict[str, CensusEntry]
    mu: float | None
    delta: float | None
    tau_hat: float | None
    lambda1: float | None
    lambda2: float | None
    linear_fit: RateFit | None
    sublinear_fit: ExponentFit | None

    @property
    def total_violations(self) -> int:
        return sum(entry.violations for entry in self.census.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0 and self.mu is not None


def diagnose(problem: ComposedProblem, cert: OptimalSetCertificate, traj, tail_fraction: float = 0.5) -> RateReport:
    """Run every applicable check and fit on one trajectory that ran to the end."""
    if traj.failure is not None:
        raise ValueError(f"no verdict for a failed run: {traj.failure}")
    constants = problem.constants
    census: dict[str, CensusEntry] = {}
    census["descent"] = verify_descent(traj, constants)
    bound_a, bound_b = verify_iter_bounds(traj, constants, cert)
    census["iter_bound_a"] = bound_a
    census["iter_bound_b"] = bound_b

    pair = find_mu_delta(traj, cert)
    mu = delta = None
    lambda1 = lambda2 = None
    if pair is not None:
        mu, delta = pair
        census["mu_delta_envelope"] = envelope_check(traj, mu, delta, cert)
        if traj.dists is not None:
            fit = iterate_rate_check(traj, cert, mu)
            census["iterate_envelope"] = fit.census
            lambda1, lambda2 = fit.lambda1, fit.lambda2

    if traj.batch_sizes is not None:
        if problem.loss == SQUARE:
            census["ls_error_bound"] = check_ls_error_bound(traj, problem)
        else:
            census["logistic_error_bound"] = check_logistic_error_bound(traj, problem)

    tau_hat = None if traj.dists is None else _or_none(estimate_tau, traj)
    gaps = traj.gaps(cert.f_min)
    linear = _or_none(fit_linear_rate, gaps, tail_fraction)
    sublinear = _or_none(fit_sublinear_exponent, gaps, tail_fraction)

    return RateReport(
        census=census,
        mu=mu,
        delta=delta,
        tau_hat=tau_hat,
        lambda1=lambda1,
        lambda2=lambda2,
        linear_fit=linear,
        sublinear_fit=sublinear,
    )
