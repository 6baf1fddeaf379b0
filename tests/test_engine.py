"""Unit tests for the inexact-step engine: schedules, error models, run loop."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igm_lab import (
    LOGISTIC,
    SQUARE,
    ComposedProblem,
    ExplicitSchedule,
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    LeastSquaresSpec,
    PolynomialNorms,
    PolynomialResidualSchedule,
    SyntheticError,
    ZeroError,
    generate_least_squares,
    run,
    run_batch,
)
from igm_lab.engine import _BATCH_FORM_ATOL, _batch_errors, _fill_errors, _forms_agree
from igm_lab.problems import _sigmoid

from conftest import expected_sq_error

TINY_FEATURES = np.array([[1.0, 0.0], [2.0, 0.0]])
TINY_LABELS = np.array([1.0, 2.0])


def tiny_problem():
    return ComposedProblem(TINY_FEATURES, TINY_LABELS, SQUARE)


def random_square_problem(seed, samples=6, features=3):
    rng = np.random.default_rng(seed)
    return ComposedProblem(
        rng.standard_normal((samples, features)), rng.standard_normal(samples), SQUARE
    )


class TestNormSchedules:
    def test_geometric_norm_values(self):
        norms = GeometricNorms(1.0, 0.25)
        assert norms.norm_at(1) == pytest.approx(0.5, abs=1e-16)
        assert norms.norm_at(2) == pytest.approx(0.25, abs=1e-16)

    def test_polynomial_norm_values(self):
        norms = PolynomialNorms(1.0, 1.0)
        assert norms.norm_at(1) == pytest.approx(1.0, abs=1e-16)
        assert norms.norm_at(2) == pytest.approx(0.5, abs=1e-16)

    def test_polynomial_norm_overflow_gives_zero(self):
        # k**(1 + power) overflows a float from k = 2 on; the norm takes
        # its limit 0, and values that do not overflow keep their bits
        norms = PolynomialNorms(3.0, 2000.0)
        assert norms.norm_at(1) == math.sqrt(3.0)
        assert norms.norm_at(2) == 0.0
        assert norms.norm_at(10**6) == 0.0
        assert PolynomialNorms(3.0, 1000.0).norm_at(2) == math.sqrt(3.0 / 2 ** 1001.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricNorms(-1.0, 0.5)
        with pytest.raises(ValueError):
            GeometricNorms(1.0, 1.0)
        with pytest.raises(ValueError):
            GeometricNorms(1.0, 0.0)
        with pytest.raises(ValueError):
            PolynomialNorms(1.0, 0.0)
        with pytest.raises(ValueError):
            PolynomialNorms(-1.0, 1.0)


class TestBatchSchedules:
    def test_geometric_residual_sizes(self):
        schedule = GeometricResidualSchedule(0.5, 0.5)
        assert [schedule.size_at(k, 100) for k in range(3)] == [50, 75, 88]
        assert schedule.size_at(10_000, 100) == 100

    def test_geometric_residual_meets_target(self):
        schedule = GeometricResidualSchedule(0.3, 0.8)
        for k in range(60):
            left_out = (77 - schedule.size_at(k, 77)) / 77
            assert left_out <= 0.3 * 0.8**k + 1e-12

    def test_polynomial_residual_sizes(self):
        schedule = PolynomialResidualSchedule(0.5, 1.0)
        assert schedule.size_at(0, 40) == 20
        assert schedule.size_at(1, 40) == 35
        assert schedule.size_at(9, 40) == 40
        for k in range(30):
            left_out = (40 - schedule.size_at(k, 40)) / 40
            assert left_out <= 0.5 / (k + 1) ** 2 + 1e-12

    def test_polynomial_residual_overflow_gives_a_full_batch(self):
        # (k+1)**(1 + power) overflows a float from k = 1 on; the left-out
        # fraction takes its limit 0, and sizes that do not overflow keep
        # their value
        schedule = PolynomialResidualSchedule(0.5, 2000.0)
        assert [schedule.size_at(k, 40) for k in (0, 1, 2, 10**6)] == [20, 40, 40, 40]
        near = PolynomialResidualSchedule(0.5, 1000.0)
        assert near.size_at(1, 40) == min(40, math.ceil(40 * (1.0 - 0.5 / 2 ** 1001.0)))

    def test_sizes_are_nondecreasing(self):
        for schedule in (
            GeometricResidualSchedule(0.9, 0.7),
            PolynomialResidualSchedule(0.9, 0.5),
            ExplicitSchedule((1, 4, 9, 53)),
        ):
            sizes = [schedule.size_at(k, 53) for k in range(200)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            assert all(1 <= s <= 53 for s in sizes)
            assert sizes[-1] == 53

    def test_explicit_schedule_repeats_last_size(self):
        schedule = ExplicitSchedule((10, 20, 40))
        assert schedule.size_at(1, 100) == 20
        assert schedule.size_at(2, 100) == 40
        assert schedule.size_at(5, 100) == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricResidualSchedule(0.0, 0.5)
        with pytest.raises(ValueError):
            GeometricResidualSchedule(1.0, 0.5)
        with pytest.raises(ValueError):
            PolynomialResidualSchedule(0.5, 0.0)
        with pytest.raises(ValueError):
            ExplicitSchedule(())
        with pytest.raises(ValueError):
            ExplicitSchedule((3, 2))
        with pytest.raises(ValueError):
            ExplicitSchedule((0, 5))
        # the upper bound is the problem's M, so it is checked when a run starts
        model = IncrementalBatchError(ExplicitSchedule((5, 11)))
        with pytest.raises(ValueError, match=r"sizes must lie in \[1, 10\]"):
            run(random_square_problem(0, samples=10), model, np.zeros(3), 1)


def fill_errors(model, k, rng, n=2):
    """The errors e_1 ... e_k of a one-seed stack drawn from ``rng``."""
    errors = np.full((1, k, n), np.nan)
    _fill_errors(model, errors, [rng])
    return errors[0]


def batch_error(model, problem, x, rng):
    """The error e_1 a run at x would draw from ``rng`` for its step 0."""
    _, slopes, g = problem.evaluate(x[None])
    return _batch_errors(model, problem, slopes, g, 0, [rng])[0][0]


class TestMakeError:
    """Error vectors as the step loop draws them, for a stack of one seed."""

    def test_zero_model(self):
        assert np.array_equal(fill_errors(ZeroError(), 3, np.random.default_rng(0)), np.zeros((3, 2)))

    def test_synthetic_norm_is_exact(self):
        model = SyntheticError(GeometricNorms(4.0, 0.25))
        errors = fill_errors(model, 5, np.random.default_rng(1))
        for k in (1, 2, 5):
            assert np.linalg.norm(errors[k - 1]) == pytest.approx(np.sqrt(4.0 * 0.25**k), rel=1e-12)

    def test_synthetic_fixed_direction(self):
        model = SyntheticError(GeometricNorms(1.0, 0.25), direction=np.array([3.0, 4.0]))
        e = fill_errors(model, 1, np.random.default_rng(0))[0]
        assert np.allclose(e, 0.5 * np.array([0.6, 0.8]), atol=1e-15)

    def test_synthetic_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            SyntheticError(GeometricNorms(1.0, 0.5), direction=np.zeros(3))

    def test_error_index_starts_at_one(self):
        # the first error a run draws is e_1, of squared norm scale * ratio,
        # not e_0 of squared norm scale
        model = SyntheticError(GeometricNorms(4.0, 0.25), direction=np.array([1.0, 0.0]))
        errors = fill_errors(model, 2, np.random.default_rng(0))
        assert errors[:, 0].tolist() == [1.0, 0.5]

    def test_two_sample_batch_error_closed_form(self):
        problem = tiny_problem()
        x = np.array([0.3, -0.2])
        model = IncrementalBatchError(ExplicitSchedule((1,)), selection="prefix")
        e = batch_error(model, problem, x, np.random.default_rng(0))
        g0, g1 = problem.sample_gradients(x)
        assert np.allclose(e, (g0 - g1) / 2.0, atol=1e-14)

    def test_batch_mean_identity(self):
        # batch mean of per-sample gradients equals gradient + error
        problem = random_square_problem(3, samples=7, features=4)
        x = np.random.default_rng(9).standard_normal(4)
        model = IncrementalBatchError(ExplicitSchedule((3,)), selection="prefix")
        e = batch_error(model, problem, x, np.random.default_rng(0))
        batch_mean = problem.sample_gradients(x)[:3].mean(axis=0)
        assert np.allclose(problem.gradient(x) + e, batch_mean, atol=1e-12)

    def test_full_batch_error_is_exactly_zero(self):
        # regression: the complement sum must vanish identically, not just
        # to rounding, when the batch covers every sample
        problem = random_square_problem(5, samples=11, features=3)
        x = np.random.default_rng(2).standard_normal(3)
        model = IncrementalBatchError(ExplicitSchedule((11,)), selection="uniform")
        for seed in range(5):
            e = batch_error(model, problem, x, np.random.default_rng(seed))
            assert np.array_equal(e, np.zeros(3))

    def test_uniform_selection_depends_on_rng(self):
        problem = random_square_problem(8, samples=12, features=3)
        x = np.ones(3)
        model = IncrementalBatchError(ExplicitSchedule((4,)), selection="uniform")
        repeat = [batch_error(model, problem, x, np.random.default_rng(7)) for _ in range(2)]
        other = batch_error(model, problem, x, np.random.default_rng(8))
        assert np.array_equal(repeat[0], repeat[1])
        assert not np.array_equal(repeat[0], other)


class TestStep:
    def test_one_step_reaches_tiny_optimum(self):
        problem = tiny_problem()
        traj = run(problem, ZeroError(), np.zeros(2), 1)
        assert np.allclose(traj.xs[1], [1.0, 0.0], atol=1e-15)
        assert traj.fs[1] <= 1e-30

    def test_error_can_cancel_the_gradient(self):
        # gradient at the origin is (-5, 0); a fixed error of norm 5 along
        # +x at k=1 cancels it, so the step goes nowhere
        problem = tiny_problem()
        model = SyntheticError(GeometricNorms(50.0, 0.5), direction=np.array([1.0, 0.0]))
        traj = run(problem, model, np.zeros(2), 1)
        assert traj.err_norms[0] == 5.0
        assert np.allclose(traj.xs[1], np.zeros(2), atol=1e-15)

    def test_optimum_is_a_fixed_point(self):
        problem = tiny_problem()
        x = np.array([1.0, -3.5])
        traj = run(problem, ZeroError(), x, 1)
        assert np.allclose(traj.xs[1], x, atol=1e-15)


class TestModelMustFitProblem:
    """A model whose shape does not match the problem fails before any step."""

    @pytest.mark.parametrize("length", [1, 5])
    def test_run_rejects_direction_of_wrong_length(self, length):
        # length 1 would otherwise broadcast silently over every coordinate
        problem = random_square_problem(3, samples=6, features=3)
        model = SyntheticError(GeometricNorms(1.0, 0.5), direction=np.ones(length))
        with pytest.raises(ValueError, match=f"direction length {length} does not match 3 features"):
            run(problem, model, np.zeros(3), 5)

    def test_make_error_rejects_mismatched_direction(self):
        problem = tiny_problem()
        model = SyntheticError(GeometricNorms(1.0, 0.5), direction=np.array([1.0]))
        with pytest.raises(ValueError, match="direction length"):
            run(problem, model, np.zeros(2), 1)

    def test_make_error_rejects_mismatched_schedule(self):
        # a size above M, even one the run would not reach, fails before any step
        problem = tiny_problem()
        model = IncrementalBatchError(ExplicitSchedule((1, 3)))
        with pytest.raises(ValueError, match=r"sizes must lie in \[1, 2\]"):
            run(problem, model, np.zeros(2), 1)


def masked_sigmoid(z):
    """The two-branch masked logistic sigmoid, each exp taken only where it
    cannot overflow; the kernel's one-exp form must match it bit for bit."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_parts(problem, x):
    """f, per-sample slopes and gradient from the textbook formulas."""
    features, labels = problem.features, problem.labels
    scores = features @ x
    if problem.loss == SQUARE:
        f = float(np.mean((scores - labels) ** 2))
        slopes = 2.0 * (scores - labels)
    else:
        u = labels * scores
        f = float(np.mean(np.logaddexp(0.0, -u)))
        slopes = -labels * masked_sigmoid(-u)
    return f, slopes, features.T @ slopes / problem.n_samples


def left_out_batch_error(problem, slopes, g, s, selection, rng):
    """e = ((M - s) g - sum of the left-out per-sample gradients) / s while
    the batch leaves out at most half the rows, else the batch mean minus
    g; the left-out rows are the tail (prefix selection) or a uniform draw
    of M - s distinct rows."""
    m = problem.n_samples
    if selection == "prefix":
        left_out = np.arange(s, m)
    else:
        left_out = rng.choice(m, m - s, replace=False, shuffle=False)
    if m - s <= s:
        return ((m - s) * g - slopes[left_out] @ problem.features[left_out]) / s
    chosen = np.ones(m, dtype=bool)
    chosen[left_out] = False
    return np.where(chosen, slopes, 0.0) @ problem.features / s - g


def summed_batch_error(problem, slopes, g, s, selection, rng):
    """The batch error from sums over the batch and over its complement,
    each added row by row with ``.sum(axis=0)``, a permutation of all M rows
    picking a uniform batch."""
    m = problem.n_samples
    indices = np.arange(s) if selection == "prefix" else rng.permutation(m)[:s]
    grads = slopes[:, None] * problem.features
    chosen = np.zeros(m, dtype=bool)
    chosen[indices] = True
    return ((m - s) / (m * s)) * grads[indices].sum(axis=0) - grads[~chosen].sum(axis=0) / m


def reference_run(problem, model, x0, iterations, seed, batch_error=left_out_batch_error):
    """The step loop spelled out with the textbook loss formulas, fancy
    indexing and ``np.linalg.norm``; the engine must reproduce it bit for
    bit."""
    rng = np.random.default_rng(seed)
    L = problem.constants.composed
    n = problem.n_features
    x = np.array(x0, dtype=float)
    out = {name: [] for name in ("xs", "fs", "grad_norms", "errors", "err_norms", "step_norms", "batch_sizes")}
    for k in range(iterations + 1):
        f, slopes, g = reference_parts(problem, x)
        out["xs"].append(x)
        out["fs"].append(f)
        out["grad_norms"].append(np.linalg.norm(g))
        if k == iterations:
            break
        if isinstance(model, ZeroError):
            e = np.zeros(n)
        elif isinstance(model, SyntheticError):
            if model.direction is None:
                d = rng.standard_normal(n)
                d /= np.linalg.norm(d)
            else:
                d = model.direction
            e = model.norms.norm_at(k + 1) * d
        else:
            s = model.schedule.size_at(k, problem.n_samples)
            e = batch_error(problem, slopes, g, s, model.selection, rng)
            out["batch_sizes"].append(s)
        step = (g + e) / L
        out["errors"].append(e)
        out["err_norms"].append(np.linalg.norm(e))
        out["step_norms"].append(np.linalg.norm(step))
        x = x - step
    arrays = {name: np.array(values) for name, values in out.items()}
    arrays["batch_sizes"] = arrays["batch_sizes"].astype(np.int64)
    return arrays


def _reference_problem(loss):
    rng = np.random.default_rng(17)
    features = rng.standard_normal((30, 4))
    if loss == SQUARE:
        return ComposedProblem(features, rng.standard_normal(30), SQUARE)
    return ComposedProblem(features, np.where(rng.standard_normal(30) >= 0, 1.0, -1.0), LOGISTIC)


REFERENCE_MODELS = {
    "zero": ZeroError(),
    "synthetic-random": SyntheticError(GeometricNorms(0.5, 0.9)),
    # a long stream: run draws every direction up front, the reference one per step
    "synthetic-random-500": SyntheticError(GeometricNorms(0.5, 0.99)),
    "synthetic-fixed": SyntheticError(PolynomialNorms(0.5, 1.0), direction=np.array([1.0, -2.0, 0.5, 3.0])),
    "prefix-batch": IncrementalBatchError(GeometricResidualSchedule(0.6, 0.8), selection="prefix"),
    "uniform-batch": IncrementalBatchError(PolynomialResidualSchedule(0.6, 1.0), selection="uniform"),
}


def assert_matches_reference(problem, model, x0, iterations, seed):
    traj = run(problem, model, x0, iterations, seed=seed)
    ref = reference_run(problem, model, x0, iterations, seed)
    for name in ("xs", "fs", "grad_norms", "errors", "err_norms", "step_norms"):
        assert np.array_equal(getattr(traj, name), ref[name]), name
    if isinstance(model, IncrementalBatchError):
        assert np.array_equal(traj.batch_sizes, ref["batch_sizes"])
    else:
        assert traj.batch_sizes is None


@pytest.mark.parametrize("loss", [SQUARE, LOGISTIC])
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_run_matches_reference_loop_bitwise(loss, name):
    iterations = 500 if name.endswith("-500") else 40
    assert_matches_reference(_reference_problem(loss), REFERENCE_MODELS[name], np.linspace(-1.0, 1.0, 4), iterations, 3)


def _tall_problem(samples=5000):
    rng = np.random.default_rng(23)
    return ComposedProblem(rng.standard_normal((samples, 5)), rng.standard_normal(samples), SQUARE)


def test_run_matches_reference_loop_bitwise_on_a_tall_problem():
    # thousands of left-out rows per gather; the kernel's row copies must
    # reach the BLAS product in the same order as fancy indexing
    model = IncrementalBatchError(GeometricResidualSchedule(0.9, 0.8), selection="uniform")
    assert_matches_reference(_tall_problem(), model, np.zeros(5), 8, 4)


# the seeds of the widest stack, out of order; the narrow stacks take some of them
STACK_SEEDS = [int(seed) for seed in np.random.default_rng(9).permutation(40)]
STACKS = [STACK_SEEDS[:1], STACK_SEEDS[5:7], [STACK_SEEDS[9], STACK_SEEDS[2], STACK_SEEDS[30]], STACK_SEEDS]
BATCH_CASES = [(loss, name) for loss in (SQUARE, LOGISTIC) for name in sorted(REFERENCE_MODELS)] + [("tall", "uniform")]


@pytest.mark.parametrize("loss, name", BATCH_CASES)
def test_run_batch_matches_the_reference_loop_bitwise(loss, name):
    # every seed of a stack of 1, 2, 3 or 40 gets what the plain loop gives
    # it alone, from a start of its own
    if loss == "tall":
        problem, iterations = _tall_problem(), 8
        model = IncrementalBatchError(GeometricResidualSchedule(0.9, 0.8), selection="uniform")
    else:
        problem, model = _reference_problem(loss), REFERENCE_MODELS[name]
        iterations = 500 if name.endswith("-500") else 40
    n = problem.n_features
    references = {}
    for seeds in STACKS:
        starts = np.array([np.linspace(-1.0, 1.0, n) * (1.0 + seed / 8) for seed in seeds])
        trajs = run_batch(problem, model, starts, iterations, seeds)
        assert [traj.seed for traj in trajs] == seeds
        for seed, x0, traj in zip(seeds, starts, trajs):
            if seed not in references:
                references[seed] = reference_run(problem, model, x0, iterations, seed)
            ref = references[seed]
            for field in ("xs", "fs", "grad_norms", "errors", "err_norms", "step_norms"):
                assert np.array_equal(getattr(traj, field), ref[field]), (seeds, seed, field)
            if isinstance(model, IncrementalBatchError):
                assert np.array_equal(traj.batch_sizes, ref["batch_sizes"])
            else:
                assert traj.batch_sizes is None


@pytest.mark.parametrize("samples, features", [(50, 20), (200, 10), (20000, 5), (4000, 50), (7, 3)])
def test_stacked_matmul_keeps_one_vector_bits(samples, features):
    # the rule the stacked step kernel rests on: with a unit middle axis,
    # matmul hands each row to the BLAS call a lone vector takes; another
    # numpy or BLAS may break it, and this test names the identity first
    rng = np.random.default_rng(samples + features)
    E = rng.standard_normal((samples, features))
    for width in (1, 2, 3, 8, 15, 40):
        X = rng.standard_normal((width, features))
        slopes = rng.standard_normal((width, samples))
        scores = (X[:, None, :] @ E.T)[:, 0, :]
        gradients = (slopes[:, None, :] @ E)[:, 0, :]
        dots = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
        sums = np.add.reduce(slopes, axis=1)
        for i in range(width):
            assert np.array_equal(scores[i], E @ X[i]), ("E @ x", width, i)
            assert np.array_equal(gradients[i], E.T @ slopes[i]), ("E.T @ s", width, i)
            assert dots[i] == X[i].dot(X[i]), ("v . v", width, i)
            assert sums[i] == np.add.reduce(slopes[i]), ("sum", width, i)


def test_run_batch_validates_its_stack():
    problem = tiny_problem()
    assert [t.seed for t in run_batch(problem, ZeroError(), np.zeros((2, 2)), 3, [4, 1])] == [4, 1]
    with pytest.raises(ValueError, match="starts must have shape"):
        run_batch(problem, ZeroError(), np.zeros((2, 2)), 3, [0])
    with pytest.raises(ValueError, match="starts must have shape"):
        run_batch(problem, ZeroError(), np.zeros(2), 3, [0])
    with pytest.raises(ValueError):
        run_batch(problem, ZeroError(), np.zeros((1, 2)), 0, [0])


# tracemalloc peak of attaching distances to one 35-iterate trajectory of
# the 20000 x 5 problem below when distances went through a cached (n, M)
# pseudoinverse and a (K+1, M) matrix of offsets: 10.68 MiB, pinv included
PINV_ATTACH_PEAK = 11_201_328


def test_stacked_run_peak_memory_stays_below_attach_distances():
    # the (S, M) scores and slopes of a stack are the run's largest arrays;
    # at the 20000 x 5, 15-seed batch shape its tracemalloc peak must not
    # exceed what attaching distances to a single trajectory cost when the
    # distances took a pseudoinverse, a price the same command used to pay
    spec = LeastSquaresSpec(20000, 5, 3, 0.1, seed=5, singular_range=(0.7, 1.0))
    problem = generate_least_squares(spec)
    model = IncrementalBatchError(GeometricResidualSchedule(0.9, 0.8), selection="uniform")
    tracemalloc.start()
    try:
        run_batch(problem, model, np.zeros((15, 5)), 34, range(15))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run_peak <= PINV_ATTACH_PEAK, (run_peak, PINV_ATTACH_PEAK)


PREFIX_CASES = {
    "square": (lambda: _reference_problem(SQUARE), REFERENCE_MODELS["prefix-batch"], 4, 40),
    "logistic": (lambda: _reference_problem(LOGISTIC), REFERENCE_MODELS["prefix-batch"], 4, 40),
    "tall": (_tall_problem, IncrementalBatchError(GeometricResidualSchedule(0.9, 0.8), selection="prefix"),
             5, 20),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_prefix_batch_run_agrees_with_the_summed_arithmetic(case):
    # a prefix batch draws no random numbers, so the left-out formula and
    # the old sums over the batch and its complement follow the same path
    # and may differ only by rounding
    make_problem, model, n, iterations = PREFIX_CASES[case]
    problem = make_problem()
    x0 = np.linspace(-1.0, 1.0, n)
    traj = run(problem, model, x0, iterations, seed=3)
    old = reference_run(problem, model, x0, iterations, 3, batch_error=summed_batch_error)
    for name in ("xs", "fs", "grad_norms", "errors", "err_norms", "step_norms"):
        expected = old[name]
        np.testing.assert_allclose(getattr(traj, name), expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)), err_msg=name)
    assert np.array_equal(traj.batch_sizes, old["batch_sizes"])


def test_uniform_batch_errors_are_right_in_law():
    # the error drawn at x_k must have the expected squared norm of a batch
    # of s_k rows drawn without replacement: over 100 seeds, the mean excess
    # of ||e_{k+1}||^2 over expected_sq_error(x_k, s_k) lies within 4
    # standard errors of 0 at every step
    problem = random_square_problem(71, samples=12, features=3)
    model = IncrementalBatchError(ExplicitSchedule((2, 3, 5, 7, 9, 11)), selection="uniform")
    steps = 6
    excess = np.empty((100, steps))
    for seed in range(100):
        traj = run(problem, model, np.zeros(3), steps, seed=seed)
        for k in range(steps):
            expected = expected_sq_error(problem, traj.xs[k], int(traj.batch_sizes[k]))
            excess[seed, k] = traj.err_norms[k] ** 2 - expected
    mean = excess.mean(axis=0)
    stderr = excess.std(axis=0, ddof=1) / np.sqrt(excess.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * stderr), (mean, stderr)


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan]


def test_sigmoid_matches_the_masked_form_bitwise():
    rng = np.random.default_rng(5)
    spread = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-3, 3, 20_000)
    for z in (np.array(SIGMOID_EDGES), spread):
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


NEAR_TOLERANCE = [0.0, 1e-12, -1e-12, np.nextafter(1e-12, 1.0), 2e-12, 1e-300, 1.0]
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e-12, 1e308, -1e308, np.inf, -np.inf, np.nan]


@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True)),
        st.sampled_from(NEAR_TOLERANCE),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
))
@settings(max_examples=200, deadline=None)
def test_batch_forms_agree_like_allclose(entries):
    # each b[i] is a[i] shifted by about the tolerance, or an unrelated entry
    a = np.array([value for value, _, _ in entries])
    shifted = a + np.array([shift for _, shift, _ in entries])
    b = np.where([near for _, _, near in entries], shifted, a[::-1])
    with np.errstate(invalid="ignore", over="ignore"):
        assert _forms_agree(a, b) == np.allclose(a, b, rtol=0.0, atol=_BATCH_FORM_ATOL)


class FixedDraw:
    """Stands in for a seed's generator: every draw leaves out ``left_out``."""

    def __init__(self, left_out):
        self.left_out = np.array(left_out)

    def choice(self, *args, **kwargs):
        return self.left_out


def test_batch_error_reports_the_rows_whose_forms_disagree():
    # in a stack of a sound row and a broken one, only the broken row is
    # reported, and the sound row's error is what it is alone
    problem = random_square_problem(7, samples=12, features=3)
    _, slopes, g = problem.evaluate(np.ones((2, 3)))
    prefix = IncrementalBatchError(ExplicitSchedule((5,)), selection="prefix")  # leaves out rows 5 to 11
    alone, _, disagree = _batch_errors(prefix, problem, slopes[:1], g[:1], 0, [None])
    assert disagree == {}
    errors, _, disagree = _batch_errors(prefix, problem, slopes, g + [[0.0], [1e-9]], 0, [None, None])
    assert list(disagree) == [1] and "batch-error forms disagree" in disagree[1]
    assert np.array_equal(errors[0], alone[0])
    # a repeated left-out row is masked once but counted twice, so the
    # batch sums the two forms imply differ by that row's gradient
    uniform = IncrementalBatchError(ExplicitSchedule((9,)), selection="uniform")
    alone, _, disagree = _batch_errors(uniform, problem, slopes[:1], g[:1], 0, [FixedDraw([3, 8, 10])])
    assert disagree == {}
    errors, _, disagree = _batch_errors(uniform, problem, slopes, g, 0, [FixedDraw([3, 8, 10]), FixedDraw([3, 8, 3])])
    assert list(disagree) == [1] and disagree[1].startswith("at step 0, batch-error forms disagree")
    assert np.array_equal(errors[0], alone[0])


@pytest.mark.parametrize("selection", ["prefix", "uniform"])
def test_small_batches_of_many_rows_pass_the_forms_check(selection):
    # a batch of 1 or 2 rows out of 20000: the left-out form
    # ((M - s) g - S_R) / s would round about 2e4 times a row's rounding,
    # beyond _BATCH_FORM_ATOL, so such a batch takes the direct form
    problem = _tall_problem(20_000)
    model = IncrementalBatchError(ExplicitSchedule((1, 2, 20_000)), selection=selection)
    traj = run(problem, model, np.zeros(5), 3, seed=0)
    assert traj.batch_sizes.tolist() == [1, 2, 20_000]
    assert not traj.errors[2].any()
    if selection == "prefix":
        _, slopes, g = problem.evaluate(traj.xs[0])
        np.testing.assert_allclose(traj.errors[0], slopes[0] * problem.features[0] - g, rtol=1e-14)


class GradientOverride(ComposedProblem):
    """A problem whose ``evaluate`` returns ``value`` in place of the true
    gradient of stack row ``row`` on its call number ``at`` (0-based), which
    ``run_batch`` makes at iterate ``at``."""

    def __init__(self, problem, at, value, row):
        super().__init__(problem.features, problem.labels, problem.loss)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "value", np.asarray(value, dtype=float))
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "calls", 0)

    def poison(self, f, g):
        g[self.row] = self.value

    def evaluate(self, x, out=None):
        f, slopes, g = super().evaluate(x, out)
        call = self.calls
        object.__setattr__(self, "calls", call + 1)
        if call == self.at:
            self.poison(f, g)
        return f, slopes, g


class GradientShift(GradientOverride):
    """Adds ``value`` to row ``row``'s gradient at call ``at``, and 1e-6 to
    every later row's, so that the later rows disagree more."""

    def poison(self, f, g):
        g[self.row] += self.value
        g[self.row + 1:] += 1e-6


class ObjectiveOverride(GradientOverride):
    """Sets every row's objective value to ``value`` at call ``at``."""

    def poison(self, f, g):
        f[:] = self.value


# (seeds of the stack, position of the poisoned row): alone, first of
# three, and last of three with its seed out of order
POISONED_ROWS = [([0], 0), ([0, 4, 2], 0), ([0, 4, 2], 2)]

TRAJECTORY_ARRAYS = ("xs", "fs", "grad_norms", "errors", "err_norms", "step_norms")


def assert_stopped_at(traj, clean, k, message):
    """``traj`` failed at iterate k with ``message``, and holds, bit for bit,
    what ``clean`` (its run without the fault) computed before the faulty
    gradient at x_k: the k steps and the iterates up to x_k."""
    assert traj.failure == message
    assert traj.iterations == k and traj.xs.shape[0] == k + 1
    for name in TRAJECTORY_ARRAYS:
        assert np.array_equal(getattr(traj, name)[:k], getattr(clean, name)[:k]), name
    assert np.array_equal(traj.xs[k], clean.xs[k])


def assert_same_as_without(trajs, failed_rows, problem, model, seeds, iterations):
    """The rows outside ``failed_rows`` ran to the end, and equal bit for bit
    a stack of their seeds alone."""
    kept = [seed for i, seed in enumerate(seeds) if i not in failed_rows]
    if not kept:
        return
    alone = run_batch(problem, model, np.zeros((len(kept), problem.n_features)), iterations, kept)
    others = [traj for i, traj in enumerate(trajs) if i not in failed_rows]
    for traj, ref in zip(others, alone):
        assert traj.failure is None and traj.seed == ref.seed
        for name in TRAJECTORY_ARRAYS + ("batch_sizes",):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), (traj.seed, name)


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("model", [ZeroError(), SyntheticError(GeometricNorms(0.5, 0.9))],
                             ids=["zero", "synthetic"])
    def test_non_finite_gradient_diverges_at_its_iterate(self, bad, model):
        problem = random_square_problem(51, samples=8, features=3)
        for seeds, row in POISONED_ROWS:
            poisoned = GradientOverride(problem, 3, [0.5, bad, -0.25], row)
            trajs = run_batch(poisoned, model, np.zeros((len(seeds), 3)), 6, seeds)
            clean = run(problem, model, np.zeros(3), 6, seed=seeds[row])
            assert_stopped_at(trajs[row], clean, 3, f"seed {seeds[row]}: diverged at iteration 3")
            assert not np.isfinite(trajs[row].grad_norms[3])
            assert_same_as_without(trajs, [row], problem, model, seeds, 6)

    def test_overflowing_gradient_norm_is_recorded_as_inf(self):
        # every entry is finite, so g is no reason to stop even though g . g
        # overflows; the norm is recorded as inf, in that row only
        problem = random_square_problem(52, samples=8, features=3)
        huge = [1e200, -1e200, 1e200]
        clean = run(problem, ZeroError(), np.zeros(3), 6, seed=0)
        for seeds, row in POISONED_ROWS:
            starts = np.zeros((len(seeds), 3))
            with np.errstate(over="ignore"):
                trajs = run_batch(GradientOverride(problem, 6, huge, row), ZeroError(), starts, 6, seeds)
            assert trajs[row].grad_norms[6] == np.inf
            assert np.array_equal(trajs[row].grad_norms[:6], clean.grad_norms[:6])
            assert all(np.array_equal(t.grad_norms, clean.grad_norms) for i, t in enumerate(trajs) if i != row)
            # earlier in the run the step it takes sends f to inf at the next iterate
            with np.errstate(over="ignore"):
                trajs = run_batch(GradientOverride(problem, 2, huge, row), ZeroError(), starts, 6, seeds)
            failed = trajs[row]
            assert failed.failure == f"seed {seeds[row]}: diverged at iteration 3"
            assert failed.iterations == 3 and failed.fs[3] == np.inf
            assert np.array_equal(failed.fs[:3], clean.fs[:3])
            assert_same_as_without(trajs, [row], problem, ZeroError(), seeds, 6)


class TestStackedChecks:
    """The checks over a whole stack blame the row that fails them."""

    def test_forms_check_names_each_failing_seed_and_its_own_difference(self):
        problem = random_square_problem(53, samples=12, features=3)
        model = IncrementalBatchError(ExplicitSchedule((6, 8, 10)), selection="uniform")
        for seeds, row in POISONED_ROWS:
            shifted = GradientShift(problem, 2, 1e-9, row)
            trajs = run_batch(shifted, model, np.zeros((len(seeds), 3)), 6, seeds)
            # the shift moves the poisoned row's two forms apart by 1e-9, the later rows' by 1e-6
            for i in range(row, len(seeds)):
                message = trajs[i].failure
                match = re.fullmatch(rf"seed {seeds[i]}: at step 2, batch-error forms disagree by up to (\S+),"
                                     r" beyond 1e-12", message)
                assert match, message
                assert float(match.group(1)) == pytest.approx(1e-9 if i == row else 1e-6, rel=1e-3), message
                clean = run(problem, model, np.zeros(3), 6, seed=seeds[i])
                assert_stopped_at(trajs[i], clean, 2, message)
                assert np.array_equal(trajs[i].batch_sizes, clean.batch_sizes[:2])
            assert_same_as_without(trajs, range(row, len(seeds)), problem, model, seeds, 6)

    def test_finite_stack_whose_sum_overflows_runs_to_the_end(self):
        # every f and g . g is finite, but the f of the three rows add up
        # beyond the float range: nothing diverged, so the run goes on
        problem = random_square_problem(52, samples=8, features=3)
        seeds, starts = [0, 4, 2], np.zeros((3, 3))
        clean = run_batch(problem, ZeroError(), starts, 6, seeds)
        trajs = run_batch(ObjectiveOverride(problem, 3, 1e308, 0), ZeroError(), starts, 6, seeds)
        for traj, ref in zip(trajs, clean):
            assert traj.fs[3] == 1e308
            assert np.array_equal(np.delete(traj.fs, 3), np.delete(ref.fs, 3))
            assert np.array_equal(traj.xs, ref.xs)
            assert np.array_equal(traj.grad_norms, ref.grad_norms)


class TestRun:
    def test_tiny_zero_run_values(self):
        problem = tiny_problem()
        traj = run(problem, ZeroError(), np.zeros(2), 3, seed=0)
        assert traj.fs[0] == pytest.approx(2.5, abs=1e-15)
        assert all(f <= 1e-30 for f in traj.fs[1:])
        assert traj.iterations == 3

    def test_array_shapes(self):
        problem = tiny_problem()
        traj = run(problem, ZeroError(), np.zeros(2), 4, seed=0)
        assert traj.xs.shape == (5, 2)
        assert traj.fs.shape == (5,)
        assert traj.grad_norms.shape == (5,)
        assert traj.errors.shape == (4, 2)
        assert traj.err_norms.shape == (4,)
        assert traj.step_norms.shape == (4,)
        assert traj.batch_sizes is None
        assert traj.dists is None
        assert np.all(np.isfinite(traj.fs))

    def test_zero_error_descends_monotonically(self):
        problem = random_square_problem(21, samples=10, features=5)
        traj = run(problem, ZeroError(), np.ones(5), 50, seed=0)
        assert np.all(np.diff(traj.fs) <= 1e-15)

    def test_error_norms_follow_one_based_indexing(self):
        problem = tiny_problem()
        model = SyntheticError(GeometricNorms(4.0, 0.25))
        traj = run(problem, model, np.zeros(2), 3, seed=0)
        assert traj.err_norms[0] == pytest.approx(1.0, rel=1e-12)
        assert traj.err_norms[1] == pytest.approx(0.5, rel=1e-12)
        assert traj.err_norms[2] == pytest.approx(0.25, rel=1e-12)

    def test_same_seed_reproduces_bitwise(self):
        problem = random_square_problem(31, samples=9, features=4)
        model = SyntheticError(GeometricNorms(0.5, 0.8))
        a = run(problem, model, np.zeros(4), 40, seed=5)
        b = run(problem, model, np.zeros(4), 40, seed=5)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.fs, b.fs)

    def test_different_seeds_differ(self):
        problem = random_square_problem(31, samples=9, features=4)
        model = SyntheticError(GeometricNorms(0.5, 0.8))
        a = run(problem, model, np.zeros(4), 10, seed=5)
        b = run(problem, model, np.zeros(4), 10, seed=6)
        assert not np.array_equal(a.errors, b.errors)

    def test_batch_run_records_schedule_sizes(self):
        problem = random_square_problem(41, samples=20, features=3)
        schedule = GeometricResidualSchedule(0.5, 0.7)
        traj = run(problem, IncrementalBatchError(schedule), np.zeros(3), 15, seed=0)
        expected = [schedule.size_at(k, 20) for k in range(15)]
        assert traj.batch_sizes.tolist() == expected

    def test_metadata(self):
        problem = tiny_problem()
        traj = run(problem, ZeroError(), np.zeros(2), 1, seed=9)
        assert traj.seed == 9

    def test_divergence_is_reported_with_iteration(self):
        # microscopic smoothness constant makes one enormous injected error
        # overshoot to a non-finite objective on the very next iterate; of a
        # stack with a tame seed, only that seed stops
        problem = ComposedProblem(np.array([[1e-3]]), np.array([0.0]), SQUARE)
        model = SyntheticError(GeometricNorms(1e308, 0.9))
        with np.errstate(over="ignore"):
            traj = run(problem, model, np.zeros(1), 5, seed=0)
            trajs = run_batch(problem, ZeroError(), np.zeros((1, 1)), 5, [0])
        assert traj.failure == "seed 0: diverged at iteration 1"
        assert traj.iterations == 1 and traj.fs[1] == np.inf and np.all(np.isfinite(traj.xs))
        assert trajs[0].failure is None and trajs[0].iterations == 5

    def test_input_validation(self):
        problem = tiny_problem()
        with pytest.raises(ValueError):
            run(problem, ZeroError(), np.zeros(2), 0, seed=0)
        with pytest.raises(ValueError):
            run(problem, ZeroError(), np.zeros(3), 5, seed=0)


class TestExpectedSqError:
    def test_full_batch_has_no_error(self):
        problem = random_square_problem(51, samples=6, features=3)
        assert expected_sq_error(problem, np.ones(3), 6) == 0.0

    def test_two_sample_closed_form(self):
        problem = tiny_problem()
        x = np.array([0.4, 1.3])
        g0, g1 = problem.sample_gradients(x)
        expected = float(np.sum((g0 - g1) ** 2)) / 4.0
        assert expected_sq_error(problem, x, 1) == pytest.approx(expected, rel=1e-12)

    def test_single_sample_problem_returns_zero(self):
        problem = ComposedProblem(np.array([[1.0]]), np.array([2.0]), SQUARE)
        assert expected_sq_error(problem, np.zeros(1), 1) == 0.0

    def test_matches_exhaustive_enumeration(self):
        problem = random_square_problem(61, samples=6, features=3)
        x = np.random.default_rng(4).standard_normal(3)
        grads = problem.sample_gradients(x)
        full = grads.mean(axis=0)
        for s in range(1, 7):
            draws = [
                float(np.sum((grads[list(batch)].mean(axis=0) - full) ** 2))
                for batch in itertools.combinations(range(6), s)
            ]
            assert expected_sq_error(problem, x, s) == pytest.approx(
                float(np.mean(draws)), abs=1e-10
            )

    def test_batch_size_bounds(self):
        problem = tiny_problem()
        with pytest.raises(ValueError):
            expected_sq_error(problem, np.zeros(2), 0)
        with pytest.raises(ValueError):
            expected_sq_error(problem, np.zeros(2), 3)
