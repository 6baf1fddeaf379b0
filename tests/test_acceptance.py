"""Acceptance suite: one test per advertised guarantee, at desk scale.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a full run reads as a checklist.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np

import igm_lab as lab
from igm_lab.cli import main
from igm_lab.engine import _batch_errors

GAP_TOLERANCE = 1e-10


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {num:02d}] {status} {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def conditioned_problem():
    """Rank-deficient least squares with a narrow singular-value band.

    Keeping the active singular values within a factor 2.2 of each other
    makes the exact-gradient rate fast enough that injected geometric
    errors dominate the tail, which is what criteria 4 and 5 probe.
    """
    spec = lab.LeastSquaresSpec(50, 20, 5, 0.1, seed=1, singular_range=(0.45, 1.0))
    return lab.generate_least_squares(spec)


def fixed_direction() -> np.ndarray:
    # one frozen direction keeps the injected-error sequence smooth, so
    # the log-gap regression measures the schedule instead of draw noise
    return np.random.default_rng(17).standard_normal(20)


def first_below(values: np.ndarray, threshold: float) -> int:
    hits = np.nonzero(values < threshold)[0]
    return int(hits[0]) if hits.size else -1


def test_criterion_01_descent_inequalities(battery):
    checked = 0
    violations = 0
    for entry in battery:
        for name in ("descent", "iter_bound_a", "iter_bound_b"):
            census = entry.report.census[name]
            checked += census.checked
            violations += census.violations
    report(
        1,
        "descent and per-step bounds across 20 run configs",
        violations == 0 and len(battery) == 20,
        f"{checked} inequalities checked, {violations} violations",
    )


def test_criterion_02_optimal_image_invariance(battery):
    problem = battery[0].problem
    cert = battery[0].cert
    features = problem.features
    _, _, vt = np.linalg.svd(features)
    null_basis = vt[lab.rank_factorization(features)[0]:]
    rng = np.random.default_rng(20)
    worst_image = 0.0
    worst_value = 0.0
    for _ in range(20):
        optimum = cert.minimizer + null_basis.T @ rng.standard_normal(null_basis.shape[0])
        worst_image = max(worst_image, float(np.linalg.norm(features @ optimum - cert.optimal_image)))
        worst_value = max(worst_value, abs(problem.objective(optimum) - cert.f_min))
    report(
        2,
        "every null-space shift of the minimizer keeps Ex and f fixed",
        worst_image <= 1e-10 and worst_value <= 1e-12,
        f"max image drift {worst_image:.2e}, max value drift {worst_value:.2e}",
    )


def test_criterion_03_error_bound_ratios(battery, ls_tiny):
    worst_spread = 0.0
    for entry in battery:
        ratios = lab.error_bound_ratios(entry.traj)
        spread = float(np.max(ratios) / np.median(ratios)) if ratios.size else 0.0
        worst_spread = max(worst_spread, spread)
    problem, cert = ls_tiny
    traj = lab.run(problem, lab.SyntheticError(lab.GeometricNorms(1.0, 0.5)), np.zeros(2), 30, seed=0)
    lab.attach_distances(cert, problem, traj)
    tiny_ratios = lab.error_bound_ratios(traj)
    tiny_exact = bool(tiny_ratios.size) and bool(np.all(np.abs(tiny_ratios - 0.2) <= 1e-10))
    report(
        3,
        "distance/gradient ratios bounded on all runs, exact on the closed form",
        worst_spread <= 1e3 and tiny_exact,
        f"worst max/median spread {worst_spread:.1f}, closed-form ratio 0.2",
    )


def test_criterion_04_linear_rate_without_strong_convexity():
    problem = conditioned_problem()
    cert = lab.certify(problem)
    baseline = lab.run(problem, lab.ZeroError(), np.zeros(20), 600, seed=0)
    base_fit = lab.fit_linear_rate(baseline.gaps(cert.f_min))

    model = lab.SyntheticError(lab.GeometricNorms(1.0, 0.9), fixed_direction())
    traj = lab.run(problem, model, np.zeros(20), 600, seed=0)
    lab.attach_distances(cert, problem, traj)
    gaps = traj.gaps(cert.f_min)
    hit = first_below(gaps, GAP_TOLERANCE)
    gap_fit = lab.fit_linear_rate(gaps)
    dist_fit = lab.fit_linear_rate(np.asarray(traj.dists))
    ok = (
        0 < hit <= 600
        and gap_fit.r_squared >= 0.99
        and dist_fit.r_squared >= 0.98
        and base_fit.rate <= gap_fit.rate <= 0.95
    )
    report(
        4,
        "geometric error schedule yields a linear rate on rank-deficient LS",
        ok,
        f"gap<1e-10 at k={hit}, c={gap_fit.rate:.4f} (baseline {base_fit.rate:.4f}), "
        f"R2={gap_fit.r_squared:.6f}, dist R2={dist_fit.r_squared:.6f}",
    )


def test_criterion_05_sublinear_regime():
    problem = conditioned_problem()
    cert = lab.certify(problem)
    model = lab.SyntheticError(lab.PolynomialNorms(1.0, 1.0), fixed_direction())
    traj = lab.run(problem, model, np.zeros(20), 2500, seed=0)
    gaps = traj.gaps(cert.f_min)
    power_fit = lab.fit_sublinear_exponent(gaps)
    linear_fit = lab.fit_linear_rate(gaps)
    ok = (
        -2.3 <= power_fit.exponent <= -1.7
        and power_fit.r_squared >= 0.97
        and linear_fit.r_squared < power_fit.r_squared
    )
    report(
        5,
        "1/k^2 error schedule yields the sublinear regime, not the linear one",
        ok,
        f"p={power_fit.exponent:.3f}, log-log R2={power_fit.r_squared:.6f}, "
        f"log-linear R2={linear_fit.r_squared:.6f}",
    )


def test_criterion_06_mu_delta_recursion(battery):
    infeasible = [entry.name for entry in battery if entry.report.mu is None]
    violations = sum(entry.report.census["mu_delta_envelope"].violations for entry in battery)
    report(
        6,
        "a feasible (mu, delta) pair certifies the gap envelope on every run",
        not infeasible and violations == 0,
        f"20 feasible pairs, {violations} envelope violations",
    )


def test_criterion_07_growing_batch_least_squares():
    problem = lab.generate_least_squares(lab.LeastSquaresSpec(200, 10, 4, 0.1, seed=2))
    cert = lab.certify(problem)
    schedule = lab.GeometricResidualSchedule(0.5, 0.8)
    traj = lab.run(problem, lab.IncrementalBatchError(schedule), np.zeros(10), 500, seed=0)
    half_full = bool(np.all(2 * traj.batch_sizes >= 200))
    census = lab.check_ls_error_bound(traj, problem)
    fit = lab.fit_linear_rate(traj.gaps(cert.f_min))
    ok = half_full and census.checked == 500 and census.violations == 0 and fit.r_squared >= 0.98
    report(
        7,
        "prefix-batch LS satisfies the per-step error bound and a linear rate",
        ok,
        f"{census.checked} steps bounded, c={fit.rate:.4f}, R2={fit.r_squared:.5f}",
    )


def test_criterion_08_growing_batch_logistic():
    problem = lab.generate_logistic(lab.LogisticSpec(100, 5, 0.1, seed=3))
    cert = lab.certify(problem)
    schedule = lab.GeometricResidualSchedule(0.5, 0.9)
    traj = lab.run(problem, lab.IncrementalBatchError(schedule), np.zeros(5), 400, seed=0)
    census = lab.check_logistic_error_bound(traj, problem)
    gaps = traj.gaps(cert.f_min)
    cut = first_below(gaps, 1e-9)
    fit = lab.fit_linear_rate(gaps[:cut] if cut > 0 else gaps)
    ok = census.checked == 400 and census.violations == 0 and fit.r_squared >= 0.97
    report(
        8,
        "prefix-batch logistic satisfies the residual bound and a linear rate",
        ok,
        f"{census.checked} steps bounded, fit to gap 1e-9 (k<{cut}), "
        f"c={fit.rate:.4f}, R2={fit.r_squared:.5f}",
    )


def test_criterion_09_sampling_variance_identity():
    rng = np.random.default_rng(30)
    worst = 0.0
    for m in (2, 5, 8):
        problem = lab.ComposedProblem(
            rng.standard_normal((m, 3)), rng.standard_normal(m), lab.SQUARE
        )
        x = rng.standard_normal(3)
        grads = problem.sample_gradients(x)
        full = grads.mean(axis=0)
        for s in range(1, m + 1):
            draws = [
                float(np.sum((grads[list(batch)].mean(axis=0) - full) ** 2))
                for batch in itertools.combinations(range(m), s)
            ]
            worst = max(worst, abs(float(np.mean(draws)) - lab.expected_sq_error(problem, x, s)))

    big = lab.generate_least_squares(lab.LeastSquaresSpec(200, 6, 4, 0.1, seed=6))
    x = np.random.default_rng(31).standard_normal(6)
    model = lab.IncrementalBatchError(lab.ExplicitSchedule((60,)), selection="uniform")
    # 2000 draws at x: a stack of 2000 copies of x whose rows draw their
    # left-out sets in turn from one generator
    draw_rng = np.random.default_rng(32)
    _, slopes, g = big.evaluate(np.tile(x, (2000, 1)))
    errors = _batch_errors(model, big, slopes, g, 0, [draw_rng] * 2000, range(2000))[0]
    samples = np.array([float(np.sum(e**2)) for e in errors])
    expected = lab.expected_sq_error(big, x, 60)
    stderr = float(samples.std(ddof=1) / np.sqrt(samples.size))
    deviation = abs(float(samples.mean()) - expected)
    ok = worst <= 1e-10 and deviation <= 3.0 * stderr
    report(
        9,
        "expected squared error matches enumeration and Monte Carlo",
        ok,
        f"exhaustive max error {worst:.2e}; MC deviation {deviation:.3e} <= 3 SE {3 * stderr:.3e}",
    )


def test_criterion_10_expected_rates_over_seeds():
    spec = lab.LeastSquaresSpec(20000, 5, 3, 0.1, seed=5, singular_range=(0.7, 1.0))
    problem = lab.generate_least_squares(spec)
    cert = lab.certify(problem)

    def mean_runs(schedule, iterations):
        model = lab.IncrementalBatchError(schedule, selection="uniform")
        return lab.run_batch(problem, model, np.zeros((100, 5)), iterations, range(100))

    geo_runs = mean_runs(lab.GeometricResidualSchedule(0.9, 0.8), 34)
    geo = lab.aggregate_expectation(geo_runs, cert)
    bound = lab.check_ls_expected_bound(geo_runs, problem, cert)

    poly_runs = mean_runs(lab.PolynomialResidualSchedule(0.9, 1.0), 40)
    poly = lab.aggregate_expectation(poly_runs, cert)

    ok = (
        geo.linear_fit is not None
        and geo.linear_fit.r_squared >= 0.99
        and bound.violations == 0
        and poly.sublinear_fit is not None
        and -2.3 <= poly.sublinear_fit.exponent <= -1.7
    )
    report(
        10,
        "100-seed mean gaps follow the expected linear and sublinear rates",
        ok,
        f"geometric c={geo.linear_fit.rate:.4f} R2={geo.linear_fit.r_squared:.5f}, "
        f"expected-bound violations {bound.violations}, "
        f"polynomial p={poly.sublinear_fit.exponent:.3f}",
    )


def test_criterion_11_oracle_cross_checks(ls_tiny):
    # gradients against central differences
    rng = np.random.default_rng(40)
    worst_grad = 0.0
    for loss in (lab.SQUARE, lab.LOGISTIC):
        labels = rng.standard_normal(7)
        if loss == lab.LOGISTIC:
            labels = np.where(labels >= 0, 1.0, -1.0)
        problem = lab.ComposedProblem(rng.standard_normal((7, 4)), labels, loss)
        for _ in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.2, 3.0)
            h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            grad = problem.gradient(x)
            approx = np.array(
                [
                    (problem.objective(x + h * e) - problem.objective(x - h * e)) / (2 * h)
                    for e in np.eye(4)
                ]
            )
            rel = float(np.linalg.norm(grad - approx) / (1.0 + np.linalg.norm(grad)))
            worst_grad = max(worst_grad, rel)

    # distances against a null-space projection oracle on a 3-feature problem
    problem3 = lab.generate_least_squares(lab.LeastSquaresSpec(6, 3, 2, 0.1, seed=8))
    cert3 = lab.certify(problem3)
    features = problem3.features
    _, _, vt = np.linalg.svd(features)
    null_basis = vt[2:]
    anchor = np.linalg.pinv(features) @ cert3.optimal_image
    xs = rng.standard_normal((25, 3)) * 2.0
    projected = anchor + (xs - anchor) @ null_basis.T @ null_basis
    oracle = np.linalg.norm(xs - projected, axis=1)
    measured = lab.attach_distances(cert3, problem3, SimpleNamespace(xs=xs)).dists
    worst_dist = float(np.max(np.abs(measured - oracle)))

    # closed-form distance on the tiny problem
    tiny_problem, tiny_cert = ls_tiny
    xs = rng.standard_normal((25, 2)) * 3.0
    measured = lab.attach_distances(tiny_cert, tiny_problem, SimpleNamespace(xs=xs)).dists
    worst_dist = max(worst_dist, float(np.max(np.abs(measured - np.abs(xs[:, 0] - 1.0)))))

    # square certificates of consistent rank-deficient systems are the
    # min-norm solutions: no null-space component
    worst_null = 0.0
    for seed in range(10):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((3, 2)) @ gen.standard_normal((2, 4))
        t = a @ gen.standard_normal(4)
        u = lab.certify(lab.ComposedProblem(a, t, lab.SQUARE)).minimizer
        _, _, avt = np.linalg.svd(a)
        worst_null = max(worst_null, float(np.linalg.norm(avt[2:] @ u)))

    ok = worst_grad <= 1e-6 and worst_dist <= 1e-8 and worst_null <= 1e-8
    report(
        11,
        "gradients, distances, and min-norm certificates match independent oracles",
        ok,
        f"grad rel err {worst_grad:.2e}, dist err {worst_dist:.2e}, "
        f"null leak {worst_null:.2e}",
    )


def test_criterion_12_byte_identical_reruns(tmp_path):
    problem = lab.generate_least_squares(lab.LeastSquaresSpec(30, 6, 3, 0.1, seed=9))
    data = tmp_path / "data.csv"
    lab.save_problem(problem, data)
    raw = {
        "problem": {"kind": "dataset", "path": str(data), "loss": "square"},
        "error_model": {
            "kind": "batch",
            "schedule": {"kind": "geometric", "initial": 0.5, "ratio": 0.8},
            "selection": "uniform",
        },
        "start": {"kind": "random_ball", "radius": 2.0},
        "iterations": 60,
        "seeds": [0, 1],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    first, second = tmp_path / "first", tmp_path / "second"
    code_a = main(["run", "--config", str(config), "--out", str(first)])
    code_b = main(["run", "--config", str(config), "--out", str(second)])
    names = ["trajectory_seed0.csv", "trajectory_seed1.csv"]
    identical = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    report(
        12,
        "identical config and seeds reproduce trajectory CSVs byte for byte",
        code_a == 0 and code_b == 0 and identical,
        f"{len(names)} files compared",
    )
