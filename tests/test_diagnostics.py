"""Unit tests for inequality censuses, (mu, delta) search, and rate fits."""

import dataclasses

import numpy as np
import pytest

from igm_lab import (
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    LeastSquaresSpec,
    OptimalSetCertificate,
    SyntheticError,
    Trajectory,
    ZeroError,
    aggregate_expectation,
    attach_distances,
    certify,
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
    generate_least_squares,
    iterate_rate_check,
    qualifying_length,
    run,
    verify_descent,
    verify_iter_bounds,
)


def crafted_trajectory(fs, err_norms=None, step_norms=None, dists=None):
    """Hand-built single-coordinate trajectory for feeding the censuses."""
    fs = np.asarray(fs, dtype=float)
    steps = fs.size - 1
    return Trajectory(
        xs=np.zeros((fs.size, 1)),
        fs=fs,
        grad_norms=np.ones(fs.size),
        errors=np.zeros((steps, 1)),
        err_norms=np.zeros(steps) if err_norms is None else np.asarray(err_norms, dtype=float),
        step_norms=np.ones(steps) if step_norms is None else np.asarray(step_norms, dtype=float),
        batch_sizes=None,
        seed=0,
        dists=None if dists is None else np.asarray(dists, dtype=float),
    )


MANUAL_CERT = OptimalSetCertificate(0.0, np.zeros(1), np.zeros(1), 0.0, "manual")


class TestQualifyingLength:
    def test_counts_leading_run_above_floor(self):
        assert qualifying_length(np.array([1.0, 1e-13, 1e-16, 1.0])) == 2
        assert qualifying_length(0.5 ** np.arange(10)) == 10

    def test_cuts_at_nonfinite_or_negative(self):
        assert qualifying_length(np.array([1.0, np.nan, 1.0])) == 1
        assert qualifying_length(np.array([1.0, -1.0, 1.0])) == 1
        assert qualifying_length(np.array([0.0])) == 0


class TestRateFits:
    def test_exact_geometric_sequence(self):
        fit = fit_linear_rate(0.5 ** np.arange(200))
        assert fit.rate == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_fit_is_scale_invariant(self):
        gaps = 0.5 ** np.arange(200)
        assert fit_linear_rate(7.0 * gaps).rate == pytest.approx(
            fit_linear_rate(gaps).rate, abs=1e-12
        )

    def test_window_stays_inside_qualifying_prefix(self):
        fit = fit_linear_rate(0.5 ** np.arange(200))
        # 0.5**k drops below the 1e-14 gap floor just past k = 46
        assert fit.stop == 47
        assert 10 <= fit.start < fit.stop

    def test_noisy_geometric_sequence(self):
        noise = 1e-15 * np.random.default_rng(0).uniform(size=150)
        fit = fit_linear_rate(3.0 * 0.8 ** np.arange(150) + noise)
        assert 0.79 <= fit.rate <= 0.81
        assert fit.r_squared > 0.999

    def test_exact_quadratic_decay(self):
        ks = np.arange(300, dtype=float)
        gaps = np.empty(300)
        gaps[0] = 1.0
        gaps[1:] = 1.0 / ks[1:] ** 2
        fit = fit_sublinear_exponent(gaps)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        # the same sequence read as geometric decay fits visibly worse
        assert fit_linear_rate(gaps).r_squared < fit.r_squared

    def test_exact_power_three_halves(self):
        gaps = np.empty(400)
        gaps[0] = 5.0
        gaps[1:] = 5.0 / np.arange(1, 400) ** 1.5
        fit = fit_sublinear_exponent(gaps)
        assert -1.55 <= fit.exponent <= -1.45

    def test_too_few_qualifying_gaps(self):
        with pytest.raises(ValueError):
            fit_linear_rate(np.array([1.0, 0.5, 0.25]))
        with pytest.raises(ValueError):
            fit_sublinear_exponent(np.ones(5))
        with pytest.raises(ValueError):
            fit_linear_rate(np.full(100, 1e-16))

    def test_tail_fraction_validation(self):
        with pytest.raises(ValueError):
            fit_linear_rate(0.5 ** np.arange(100), tail_fraction=0.0)
        with pytest.raises(ValueError):
            fit_linear_rate(0.5 ** np.arange(100), tail_fraction=1.5)


class TestCensuses:
    def test_descent_flags_an_injected_bump(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.5)), np.zeros(2), 10, seed=0)
        clean = verify_descent(traj, problem.constants)
        assert clean.violations == 0
        assert clean.checked == 10
        fs = traj.fs.copy()
        fs[3] += 1.0
        corrupted = dataclasses.replace(traj, fs=fs)
        entry = verify_descent(corrupted, problem.constants)
        # raising f(x_3) breaks the decrease over the step from x_2
        assert entry.violations == 1
        assert entry.worst_index == 2
        assert entry.worst_slack < 0

    def test_iter_bounds_flag_the_same_bump(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.5)), np.zeros(2), 10, seed=0)
        fs = traj.fs.copy()
        fs[3] += 1.0
        corrupted = dataclasses.replace(traj, fs=fs)
        entry_a, entry_b = verify_iter_bounds(corrupted, problem.constants, cert)
        assert entry_a.violations == 1 and entry_a.worst_index == 2
        assert entry_b.violations == 1 and entry_b.worst_index == 2

    def test_iter_bound_b_rejects_negative_gaps(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        fs = traj.fs.copy()
        fs[2] = cert.f_min - 1.0
        corrupted = dataclasses.replace(traj, fs=fs)
        _, entry_b = verify_iter_bounds(corrupted, problem.constants, cert)
        assert entry_b.violations >= 1

    def test_descent_is_checked_at_its_tolerance(self, ls_tiny):
        # the exact-gradient step on the tiny problem satisfies the descent
        # inequality with equality, so the margin at step 0 is the tolerance
        # itself, DESCENT_TOL * (1 + f_0) = 3.5e-9
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 3, seed=0)
        entries = []
        for nudge in (2e-9, 5e-9):
            fs = traj.fs.copy()
            fs[1] += nudge
            entries.append(verify_descent(dataclasses.replace(traj, fs=fs), problem.constants))
        assert entries[0].violations == 0
        assert entries[1].violations == 1 and entries[1].worst_index == 0


class TestMuDeltaSearch:
    def test_zero_error_tiny_run_gets_the_smallest_pair(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        assert find_mu_delta(traj, cert) == (0.5, 0.001)

    def test_growing_gaps_with_zero_errors_are_infeasible(self):
        fake = crafted_trajectory([1.0, 2.0, 4.0, 8.0, 16.0])
        assert find_mu_delta(fake, MANUAL_CERT) is None

    def test_found_pair_passes_envelope_check(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.8)), np.zeros(2), 60, seed=1)
        pair = find_mu_delta(traj, cert)
        assert pair is not None
        mu, delta = pair
        entry = envelope_check(traj, mu, delta, cert)
        assert entry.violations == 0

    def test_envelope_check_rejects_an_infeasible_pair(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.8)), np.zeros(2), 60, seed=1)
        entry = envelope_check(traj, 0.01, 1e-6, cert)
        assert entry.violations > 0
        assert entry.worst_slack < 0


class TestErrorBoundRatios:
    def test_tiny_ratios_are_constant(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.5)), np.zeros(2), 30, seed=0)
        attach_distances(cert, problem, traj)
        ratios = error_bound_ratios(traj)
        assert ratios.size > 0
        assert np.allclose(ratios, 0.2, atol=1e-10)
        assert estimate_tau(traj) == pytest.approx(0.2, abs=1e-10)

    def test_requires_attached_distances(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        with pytest.raises(ValueError):
            error_bound_ratios(traj)

    def test_estimate_tau_needs_active_gradients(self):
        fake = crafted_trajectory([1.0, 0.5, 0.25], dists=[1.0, 0.5, 0.25])
        quiet = dataclasses.replace(fake, grad_norms=np.full(3, 1e-12))
        with pytest.raises(ValueError):
            estimate_tau(quiet)

    def test_tau_is_stable_across_sampling_seeds(self):
        problem = generate_least_squares(LeastSquaresSpec(50, 20, 5, 0.1, seed=11))
        cert = certify(problem)
        schedule = GeometricResidualSchedule(0.5, 0.8)
        model = IncrementalBatchError(schedule, selection="uniform")
        taus = []
        for seed in range(10):
            traj = run(problem, model, np.zeros(20), 300, seed=seed)
            attach_distances(cert, problem, traj)
            taus.append(estimate_tau(traj))
        taus = np.array(taus)
        assert np.all(taus > 0)
        assert taus.max() / taus.min() <= 1.05


class TestIterateEnvelope:
    def test_convergent_run_stays_inside_the_spread_limit(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.8)), np.zeros(2), 80, seed=2)
        attach_distances(cert, problem, traj)
        pair = find_mu_delta(traj, cert)
        fit = iterate_rate_check(traj, cert, pair[0])
        assert fit.census.violations == 0
        assert fit.lambda1 > 0 and fit.lambda2 > 0

    def test_non_convergent_tail_blows_the_spread(self):
        # steps that never shrink while the envelope decays geometrically
        ks = np.arange(201, dtype=float)
        fake = crafted_trajectory(1.0 / (ks + 1.0), step_norms=np.ones(200), dists=np.ones(201))
        fit = iterate_rate_check(fake, MANUAL_CERT, 0.5)
        assert fit.census.violations == 2
        assert fit.census.worst_slack < 0

    @pytest.mark.parametrize("step_spike, dist_spike, expected", [(1e5, 1e4, 57), (1e4, 1e5, 120)])
    def test_worst_index_is_the_spike_in_the_wider_sequence(self, step_spike, dist_spike, expected):
        # with no error the envelope is ((1 + mu) / 2)**(k/2), so norms on
        # that curve give ratios of 1 everywhere except at the two spikes
        ks = np.arange(201, dtype=float)
        curve = np.sqrt(0.75) ** ks
        step_norms, dists = curve[:-1].copy(), curve.copy()
        step_norms[57] *= step_spike
        dists[120] *= dist_spike
        fake = crafted_trajectory(1.0 / (ks + 1.0), step_norms=step_norms, dists=dists)
        census = iterate_rate_check(fake, MANUAL_CERT, 0.5).census
        assert census.violations == 2
        assert census.worst_index == expected

    def test_requires_attached_distances(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        with pytest.raises(ValueError):
            iterate_rate_check(traj, cert, 0.5)


class TestBatchBounds:
    def test_ls_bound_holds_on_a_prefix_run(self):
        problem = generate_least_squares(LeastSquaresSpec(40, 6, 4, 0.1, seed=3))
        schedule = GeometricResidualSchedule(0.5, 0.8)
        traj = run(problem, IncrementalBatchError(schedule), np.zeros(6), 60, seed=0)
        entry = check_ls_error_bound(traj, problem)
        assert entry.violations == 0
        assert entry.checked > 0

    def test_ls_bound_checks_only_large_batches(self):
        problem = generate_least_squares(LeastSquaresSpec(40, 6, 4, 0.1, seed=3))
        schedule = GeometricResidualSchedule(0.9, 0.9)
        traj = run(problem, IncrementalBatchError(schedule), np.zeros(6), 30, seed=0)
        entry = check_ls_error_bound(traj, problem)
        small = np.sum(2 * traj.batch_sizes < 40)
        assert entry.checked == 30 - small
        assert small > 0

    def test_loss_kind_is_enforced(self, log_tiny, ls_tiny):
        log_problem, _ = log_tiny
        ls_problem, _ = ls_tiny
        traj = run(ls_problem, ZeroError(), np.zeros(2), 3, seed=0)
        with pytest.raises(ValueError):
            check_ls_error_bound(traj, log_problem)
        with pytest.raises(ValueError):
            check_logistic_error_bound(traj, ls_problem)

    def test_unbatched_runs_yield_an_empty_census(self, ls_tiny):
        problem, _ = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 3, seed=0)
        entry = check_ls_error_bound(traj, problem)
        assert entry.checked == 0 and entry.violations == 0

    def test_expected_bound_requires_matching_schedules(self):
        problem = generate_least_squares(LeastSquaresSpec(30, 5, 3, 0.1, seed=4))
        cert = certify(problem)
        uniform = lambda ratio: IncrementalBatchError(
            GeometricResidualSchedule(0.5, ratio), selection="uniform"
        )
        a = run(problem, uniform(0.8), np.zeros(5), 20, seed=0)
        b = run(problem, uniform(0.8), np.zeros(5), 20, seed=1)
        mismatched = run(problem, uniform(0.6), np.zeros(5), 20, seed=2)
        entry = check_ls_expected_bound([a, b], problem, cert)
        assert entry.checked == 20
        with pytest.raises(ValueError):
            check_ls_expected_bound([a], problem, cert)
        with pytest.raises(ValueError):
            check_ls_expected_bound([a, mismatched], problem, cert)


class TestAggregate:
    def test_identical_runs_average_to_themselves(self, ls_tiny):
        problem, cert = ls_tiny
        model = SyntheticError(GeometricNorms(1.0, 0.8))
        trajs = [run(problem, model, np.zeros(2), 40, seed=7) for _ in range(3)]
        for traj in trajs:
            attach_distances(cert, problem, traj)
        report = aggregate_expectation(trajs, cert)
        assert np.allclose(report.mean_gap, trajs[0].gaps(cert.f_min), atol=1e-15)

    def test_needs_at_least_two_runs(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        with pytest.raises(ValueError):
            aggregate_expectation([traj], cert)

    def test_needs_equal_lengths(self, ls_tiny):
        problem, cert = ls_tiny
        a = run(problem, ZeroError(), np.zeros(2), 5, seed=0)
        b = run(problem, ZeroError(), np.zeros(2), 6, seed=0)
        with pytest.raises(ValueError):
            aggregate_expectation([a, b], cert)


class TestDiagnose:
    def test_report_on_a_clean_run(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.8)), np.zeros(2), 80, seed=0)
        attach_distances(cert, problem, traj)
        report = diagnose(problem, cert, traj)
        assert report.total_violations == 0
        assert report.passed
        assert report.mu is not None and report.delta is not None
        assert report.tau_hat == pytest.approx(0.2, abs=1e-10)
        expected = {"descent", "iter_bound_a", "iter_bound_b", "mu_delta_envelope", "iterate_envelope"}
        assert expected <= set(report.census)

    def test_batch_run_report_includes_the_loss_bound(self):
        problem = generate_least_squares(LeastSquaresSpec(40, 6, 4, 0.1, seed=3))
        cert = certify(problem)
        schedule = GeometricResidualSchedule(0.5, 0.8)
        traj = run(problem, IncrementalBatchError(schedule), np.zeros(6), 60, seed=0)
        attach_distances(cert, problem, traj)
        report = diagnose(problem, cert, traj)
        assert "ls_error_bound" in report.census
        assert report.passed

    def test_corrupted_run_fails_the_report(self, ls_tiny):
        problem, cert = ls_tiny
        traj = run(problem, SyntheticError(GeometricNorms(1.0, 0.8)), np.zeros(2), 80, seed=0)
        attach_distances(cert, problem, traj)
        fs = traj.fs.copy()
        fs[10] += 1.0
        corrupted = dataclasses.replace(traj, fs=fs)
        report = diagnose(problem, cert, corrupted)
        assert report.total_violations > 0
        assert not report.passed
