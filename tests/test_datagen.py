"""Unit tests for synthetic problem generation and CSV round trips."""

import numpy as np
import pytest

from igm_lab import (
    LOGISTIC,
    SQUARE,
    LeastSquaresSpec,
    LogisticSpec,
    certify,
    generate_least_squares,
    generate_logistic,
    load_problem,
    rank_factorization,
    save_problem,
)


class TestLeastSquaresGeneration:
    def test_requested_rank_is_realized(self):
        problem = generate_least_squares(LeastSquaresSpec(50, 20, 5, 0.1, seed=11))
        assert problem.n_samples == 50
        assert problem.n_features == 20
        assert rank_factorization(problem.features)[0] == 5

    def test_full_rank_square_case(self):
        problem = generate_least_squares(LeastSquaresSpec(40, 8, 8, 0.05, seed=12))
        assert rank_factorization(problem.features)[0] == 8

    def test_singular_values_span_the_requested_range(self):
        problem = generate_least_squares(LeastSquaresSpec(30, 10, 4, 0.0, seed=2))
        singulars = np.linalg.svd(problem.features, compute_uv=False)[:4]
        assert singulars[0] == pytest.approx(1.0, rel=1e-10)
        assert singulars[3] == pytest.approx(0.1, rel=1e-10)

    def test_noiseless_instance_is_exactly_solvable(self):
        problem = generate_least_squares(LeastSquaresSpec(30, 6, 4, 0.0, seed=1))
        assert certify(problem).f_min <= 1e-20

    def test_sample_radius_is_capped(self):
        problem = generate_least_squares(LeastSquaresSpec(30, 4, 4, 100.0, seed=9))
        # noise this large forces labels far outside the cap before rescale
        assert problem.sample_radius == pytest.approx(10.0, rel=1e-12)

    def test_same_seed_reproduces(self):
        spec = LeastSquaresSpec(20, 6, 3, 0.1, seed=5)
        a = generate_least_squares(spec)
        b = generate_least_squares(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            LeastSquaresSpec(10, 5, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            LeastSquaresSpec(10, 5, 6, 0.1, seed=0)
        with pytest.raises(ValueError):
            LeastSquaresSpec(10, 5, 3, -0.1, seed=0)
        with pytest.raises(ValueError):
            LeastSquaresSpec(10, 5, 3, 0.1, seed=0, singular_range=(1.0, 0.1))
        with pytest.raises(ValueError):
            LeastSquaresSpec(10, 5, 3, 0.1, seed=0, singular_range=(0.0, 1.0))


class TestLogisticGeneration:
    def test_labels_are_signs(self):
        problem = generate_logistic(LogisticSpec(80, 4, 0.15, seed=13))
        assert problem.n_samples == 80
        assert set(np.unique(problem.labels)) == {-1.0, 1.0}

    def test_duplicate_features_with_opposite_labels_exist(self):
        # the generator plants contradictory duplicates so no separating
        # hyperplane exists and the optimal set is nonempty
        problem = generate_logistic(LogisticSpec(100, 5, 0.1, seed=7))
        features, labels = problem.features, problem.labels
        pairs = 0
        for i in range(problem.n_samples):
            for j in range(i + 1, problem.n_samples):
                if np.array_equal(features[i], features[j]) and labels[i] == -labels[j]:
                    pairs += 1
        assert pairs >= 1

    def test_half_flipped_labels_leave_no_signal(self):
        problem = generate_logistic(LogisticSpec(100, 4, 0.5, seed=2))
        cert = certify(problem)
        assert abs(cert.f_min - np.log(2.0)) <= 0.1

    def test_certifiable_at_moderate_flip_rates(self):
        problem = generate_logistic(LogisticSpec(100, 5, 0.1, seed=7))
        cert = certify(problem)
        assert cert.method.startswith("newton(")
        assert 0.0 < cert.f_min < np.log(2.0)

    def test_same_seed_reproduces(self):
        spec = LogisticSpec(40, 3, 0.2, seed=8)
        a = generate_logistic(spec)
        b = generate_logistic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticSpec(41, 4, 0.1, seed=0)
        with pytest.raises(ValueError):
            LogisticSpec(40, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            LogisticSpec(40, 4, 0.6, seed=0)


class TestCsvRoundTrip:
    def test_square_problem_round_trips_exactly(self, tmp_path):
        problem = generate_least_squares(LeastSquaresSpec(20, 6, 3, 0.1, seed=5))
        path = tmp_path / "square.csv"
        save_problem(problem, path)
        loaded = load_problem(path, SQUARE)
        assert np.array_equal(loaded.features, problem.features)
        assert np.array_equal(loaded.labels, problem.labels)
        assert loaded.digest == problem.digest

    def test_logistic_problem_round_trips_exactly(self, tmp_path):
        problem = generate_logistic(LogisticSpec(30, 4, 0.2, seed=6))
        path = tmp_path / "logistic.csv"
        save_problem(problem, path)
        loaded = load_problem(path, LOGISTIC)
        assert np.array_equal(loaded.features, problem.features)
        assert np.array_equal(loaded.labels, problem.labels)

    def test_header_names_columns(self, tmp_path):
        problem = generate_least_squares(LeastSquaresSpec(5, 3, 2, 0.1, seed=5))
        path = tmp_path / "named.csv"
        save_problem(problem, path)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,f3,label"

    def test_load_rejects_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_problem(path, SQUARE)

    def test_load_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,label\n1.0,2.0\n1.0\n")
        with pytest.raises(ValueError, match=r"ragged\.csv:3: expected 2 fields, got 1$"):
            load_problem(path, SQUARE)
        # blank lines are skipped but still counted in the line number
        path.write_text("f1,label\n\n1.0,2.0\n\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match=r"ragged\.csv:5: expected 2 fields, got 3$"):
            load_problem(path, SQUARE)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("f1,f2,label\n\n1.0,2.0,3.0\n\n\n-4.5,5e-300,6.0\n")
        loaded = load_problem(path, SQUARE)
        assert loaded.features.tolist() == [[1.0, 2.0], [-4.5, 5e-300]]
        assert loaded.labels.tolist() == [3.0, 6.0]

    def test_load_rejects_a_file_without_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f1,label\n\n\n")
        with pytest.raises(ValueError, match=r"empty\.csv: no data rows$"):
            load_problem(path, SQUARE)

    def test_load_rejects_non_numeric_cells(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("f1,label\noops,2.0\n")
        with pytest.raises(ValueError):
            load_problem(path, SQUARE)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "absent.csv", SQUARE)
