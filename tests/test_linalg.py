"""Unit tests for the dense linear-algebra kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igm_lab import SQUARE, ComposedProblem, certify, rank_factorization, spectral_norm


def test_spectral_norm_of_identity_is_one():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_of_diagonal_is_largest_entry():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-14)


def test_spectral_norm_of_rank_one_matrix():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert spectral_norm(a) == pytest.approx(np.sqrt(5.0), rel=1e-14)


def test_spectral_norm_attained_by_top_singular_vector():
    a = np.random.default_rng(3).standard_normal((5, 4))
    _, s, vt = np.linalg.svd(a)
    assert np.linalg.norm(a @ vt[0]) == pytest.approx(s[0], rel=1e-12)
    assert spectral_norm(a) == pytest.approx(s[0], rel=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_spectral_norm_bounds_every_image(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    bound = spectral_norm(a) * np.linalg.norm(x)
    assert np.linalg.norm(a @ x) <= bound * (1.0 + 1e-12) + 1e-12


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        spectral_norm(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _min_norm_solve(a, t):
    # the minimum-norm solution of a consistent system, as square certify
    # computes it under the RANK_CUTOFF rule
    return certify(ComposedProblem(np.asarray(a), np.asarray(t), SQUARE)).minimizer


def test_min_norm_solve_identity():
    u = _min_norm_solve(np.eye(2), np.array([4.0, 5.0]))
    assert np.allclose(u, [4.0, 5.0], atol=1e-14)


def test_min_norm_solve_rank_deficient_consistent():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    u = _min_norm_solve(a, np.array([1.0, 2.0]))
    assert np.allclose(u, [1.0, 0.0], atol=1e-12)


def test_min_norm_solve_underdetermined():
    u = _min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(u, [1.0, 1.0], atol=1e-12)


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_min_norm_solution_is_orthogonal_to_null_space(seed, rank, n):
    # build a consistent system with a known null space, then check the
    # minimizer that square certify solves for under the RANK_CUTOFF rule
    # carries no null-space component (the minimality characterization of
    # the min-norm solution)
    rank = min(rank, n - 1)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rank + 1, rank)) @ rng.standard_normal((rank, n))
    t = a @ rng.standard_normal(n)
    u = certify(ComposedProblem(a, t, SQUARE)).minimizer
    _, s, vt = np.linalg.svd(a)
    null_basis = vt[rank:]
    assert np.allclose(null_basis @ u, 0.0, atol=1e-8)
    for z in null_basis:
        assert np.linalg.norm(u) <= np.linalg.norm(u + z) + 1e-12


def test_rank_factorization_full_rank():
    rank, basis = rank_factorization(np.eye(3))
    assert rank == 3
    assert basis.shape == (3, 3)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)


def test_rank_factorization_rank_one():
    rank, basis = rank_factorization(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert rank == 1
    assert basis.shape == (2, 1)
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0], atol=1e-12)


def test_rank_factorization_zero_matrix():
    rank, basis = rank_factorization(np.zeros((2, 3)))
    assert rank == 0
    assert basis.shape == (3, 0)


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_rank_of_gram_matrix_matches(seed, m, n, inner):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, inner)) @ rng.standard_normal((inner, n))
    rank, _ = rank_factorization(a)
    gram_rank, _ = rank_factorization(a.T @ a)
    assert gram_rank == rank
    assert rank <= min(m, n, inner)


def test_rank_factorization_memory_stays_linear_in_rows():
    # a full-matrices SVD would build a 3000 x 3000 left factor (72 MB)
    a = np.random.default_rng(5).standard_normal((3000, 3))
    tracemalloc.start()
    try:
        rank, basis = rank_factorization(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 3 and basis.shape == (3, 3)
    assert peak < 8 * 2**20
