"""Dense linear-algebra kernels with pinned tolerances.

Thin, contract-checked wrappers over LAPACK (through numpy): spectral norm,
minimum-norm solutions of consistent systems, and numerical rank with an
explicit cutoff. All routines are pure functions of float64 arrays, fully
deterministic for a fixed numpy build.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_CUTOFF * ||A||_2 * max(m, n) count as zero.
RANK_CUTOFF = 1e-10

# A system A u = t counts as consistent when the optimal residual stays
# below RESIDUAL_CUTOFF * (1 + ||t||).
RESIDUAL_CUTOFF = 1e-8


class InfeasibleSystemError(ValueError):
    """Linear system has no solution within the residual tolerance."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"inconsistent system: best residual {residual:.6e} exceeds "
            f"tolerance {tolerance:.6e}"
        )
        self.residual = residual
        self.tolerance = tolerance


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_vector(t, length: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] != length:
        raise ValueError(f"expected a vector of length {length}, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("vector entries must be finite")
    return t


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    Computed by full SVD, so the result is deterministic and accurate to
    LAPACK precision (far inside the 1e-10 relative tolerance the callers
    rely on).
    """
    return float(np.linalg.norm(_as_matrix(a), 2))


def min_norm_solve(a, t) -> np.ndarray:
    """Minimum-norm solution ``u`` of the consistent system ``a @ u = t``.

    Parameters
    ----------
    a : (m, n) array_like
    t : (m,) array_like

    Returns
    -------
    u : (n,) ndarray
        Least-squares solution of minimum Euclidean norm; its residual is
        at most ``RESIDUAL_CUTOFF * (1 + ||t||)``.

    Raises
    ------
    InfeasibleSystemError
        If no solution meets the residual tolerance. The error carries the
        best achievable residual.
    """
    a = _as_matrix(a)
    t = _as_vector(t, a.shape[0])
    u = np.linalg.lstsq(a, t, rcond=RANK_CUTOFF * max(a.shape))[0]
    residual = float(np.linalg.norm(a @ u - t))
    tolerance = RESIDUAL_CUTOFF * (1.0 + float(np.linalg.norm(t)))
    if residual > tolerance:
        raise InfeasibleSystemError(residual, tolerance)
    return u


def rank_factorization(a) -> tuple[int, np.ndarray]:
    """Numerical rank of ``a`` and an orthonormal basis of its row space.

    Returns ``(rank, basis)`` where ``basis`` has shape (n, rank) with
    orthonormal columns spanning the row space. Rank is the number of
    singular values above ``RANK_CUTOFF * ||a||_2 * max(m, n)``.
    """
    a = _as_matrix(a)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = RANK_CUTOFF * (s[0] if s.size else 0.0) * max(a.shape)
    rank = int(np.count_nonzero(s > cutoff))
    return rank, vt[:rank].T.copy()
