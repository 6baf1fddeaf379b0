"""Dense linear-algebra kernels with pinned tolerances.

Thin, contract-checked wrappers over LAPACK (through numpy): spectral norm
and numerical rank with a row-space basis under an explicit cutoff. All
routines are pure functions of float64 arrays, fully deterministic for a
fixed numpy build.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_CUTOFF * ||A||_2 * max(m, n) count as zero.
RANK_CUTOFF = 1e-10


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"expected a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    Computed by full SVD, so the result is deterministic and accurate to
    LAPACK precision (far inside the 1e-10 relative tolerance the callers
    rely on). It is not the first singular value of ``rank_factorization``:
    an SVD that also computes vectors gives sigma_1 up to a few ulps apart,
    and the step size 1/L of every run hangs on these bits.
    """
    return float(np.linalg.norm(_as_matrix(a), 2))


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
