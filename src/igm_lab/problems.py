"""Finite-sum objectives: a sample loss composed with a linear map.

A problem holds one sample per row of ``features``, a target per sample in
``labels``, and a loss tag. The objective is the mean per-sample loss of the
scores ``features @ x``:

* square loss:    (score - label)**2
* logistic loss:  log(1 + exp(-label * score)), labels in {-1, +1}

Instances are immutable; derived quantities (smoothness constants, sample
radius, digest) are computed once and cached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import spectral_norm

SQUARE = "square"
LOGISTIC = "logistic"
LOSSES = (SQUARE, LOGISTIC)


@dataclass(frozen=True)
class LipschitzConstants:
    """Gradient smoothness constants of a composed objective.

    ``outer`` bounds the outer loss-sum gradient, ``composed`` the full
    objective gradient; always ``composed == outer * operator_norm**2``.
    """

    outer: float
    composed: float
    operator_norm: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # branch on sign so neither exp can overflow
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True, eq=False)
class ComposedProblem:
    """A mean loss over samples, evaluated on linear scores.

    Parameters
    ----------
    features : (M, n) array_like
        One sample per row.
    labels : (M,) array_like
        Targets; for the logistic loss these must be +-1.
    loss : str
        ``"square"`` or ``"logistic"``.
    """

    features: np.ndarray
    labels: np.ndarray
    loss: str

    def __post_init__(self):
        features = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise ValueError(f"features must be a nonempty matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(labels))):
            raise ValueError("features and labels must be finite")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.loss == LOGISTIC and not np.all(np.abs(labels) == 1.0):
            raise ValueError("logistic labels must be +1 or -1")
        if not (np.any(features) or np.any(labels)):
            raise ValueError("all-zero problem has no usable sample radius")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(f"point must have shape ({self.n_features},), got {x.shape}")
        return x

    def _loss_slopes(self, scores: np.ndarray) -> np.ndarray:
        """Per-sample derivative of the loss with respect to its score."""
        if self.loss == SQUARE:
            return 2.0 * (scores - self.labels)
        u = self.labels * scores
        return -self.labels * _sigmoid(-u)

    def _mean_loss(self, scores: np.ndarray) -> float:
        if self.loss == SQUARE:
            return float(np.mean((scores - self.labels) ** 2))
        return float(np.mean(np.logaddexp(0.0, -self.labels * scores)))

    def evaluate(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """``(f(x), slopes, gradient(x))`` from one pass ``features @ x``;
        ``slopes[:, None] * features`` are the per-sample gradients."""
        scores = self.features @ self._point(x)
        slopes = self._loss_slopes(scores)
        return self._mean_loss(scores), slopes, self.features.T @ slopes / self.n_samples

    def objective(self, x) -> float:
        return self._mean_loss(self.features @ self._point(x))

    def gradient(self, x) -> np.ndarray:
        """Gradient of the mean loss at ``x``."""
        slopes = self._loss_slopes(self.features @ self._point(x))
        return self.features.T @ slopes / self.n_samples

    def sample_gradient(self, i: int, x) -> np.ndarray:
        """Gradient contributed by sample ``i`` alone (0-based index)."""
        if not 0 <= i < self.n_samples:
            raise IndexError(f"sample index {i} out of range [0, {self.n_samples})")
        return self.sample_gradients(x)[i]

    def sample_gradients(self, x) -> np.ndarray:
        """All per-sample gradients, one per row; their mean is ``gradient(x)``."""
        slopes = self._loss_slopes(self.features @ self._point(x))
        return slopes[:, None] * self.features

    @cached_property
    def constants(self) -> LipschitzConstants:
        operator_norm = spectral_norm(self.features)
        if self.loss == SQUARE:
            outer = 2.0 / self.n_samples
        else:
            outer = float(np.max(self.labels**2)) / (4.0 * self.n_samples)
        return LipschitzConstants(
            outer=outer,
            composed=outer * operator_norm**2,
            operator_norm=operator_norm,
        )

    @cached_property
    def sample_radius(self) -> float:
        """Largest of all row norms and absolute labels."""
        row_norms = np.linalg.norm(self.features, axis=1)
        return float(max(np.max(row_norms), np.max(np.abs(self.labels))))

    @cached_property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.loss.encode())
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()
