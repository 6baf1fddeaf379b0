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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    # one exp, of min(z, -z) = -|z|, so it cannot overflow; the numerator
    # max(e, z >= 0) is 1 where z >= 0 and e where z < 0, which gives the
    # masked forms 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) bit for bit.
    # A NaN passes through min and max with its sign, as it does there.
    # Float arrays of z's shape given as ``out`` (the result) and ``work``
    # (the numerator; it may be z itself) keep its passes from allocating;
    # without them each pass allocates, as the plain expression does.
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, np.negative(z, out=out), out=out), out=out)
    numerator = np.maximum(e, np.greater_equal(z, 0, out=work), out=work, dtype=float)
    return np.divide(numerator, np.add(1.0, e, out=out), out=out)


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

    @cached_property
    def _negated_labels(self) -> np.ndarray:
        return -self.labels

    def _margins(self, scores: np.ndarray) -> np.ndarray:
        """What both loss formulas are functions of, per sample: the
        residual ``scores - labels`` (square) or ``-labels * scores``
        (logistic), written over ``scores``."""
        if self.loss == SQUARE:
            return np.subtract(scores, self.labels, out=scores)
        return np.multiply(self._negated_labels, scores, out=scores)

    def _loss_slopes(self, margins: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-sample derivative of the loss with respect to its score,
        written to ``out`` if given; logistic slopes then use ``margins``
        as scratch and overwrite it."""
        if self.loss == SQUARE:
            return np.multiply(2.0, margins, out=out)
        work = None if out is None else margins
        return np.multiply(self._negated_labels, _sigmoid(margins, out, work), out=out)

    def _mean_loss(self, margins: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Mean loss along the last axis; the losses are written to ``out``,
        which may be ``margins`` itself."""
        # sum / M is how np.mean divides; np.add.reduce is the reduction
        # ndarray.sum calls, without its wrapper's cost
        if self.loss == SQUARE:
            losses = np.square(margins, out=out)
        else:
            losses = np.logaddexp(0.0, margins, out=out)
        return np.add.reduce(losses, axis=-1) / self.n_samples

    def evaluate(
        self, x, out: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(f, slopes, gradient)`` at a point (n,) or at each row of a
        stack (S, n), from one pass of the scores ``features @ x``;
        ``slopes[..., :, None] * features`` are the per-sample gradients.
        ``out`` is two float arrays of shape ``x.shape[:-1] + (M,)``, for
        the margins and the slopes, so that a caller evaluating many stacks
        allocates them once; the slopes returned are ``out[1]``, and the
        next call overwrites both. ``matmul`` with a unit middle axis hands
        each row to the BLAS product a lone point takes, so a row's results
        keep its bits."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 2 or x.shape[-1:] != (self.n_features,):
            raise ValueError(f"points must have shape ({self.n_features},) or (S, {self.n_features}), got {x.shape}")
        if out is None:
            out = (np.empty(x.shape[:-1] + (self.n_samples,)), np.empty(x.shape[:-1] + (self.n_samples,)))
        margins, slopes = out
        np.matmul(x[..., None, :], self.features.T, out=margins[..., None, :])
        self._margins(margins)
        # the losses pass through the slopes' buffer before the slopes do
        f = self._mean_loss(margins, slopes)
        self._loss_slopes(margins, slopes)
        gradient = (slopes[..., None, :] @ self.features)[..., 0, :] / self.n_samples
        return f, slopes, gradient

    def objective(self, x) -> float:
        margins = self._margins(self.features @ self._point(x))
        return float(self._mean_loss(margins, margins))

    def gradient(self, x) -> np.ndarray:
        """Gradient of the mean loss at ``x``."""
        slopes = self._loss_slopes(self._margins(self.features @ self._point(x)))
        return self.features.T @ slopes / self.n_samples

    def sample_gradients(self, x) -> np.ndarray:
        """All per-sample gradients, one per row; their mean is ``gradient(x)``."""
        slopes = self._loss_slopes(self._margins(self.features @ self._point(x)))
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
