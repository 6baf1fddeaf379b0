"""Synthetic problem generators and flat-file dataset I/O.

Two families cover the regimes the solver targets: rank-deficient least
squares (flat directions, so no strong convexity) and non-separable
logistic regression (bounded sublevel sets). Both are deterministic per
seed. Datasets round-trip through CSV with columns f1..fn,label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from .problems import LOGISTIC, ComposedProblem

RADIUS_CAP = 10.0
DUPLICATE_FRACTION = 0.02
SINGULAR_RANGE = (0.1, 1.0)


@dataclass(frozen=True)
class LeastSquaresSpec:
    """Recipe for a least-squares instance with a planted solution.

    The feature matrix gets exactly ``rank`` nonzero singular values,
    log-spaced across ``singular_range`` (descending, so the largest is
    the range's upper end). Labels are the planted scores plus gaussian
    noise; with ``noise=0`` the minimum value of the objective is zero.
    """

    samples: int
    features: int
    rank: int
    noise: float
    seed: int
    singular_range: tuple[float, float] = SINGULAR_RANGE

    def __post_init__(self) -> None:
        if self.samples < 1 or self.features < 1:
            raise ValueError("samples and features must be positive")
        if not 1 <= self.rank <= min(self.samples, self.features):
            raise ValueError(f"rank must lie in [1, {min(self.samples, self.features)}]")
        if not np.isfinite(self.noise) or self.noise < 0:
            raise ValueError("noise must be finite and nonnegative")
        lo, hi = self.singular_range
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise ValueError("singular_range must satisfy 0 < lo <= hi")


@dataclass(frozen=True)
class LogisticSpec:
    """Recipe for a binary classification instance that is never separable.

    Labels come from a planted hyperplane with ``flip_fraction`` of them
    inverted at random; on top of that a small set of duplicated-feature,
    opposite-label pairs is injected, so no separator can exist and the
    logistic objective attains its minimum.
    """

    samples: int
    features: int
    flip_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 2 or self.samples % 2:
            raise ValueError("samples must be even and at least 2")
        if self.features < 1:
            raise ValueError("features must be positive")
        if not 0.0 < self.flip_fraction <= 0.5:
            raise ValueError("flip_fraction must lie in (0, 0.5]")


def generate_least_squares(spec: LeastSquaresSpec) -> ComposedProblem:
    """Build the square-loss problem described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    m, n, r = spec.samples, spec.features, spec.rank
    left, _ = np.linalg.qr(rng.standard_normal((m, r)))
    right, _ = np.linalg.qr(rng.standard_normal((n, r)))
    lo, hi = spec.singular_range
    singulars = np.geomspace(hi, lo, r)
    features = (left * singulars) @ right.T
    planted = rng.standard_normal(n)
    labels = features @ planted + spec.noise * rng.standard_normal(m)
    radius = max(np.linalg.norm(features, axis=1).max(), np.abs(labels).max())
    if radius > RADIUS_CAP:
        scale = RADIUS_CAP / radius
        features = features * scale
        labels = labels * scale
    return ComposedProblem(features, labels, "square")


def generate_logistic(spec: LogisticSpec) -> ComposedProblem:
    """Build the logistic problem described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    m, n = spec.samples, spec.features
    features = rng.standard_normal((m, n))
    plane = rng.standard_normal(n)
    labels = np.sign(features @ plane)
    labels[labels == 0] = 1.0
    flips = round(spec.flip_fraction * m)
    if flips:
        flipped = rng.choice(m, size=flips, replace=False)
        labels[flipped] = -labels[flipped]
    # one permutation yields disjoint source/destination index blocks
    pairs = ceil(DUPLICATE_FRACTION * m)
    order = rng.permutation(m)
    src, dst = order[:pairs], order[pairs : 2 * pairs]
    features[dst] = features[src]
    labels[dst] = -labels[src]
    return ComposedProblem(features, labels, LOGISTIC)


def save_problem(problem: ComposedProblem, path: str | Path) -> None:
    """Write a dataset as CSV with header f1..fn,label."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(problem.n_features)] + ["label"])
        for row, label in zip(problem.features, problem.labels):
            writer.writerow([float(v) for v in row] + [float(label)])


def load_problem(path: str | Path, loss: str) -> ComposedProblem:
    """Read a dataset written by save_problem and attach a loss.

    Every nonblank line must hold as many fields as the header. The lines
    stream from the file into ``np.loadtxt``, which parses each number to
    the nearest double, as ``float`` does."""
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().rstrip("\n").split(",")
        if len(header) < 2 or header[-1] != "label":
            raise ValueError(f"{path}: expected a header ending in 'label'")
        data = np.loadtxt(_data_lines(path, handle, len(header)), delimiter=",", comments=None, ndmin=2)
    return ComposedProblem(data[:, :-1], data[:, -1], loss)


def _data_lines(path: Path, lines, width: int):
    """The nonblank lines after the header, each checked to hold ``width``
    fields; raises if there are none."""
    rows = 0
    for lineno, line in enumerate(lines, start=2):
        if line == "\n":
            continue
        fields = line.count(",") + 1
        if fields != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {fields}")
        rows += 1
        yield line
    if not rows:
        raise ValueError(f"{path}: no data rows")
