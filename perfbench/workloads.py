"""Benchmark workloads: inputs made from a seed, and independent output checks.

Every workload is one igm-lab CLI invocation.  Its inputs depend only on
the workload seed; the checks below recompute what they need from the
input data with plain numpy and never call into the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

# the certificate's own acceptance bound: ||grad f(x*)|| <= 1e-11 * (1 + L)
CERT_GRAD_BOUND = 1e-11
# f_min of a square-loss certificate against a numpy lstsq reference
SQUARE_FMIN_RTOL = 1e-9
# f_min of a logistic certificate against its value recomputed at x*
LOGISTIC_FMIN_RTOL = 1e-12

SEED_LINE = re.compile(r"^seed (-?\d+): violations=(\d+) mu=(\S+)", re.M)
CERT_ITERATIONS = re.compile(r"iterations=(\d+)")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "certify"
    samples: int
    features: int
    loss: str
    iterations: int  # per seed; 0 for certify
    n_seeds: int  # 0 for certify

    @property
    def steps(self) -> int:
        return self.iterations * self.n_seeds

    @property
    def exit_codes(self) -> tuple[int, ...]:
        # 2 is a verification failure the run reports, not a crash
        return (0, 2) if self.command == "run" else (0,)


# why each workload exists is written in BENCHMARK.json and README.md
LS_SYNTHETIC = Workload("ls_synthetic", "run", 50, 20, "square", 500, 40)
LOGISTIC_UNIFORM = Workload("logistic_uniform", "run", 200, 10, "logistic", 2500, 2)
LS_BATCH_SEEDS = Workload("ls_batch_seeds", "run", 20000, 5, "square", 34, 15)
CERTIFY_TALL = Workload("certify_tall", "certify", 4000, 50, "logistic", 0, 0)
WORKLOADS = {w.name: w for w in (LS_SYNTHETIC, LOGISTIC_UNIFORM, LS_BATCH_SEEDS, CERTIFY_TALL)}

# Known defects, recorded as they stand (see README.md):
# * ls_synthetic: at seed 0 (run seeds 0..39) the iterate-envelope census
#   fails on 18 seeds; the run exits 2 while every verdict_seed*.json lists
#   zero violations.
# * certify_tall: rank_factorization calls a full-matrices SVD, so the M x M
#   left factor makes peak memory grow as O(M^2).


def problem_spec(workload: Workload, seed: int) -> dict:
    """The generator spec the workload's config names, from the workload seed."""
    if workload is LS_SYNTHETIC:
        # the README problem itself; the seed picks the window of run seeds
        return {"kind": "least_squares", "samples": 50, "features": 20, "rank": 5, "noise": 0.1, "seed": 11}
    if workload is LOGISTIC_UNIFORM:
        return {"kind": "logistic", "samples": 200, "features": 10, "flip_fraction": 0.1, "seed": seed}
    if workload is LS_BATCH_SEEDS:
        return {
            "kind": "least_squares", "samples": 20000, "features": 5, "rank": 3, "noise": 0.1,
            "seed": seed, "singular_range": [0.7, 1.0],
        }
    raise ValueError(f"{workload.name} has no generator spec")


def run_seeds(workload: Workload, seed: int) -> list[int]:
    first = seed * workload.n_seeds if workload is LS_SYNTHETIC else 0
    return list(range(first, first + workload.n_seeds))


def config(workload: Workload, seed: int) -> dict:
    if workload is LS_SYNTHETIC:
        error_model = {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.9}}
    elif workload is LOGISTIC_UNIFORM:
        error_model = {
            "kind": "batch", "schedule": {"kind": "geometric", "initial": 0.5, "ratio": 0.999},
            "selection": "uniform",
        }
    else:
        error_model = {
            "kind": "batch", "schedule": {"kind": "geometric", "initial": 0.9, "ratio": 0.8},
            "selection": "uniform",
        }
    return {
        "problem": problem_spec(workload, seed),
        "error_model": error_model,
        "start": {"kind": "zeros"},
        "iterations": workload.iterations,
        "seeds": run_seeds(workload, seed),
    }


def write_tall_logistic(path: Path, seed: int, samples: int, features: int, flip: float = 0.05) -> None:
    """A non-separable logistic dataset: planted hyperplane, flipped labels,
    and duplicated rows with opposite labels so a minimizer exists."""
    rng = np.random.default_rng([7919, seed])
    features_ = rng.standard_normal((samples, features))
    labels = np.where(features_ @ rng.standard_normal(features) >= 0, 1.0, -1.0)
    flipped = rng.choice(samples, size=round(flip * samples), replace=False)
    labels[flipped] = -labels[flipped]
    pairs = ceil(0.02 * samples)
    order = rng.permutation(samples)
    src, dst = order[:pairs], order[pairs : 2 * pairs]
    features_[dst] = features_[src]
    labels[dst] = -labels[src]
    header = ",".join([f"f{j + 1}" for j in range(features)] + ["label"])
    np.savetxt(path, np.column_stack([features_, labels]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def load_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :-1], data[:, -1]


@dataclass(frozen=True)
class Reference:
    """What a correct certificate must satisfy, from plain numpy."""

    features: np.ndarray
    labels: np.ndarray
    loss: str
    f_min: float | None  # square loss only
    lipschitz: float

    @classmethod
    def build(cls, features: np.ndarray, labels: np.ndarray, loss: str) -> "Reference":
        m = features.shape[0]
        norm2 = float(np.linalg.norm(features, 2)) ** 2
        if loss == "square":
            x = np.linalg.lstsq(features, labels, rcond=None)[0]
            return cls(features, labels, loss, float(np.mean((features @ x - labels) ** 2)), 2.0 * norm2 / m)
        return cls(features, labels, loss, None, norm2 / (4.0 * m))

    def check(self, cert: dict) -> list[str]:
        x = np.asarray(cert["minimizer"], dtype=float)
        f_min = float(cert["f_min"])
        scores = self.features @ x
        if self.loss == "square":
            if abs(f_min - self.f_min) > SQUARE_FMIN_RTOL * (1.0 + abs(self.f_min)):
                return [f"f_min {f_min!r} differs from lstsq reference {self.f_min!r}"]
            return []
        u = self.labels * scores
        slopes = -self.labels * np.exp(-np.logaddexp(0.0, u))  # -y * sigmoid(-u)
        grad_norm = float(np.linalg.norm(self.features.T @ slopes / self.features.shape[0]))
        errors = []
        bound = CERT_GRAD_BOUND * (1.0 + self.lipschitz)
        if grad_norm > bound:
            errors.append(f"gradient norm {grad_norm:.3e} at the certified minimizer exceeds {bound:.3e}")
        f_here = float(np.mean(np.logaddexp(0.0, -u)))
        if abs(f_min - f_here) > LOGISTIC_FMIN_RTOL * (1.0 + abs(f_here)):
            errors.append(f"f_min {f_min!r} differs from f at the minimizer {f_here!r}")
        return errors


@dataclass
class Outcome:
    """Checks of one CLI invocation's artifacts."""

    errors: list[str]
    digests: dict[str, str]
    artifact_bytes: int
    certify_iterations: int | None
    seeds_failed: int
    seeds_unexplained: int  # failed per stdout, yet the verdict file shows no violation


def _digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _read_json(path: Path, errors: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: {exc}")
        return None


def _check_trajectory(path: Path, iterations: int, errors: list[str]) -> None:
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        errors.append(f"{path.name}: {exc}")
        return
    if not rows or rows[0][:1] != ["k"]:
        errors.append(f"{path.name}: missing header")
        return
    body = rows[1:]
    if len(body) != iterations + 1:
        errors.append(f"{path.name}: {len(body)} rows, expected {iterations + 1}")
    elif any(row[0] != str(k) for k, row in enumerate(body)):
        errors.append(f"{path.name}: iteration column out of order")


def check_outputs(workload: Workload, seeds: list[int], out: Path, stdout: str, ref: Reference) -> Outcome:
    """Parse and check every artifact the invocation should have written to ``out``
    (the certificate path itself for certify)."""
    errors: list[str] = []
    cert_path = out / "certificate.json" if workload.command == "run" else out
    folder = cert_path.parent
    cert = _read_json(cert_path, errors)
    iterations = None
    if cert is not None:
        try:
            errors += ref.check(cert)
            match = CERT_ITERATIONS.search(str(cert["method"]))
            iterations = int(match.group(1)) if match else 0
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"certificate: malformed ({exc!r})")
    failed = unexplained = 0
    if workload.command == "run":
        failed, unexplained = _check_run(workload, seeds, out, stdout, errors)
    digests = _digests(folder)
    size = sum(p.stat().st_size for p in folder.iterdir() if p.is_file())
    return Outcome(errors, digests, size, iterations, failed, unexplained)


def _check_run(workload: Workload, seeds: list[int], out: Path, stdout: str, errors: list[str]) -> tuple[int, int]:
    """Check a run's per-seed artifacts; count seeds that did not pass, and
    those among them whose verdict file shows no violation."""
    stdout_verdicts = {int(s): (int(v), mu) for s, v, mu in SEED_LINE.findall(stdout)}
    failed = unexplained = 0
    for seed in seeds:
        _check_trajectory(out / f"trajectory_seed{seed}.csv", workload.iterations, errors)
        verdict = _read_json(out / f"verdict_seed{seed}.json", errors)
        file_fail = None
        if isinstance(verdict, dict) and isinstance(verdict.get("violations"), dict):
            counts = [v for v in verdict["violations"].values() if v is not None]
            file_fail = sum(counts) > 0 or verdict.get("mu") is None
        elif verdict is not None:
            errors.append(f"verdict_seed{seed}.json: no violations object")
        if seed in stdout_verdicts:
            violations, mu = stdout_verdicts[seed]
            seed_fail = violations > 0 or mu == "-"
        else:
            seed_fail = bool(file_fail)
        failed += seed_fail
        unexplained += seed_fail and file_fail is False
    if len(seeds) >= 2:
        _read_json(out / "aggregate.json", errors)
    return failed, unexplained
