"""Experiment configuration: JSON schema parsing and object building.

A config document describes one experiment: the problem (generator recipe
or dataset file), the gradient-error model, the starting point, iteration
and seed counts, and whether verification is on. Parsing checks every key
(unknown keys, missing fields, wrong types and non-finite numbers fail fast
with a path to the offending entry) and builds the error model, whose
objects enforce their own numeric ranges; the checks that need the problem
wait for ``engine.check_fits``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .datagen import (
    LeastSquaresSpec,
    LogisticSpec,
    generate_least_squares,
    generate_logistic,
    load_problem,
)
from .engine import (
    ErrorModel,
    ExplicitSchedule,
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    PolynomialNorms,
    PolynomialResidualSchedule,
    SyntheticError,
    ZeroError,
)
from .problems import LOGISTIC, LOSSES, SQUARE, ComposedProblem

# tag mixed into the generator seed so start-point draws are decoupled
# from the error draws made inside the run loop
START_SEED_TAG = 101

DEFAULT_TAIL_FRACTION = 0.5

# default horizons sized so desk-scale runs finish in seconds; logistic
# problems converge more slowly and get the longer default
DEFAULT_ITERATIONS = {SQUARE: 500, LOGISTIC: 5000}


def _mapping(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object")
    return value


def _known_keys(raw: dict[str, Any], where: str, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")


def _finite(value: float, where: str) -> float:
    """``value`` as a float, unless it is NaN, infinite or an integer beyond the float range."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number")
    return value


def _number(raw: dict[str, Any], where: str, key: str, default: float | None = None) -> float:
    if key not in raw:
        if default is None:
            raise ValueError(f"{where}.{key}: required")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}.{key}: expected a number")
    return _finite(value, f"{where}.{key}")


def _integer(raw: dict[str, Any], where: str, key: str) -> int:
    if key not in raw:
        raise ValueError(f"{where}.{key}: required")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}.{key}: expected an integer")
    return value


def _string(raw: dict[str, Any], where: str, key: str, choices: tuple[str, ...] | None = None) -> str:
    value = raw.get(key)
    if not isinstance(value, str):
        raise ValueError(f"{where}.{key}: required string")
    if choices is not None and value not in choices:
        raise ValueError(f"{where}.{key}: expected one of {choices}")
    return value


@dataclass(frozen=True)
class DatasetSpec:
    """A problem read from a CSV file rather than generated."""

    path: str
    loss: str


@dataclass(frozen=True)
class StartSpec:
    """Starting point: the origin, or a seeded draw from a centered ball."""

    kind: str
    radius: float = 1.0

    def build(self, dimension: int, seed: int) -> np.ndarray:
        if self.kind == "zeros":
            return np.zeros(dimension)
        rng = np.random.default_rng([START_SEED_TAG, seed])
        point = rng.standard_normal(dimension)
        scale = np.linalg.norm(point)
        if scale == 0.0:
            return np.zeros(dimension)
        return point * (self.radius * rng.uniform() ** (1.0 / dimension) / scale)


def parse_problem(raw: Any) -> LeastSquaresSpec | LogisticSpec | DatasetSpec:
    raw = _mapping(raw, "problem")
    kind = _string(raw, "problem", "kind", ("least_squares", "logistic", "dataset"))
    if kind == "least_squares":
        _known_keys(raw, "problem", {"kind", "samples", "features", "rank", "noise", "seed", "singular_range"})
        spec_range = raw.get("singular_range", list(LeastSquaresSpec.singular_range))
        if not (isinstance(spec_range, (list, tuple)) and len(spec_range) == 2):
            raise ValueError("problem.singular_range: expected [lo, hi]")
        return LeastSquaresSpec(
            samples=_integer(raw, "problem", "samples"),
            features=_integer(raw, "problem", "features"),
            rank=_integer(raw, "problem", "rank"),
            noise=_number(raw, "problem", "noise"),
            seed=_integer(raw, "problem", "seed"),
            singular_range=tuple(_finite(v, "problem.singular_range") for v in spec_range),
        )
    if kind == "logistic":
        _known_keys(raw, "problem", {"kind", "samples", "features", "flip_fraction", "seed"})
        return LogisticSpec(
            samples=_integer(raw, "problem", "samples"),
            features=_integer(raw, "problem", "features"),
            flip_fraction=_number(raw, "problem", "flip_fraction"),
            seed=_integer(raw, "problem", "seed"),
        )
    _known_keys(raw, "problem", {"kind", "path", "loss"})
    return DatasetSpec(path=_string(raw, "problem", "path"), loss=_string(raw, "problem", "loss", LOSSES))


def _problem_loss(spec: LeastSquaresSpec | LogisticSpec | DatasetSpec) -> str:
    if isinstance(spec, LeastSquaresSpec):
        return SQUARE
    if isinstance(spec, LogisticSpec):
        return LOGISTIC
    return spec.loss


# kind -> the class a norm or batch-size rule builds, and the config keys
# of its arguments in order
_NORM_RULES = {"geometric": (GeometricNorms, ("scale", "ratio")), "polynomial": (PolynomialNorms, ("scale", "power"))}
_SCHEDULE_RULES = {
    "geometric": (GeometricResidualSchedule, ("initial", "ratio")),
    "polynomial": (PolynomialResidualSchedule, ("initial", "power")),
    "explicit": (ExplicitSchedule, ("sizes",)),
}


def _list(raw: dict[str, Any], where: str, key: str, kinds: type | tuple[type, ...]) -> list:
    value = raw.get(key)
    if not (isinstance(value, list) and all(isinstance(v, kinds) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{where}.{key}: expected a list of {'integers' if kinds is int else 'numbers'}")
    return value


def _build(where: str, cls: type, *args: Any) -> Any:
    """``cls(*args)``; a range check that fails names the config path ``where``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _rule(raw: Any, where: str, rules: dict[str, tuple[type, tuple[str, ...]]]) -> Any:
    raw = _mapping(raw, where)
    kind = _string(raw, where, "kind", tuple(rules))
    cls, keys = rules[kind]
    _known_keys(raw, where, {"kind", *keys})
    if kind == "explicit":
        return _build(where, cls, tuple(_list(raw, where, "sizes", int)))
    return _build(where, cls, *(_number(raw, where, key) for key in keys))


def parse_error_model(raw: Any) -> ErrorModel:
    """The error model ``raw`` names, every key checked. Whether it fits the
    problem (direction length, explicit sizes up to M) is ``check_fits``'s."""
    raw = _mapping(raw, "error_model")
    kind = _string(raw, "error_model", "kind", ("zero", "synthetic", "batch"))
    if kind == "zero":
        _known_keys(raw, "error_model", {"kind"})
        return ZeroError()
    if kind == "synthetic":
        _known_keys(raw, "error_model", {"kind", "norms", "direction"})
        norms = _rule(raw.get("norms"), "error_model.norms", _NORM_RULES)
        if raw.get("direction") is None:
            return SyntheticError(norms)
        values = _list(raw, "error_model", "direction", (int, float))
        direction = np.array([_finite(v, "error_model.direction") for v in values])
        return _build("error_model.direction", SyntheticError, norms, direction)
    _known_keys(raw, "error_model", {"kind", "schedule", "selection"})
    schedule = _rule(raw.get("schedule"), "error_model.schedule", _SCHEDULE_RULES)
    selection = _string(raw, "error_model", "selection", ("prefix", "uniform")) if "selection" in raw else "prefix"
    return IncrementalBatchError(schedule, selection)


def parse_start(raw: Any) -> StartSpec:
    raw = _mapping(raw, "start")
    kind = _string(raw, "start", "kind", ("zeros", "random_ball"))
    if kind == "zeros":
        _known_keys(raw, "start", {"kind"})
        return StartSpec("zeros")
    _known_keys(raw, "start", {"kind", "radius"})
    radius = _number(raw, "start", "radius", 1.0)
    if radius <= 0:
        raise ValueError("start.radius: expected a positive number")
    return StartSpec("random_ball", radius)


def _parse_seeds(value: Any) -> tuple[int, ...]:
    if isinstance(value, bool):
        raise ValueError("seeds: expected an integer count or a list of integers")
    if isinstance(value, int):
        if value < 1:
            raise ValueError("seeds: count must be at least 1")
        return tuple(range(value))
    if not (isinstance(value, list) and value and all(isinstance(s, int) and not isinstance(s, bool) for s in value)):
        raise ValueError("seeds: expected an integer count or a nonempty list of integers")
    # a seed is a generator's entropy, which is non-negative; a repeated seed
    # would repeat its run and count it twice in the aggregate
    seen = set()
    for seed in value:
        if seed < 0:
            raise ValueError(f"seeds: expected non-negative integers, got {seed}")
        if seed in seen:
            raise ValueError(f"seeds: seed {seed} is listed more than once")
        seen.add(seed)
    return tuple(value)


@dataclass(eq=False)
class ExperimentConfig:
    """One parsed experiment document, plus the raw form that named it."""

    problem_spec: LeastSquaresSpec | LogisticSpec | DatasetSpec
    error_model: ErrorModel
    start: StartSpec
    iterations: int
    seeds: tuple[int, ...]
    output_dir: str | None
    verify_enabled: bool
    tail_fraction: float
    raw: dict[str, Any]

    @property
    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_problem(self) -> ComposedProblem:
        spec = self.problem_spec
        if isinstance(spec, LeastSquaresSpec):
            return generate_least_squares(spec)
        if isinstance(spec, LogisticSpec):
            return generate_logistic(spec)
        return load_problem(spec.path, spec.loss)

    def initial_point(self, problem: ComposedProblem, seed: int) -> np.ndarray:
        return self.start.build(problem.n_features, seed)


def parse_config(raw: Any) -> ExperimentConfig:
    raw = _mapping(raw, "config")
    _known_keys(
        raw,
        "config",
        {
            "problem",
            "error_model",
            "start",
            "iterations",
            "seeds",
            "output_dir",
            "verify",
            "tail_fraction",
        },
    )
    problem_spec = parse_problem(raw.get("problem"))
    error_model = parse_error_model(raw.get("error_model"))
    start = parse_start(raw["start"]) if "start" in raw else StartSpec("zeros")
    if "iterations" in raw:
        iterations = _integer(raw, "config", "iterations")
    else:
        iterations = DEFAULT_ITERATIONS[_problem_loss(problem_spec)]
    if iterations < 1:
        raise ValueError("config.iterations: must be at least 1")
    if "seeds" not in raw:
        raise ValueError("config.seeds: required")
    seeds = _parse_seeds(raw["seeds"])
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValueError("config.output_dir: expected a string")
    verify_enabled = True
    if "verify" in raw:
        verify = _mapping(raw["verify"], "config.verify")
        _known_keys(verify, "config.verify", {"enabled"})
        if "enabled" in verify:
            if not isinstance(verify["enabled"], bool):
                raise ValueError("config.verify.enabled: expected a boolean")
            verify_enabled = verify["enabled"]
    tail_fraction = _number(raw, "config", "tail_fraction", DEFAULT_TAIL_FRACTION)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("config.tail_fraction: must lie in (0, 1]")
    return ExperimentConfig(
        problem_spec=problem_spec,
        error_model=error_model,
        start=start,
        iterations=iterations,
        seeds=seeds,
        output_dir=output_dir,
        verify_enabled=verify_enabled,
        tail_fraction=tail_fraction,
        raw=raw,
    )

