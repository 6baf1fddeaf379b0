"""Unit tests for experiment-config parsing and construction."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from igm_lab import (
    DatasetSpec,
    ExplicitSchedule,
    GeometricNorms,
    GeometricResidualSchedule,
    IncrementalBatchError,
    LeastSquaresSpec,
    LogisticSpec,
    StartSpec,
    SyntheticError,
    ZeroError,
    generate_least_squares,
    parse_config,
    save_problem,
)

LS_PROBLEM = {
    "kind": "least_squares",
    "samples": 10,
    "features": 3,
    "rank": 2,
    "noise": 0.1,
    "seed": 0,
}


def base_config():
    return {
        "problem": copy.deepcopy(LS_PROBLEM),
        "error_model": {"kind": "zero"},
        "iterations": 20,
        "seeds": 2,
    }


def test_minimal_config_parses():
    config = parse_config(base_config())
    assert isinstance(config.problem_spec, LeastSquaresSpec)
    assert config.iterations == 20
    assert config.seeds == (0, 1)
    assert config.verify_enabled
    assert config.tail_fraction == 0.5
    assert config.start == StartSpec("zeros")


def test_default_iterations_depend_on_the_loss():
    raw = base_config()
    del raw["iterations"]
    assert parse_config(raw).iterations == 500
    raw["problem"] = {"kind": "logistic", "samples": 10, "features": 3, "flip_fraction": 0.2, "seed": 0}
    assert parse_config(raw).iterations == 5000


def test_seed_list_is_taken_verbatim():
    raw = base_config()
    raw["seeds"] = [5, 3, 11]
    assert parse_config(raw).seeds == (5, 3, 11)


def test_unknown_keys_are_rejected_everywhere():
    raw = base_config()
    raw["typo"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(raw)
    raw = base_config()
    raw["problem"]["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(raw)
    raw = base_config()
    raw["error_model"] = {"kind": "zero", "scale": 1.0}
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(raw)


@pytest.mark.parametrize("seeds, message", [
    ([3, -1], "seeds: expected non-negative integers, got -1"),
    ([-2], "seeds: expected non-negative integers, got -2"),
    ([2, 2], "seeds: seed 2 is listed more than once"),
    ([5, 0, 7, 0], "seeds: seed 0 is listed more than once"),
])
def test_seeds_are_distinct_and_non_negative(seeds, message):
    raw = base_config()
    raw["seeds"] = seeds
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_config(raw)


def test_field_validation():
    raw = base_config()
    raw["iterations"] = 0
    with pytest.raises(ValueError):
        parse_config(raw)
    raw = base_config()
    raw["seeds"] = []
    with pytest.raises(ValueError):
        parse_config(raw)
    raw = base_config()
    raw["seeds"] = True
    with pytest.raises(ValueError):
        parse_config(raw)
    raw = base_config()
    raw["tail_fraction"] = 1.5
    with pytest.raises(ValueError):
        parse_config(raw)
    raw = base_config()
    raw["verify"] = {"enabled": "yes"}
    with pytest.raises(ValueError):
        parse_config(raw)
    raw = base_config()
    raw["start"] = {"kind": "random_ball", "radius": float("inf")}
    with pytest.raises(ValueError, match="start.radius: expected a finite number"):
        parse_config(raw)


def test_error_model_structure_is_checked():
    raw = base_config()
    raw["error_model"] = {"kind": "synthetic"}
    with pytest.raises(ValueError):
        parse_config(raw)
    raw["error_model"] = {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.9}}
    parse_config(raw)
    raw["error_model"] = {"kind": "batch", "schedule": {"kind": "geometric", "initial": 0.5, "ratio": 0.8}, "selection": "sideways"}
    with pytest.raises(ValueError):
        parse_config(raw)


def test_build_error_model_constructs_engine_objects():
    raw = base_config()
    assert isinstance(parse_config(raw).error_model, ZeroError)

    raw["error_model"] = {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.9}}
    model = parse_config(raw).error_model
    assert isinstance(model, SyntheticError)
    assert model.norms == GeometricNorms(1.0, 0.9)
    assert model.direction is None

    raw["error_model"]["direction"] = [3, 4, 0]
    assert parse_config(raw).error_model.direction.tolist() == [0.6, 0.8, 0.0]

    raw["error_model"] = {
        "kind": "batch",
        "schedule": {"kind": "geometric", "initial": 0.5, "ratio": 0.8},
        "selection": "uniform",
    }
    model = parse_config(raw).error_model
    assert model == IncrementalBatchError(GeometricResidualSchedule(0.5, 0.8), selection="uniform")

    raw["error_model"] = {"kind": "batch", "schedule": {"kind": "explicit", "sizes": [2, 5, 5]}}
    assert parse_config(raw).error_model == IncrementalBatchError(ExplicitSchedule((2, 5, 5)), selection="prefix")


def test_build_problem_from_generator_and_dataset(tmp_path):
    config = parse_config(base_config())
    problem = config.build_problem()
    assert problem.n_samples == 10

    path = tmp_path / "data.csv"
    save_problem(generate_least_squares(LeastSquaresSpec(8, 3, 2, 0.1, seed=1)), path)
    raw = base_config()
    raw["problem"] = {"kind": "dataset", "path": str(path), "loss": "square"}
    config = parse_config(raw)
    assert isinstance(config.problem_spec, DatasetSpec)
    assert config.build_problem().n_samples == 8


def test_start_spec_draws_inside_the_ball():
    raw = base_config()
    raw["start"] = {"kind": "random_ball", "radius": 0.3}
    config = parse_config(raw)
    problem = config.build_problem()
    for seed in range(10):
        point = config.initial_point(problem, seed)
        assert point.shape == (3,)
        assert np.linalg.norm(point) <= 0.3
    # same seed, same point; the draw is decoupled from the run stream
    assert np.array_equal(config.initial_point(problem, 4), config.initial_point(problem, 4))


def test_start_spec_validation():
    raw = base_config()
    raw["start"] = {"kind": "random_ball", "radius": -1.0}
    with pytest.raises(ValueError):
        parse_config(raw)
    raw["start"] = {"kind": "teleport"}
    with pytest.raises(ValueError):
        parse_config(raw)


def test_digest_ignores_key_order_but_tracks_content():
    raw = base_config()
    reordered = json.loads(json.dumps(raw, sort_keys=True))
    assert parse_config(raw).digest == parse_config(reordered).digest
    changed = base_config()
    changed["iterations"] = 21
    assert parse_config(changed).digest != parse_config(raw).digest


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    config = parse_config(json.loads(path.read_text()))
    assert config.iterations == 20
    assert config.digest == parse_config(base_config()).digest


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    model = parse_config(json.loads(blocks[0])).error_model
    assert isinstance(model, SyntheticError)
    assert model.norms == GeometricNorms(1.0, 0.9)
