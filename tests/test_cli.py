"""End-to-end tests for the command-line interface."""

import csv
import functools
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import igm_lab.cli
from igm_lab import (
    LOGISTIC,
    SQUARE,
    CertificationError,
    ComposedProblem,
    LeastSquaresSpec,
    Trajectory,
    generate_least_squares,
    save_problem,
)
from igm_lab.cli import TRAJECTORY_COLUMNS, VIOLATION_KEYS, main, write_trajectory_csv


@pytest.fixture()
def tiny_setup(tmp_path):
    """A dataset CSV plus a minimal run config pointing at it."""
    problem = ComposedProblem(
        np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 2.0]), SQUARE
    )
    data = tmp_path / "tiny.csv"
    save_problem(problem, data)
    raw = {
        "problem": {"kind": "dataset", "path": str(data), "loss": "square"},
        "error_model": {"kind": "zero"},
        "iterations": 5,
        "seeds": [0],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return raw, config, tmp_path


# the README problem with singular values down to 0.01: its slowest mode
# contracts by more than the largest MU_GRID value per step, so no grid
# pair bounds the gap recursion and verification fails without a violation
SLOW_MODE_CONFIG = {
    "problem": {
        "kind": "least_squares", "samples": 50, "features": 20, "rank": 5, "noise": 0.1, "seed": 11,
        "singular_range": [0.01, 1.0],
    },
    "error_model": {"kind": "zero"},
    "iterations": 300,
    "seeds": [0],
}


def read_rows(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


class TestRunCommand:
    def test_clean_run_exits_zero_and_writes_artifacts(self, tiny_setup, capsys):
        raw, config, tmp_path = tiny_setup
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "certificate.json").exists()
        assert (out / "trajectory_seed0.csv").exists()
        assert (out / "verdict_seed0.json").exists()
        assert "verification: pass" in capsys.readouterr().out

    def test_trajectory_csv_layout(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        rows = read_rows(out / "trajectory_seed0.csv")
        assert rows[0] == list(TRAJECTORY_COLUMNS)
        assert len(rows) == 7
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == 2.5
        assert float(rows[1][6]) == pytest.approx(1.0, abs=1e-12)
        assert all(float(r[1]) <= 1e-30 for r in rows[2:])
        # the final iterate has no outgoing step, error, or batch
        assert rows[-1][4] == "" and rows[-1][5] == "" and rows[-1][7] == ""
        # zero model is unbatched, so the batch column stays empty
        assert all(r[7] == "" for r in rows[1:])

    def test_verdict_schema(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out)])
        verdict = json.loads((out / "verdict_seed0.json").read_text())
        assert set(verdict) == {
            "config_digest",
            "seed",
            "violations",
            "tau_hat",
            "mu",
            "delta",
            "lambda1_hat",
            "lambda2_hat",
            "linear_fit",
            "sublinear_fit",
            "census",
            "failure",
        }
        # the keys older verdicts had keep their places; the new ones follow
        assert list(verdict)[-2:] == ["census", "failure"]
        assert verdict["seed"] == 0
        assert verdict["failure"] is None
        assert set(verdict["violations"]) == {
            "descent",
            "iter_bound_a",
            "iter_bound_b",
            "mu_delta_envelope",
            "iterate_envelope",
            "ls_error_bound",
            "logistic_error_bound",
        }
        assert verdict["violations"]["descent"] == 0
        assert verdict["violations"]["iterate_envelope"] == 0
        # no batches were drawn, so the batch-bound entries are null
        assert verdict["violations"]["ls_error_bound"] is None
        assert verdict["mu"] == 0.5
        # the census says where each family was worst, and by how much
        census = verdict["census"]
        assert list(census) == list(verdict["violations"])
        assert list(census["descent"]) == ["checked", "violations", "worst_slack", "worst_index"]
        assert census["descent"]["checked"] == 5 and census["descent"]["violations"] == 0
        assert census["descent"]["worst_slack"] > 0 and 0 <= census["descent"]["worst_index"] < 5
        assert census["ls_error_bound"] is None

    def test_census_of_a_family_that_checked_nothing_has_no_infinite_slack(self, tiny_setup):
        # a batch run whose every batch holds under half the rows checks no
        # step of ls_error_bound; its worst slack is null, not Infinity
        raw, config, tmp_path = tiny_setup
        raw["problem"] = {"kind": "least_squares", "samples": 10, "features": 3, "rank": 3, "noise": 0.1, "seed": 1}
        raw["error_model"] = {"kind": "batch", "schedule": {"kind": "explicit", "sizes": [1, 4]}}
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--no-verify"])
        text = (out / "verdict_seed0.json").read_text()
        assert "Infinity" not in text
        entry = json.loads(text)["census"]["ls_error_bound"]
        assert entry == {"checked": 0, "violations": 0, "worst_slack": None, "worst_index": None}

    def test_failed_seed_shows_its_violation(self, tmp_path):
        # seed 3 of the README problem fails only the iterate envelope; its
        # verdict must say so rather than list zero violations
        raw = {
            "problem": {"kind": "least_squares", "samples": 50, "features": 20, "rank": 5, "noise": 0.1, "seed": 11},
            "error_model": {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.9}},
            "iterations": 500,
            "seeds": [2, 3],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        passed = json.loads((out / "verdict_seed2.json").read_text())["violations"]
        failed = json.loads((out / "verdict_seed3.json").read_text())["violations"]
        assert passed["iterate_envelope"] == 0
        assert failed["iterate_envelope"] == 1

    def test_negative_tolerance_forces_verification_failure(self, tmp_path):
        # no census counts a violation, yet a run without a grid pair fails
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SLOW_MODE_CONFIG))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_no_verify_flag_reports_but_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SLOW_MODE_CONFIG))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out), "--no-verify"])
        assert code == 0
        assert "verification: skipped" in capsys.readouterr().out
        # verdicts are still written for inspection
        verdict = json.loads((out / "verdict_seed0.json").read_text())
        assert verdict["mu"] is None

    def test_certification_failure_exits_three(self, tiny_setup, monkeypatch):
        raw, config, tmp_path = tiny_setup

        def refuse(problem, **kwargs):
            raise CertificationError("near-separable dataset")

        monkeypatch.setattr(igm_lab.cli, "certify", refuse)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 3
        # the exit is explained in the one file the run writes
        assert [p.name for p in out.iterdir()] == ["certification_failure.json"]
        assert json.loads((out / "certification_failure.json").read_text()) == {"error": "near-separable dataset"}

    def test_seed_env_var_overrides_config(self, tiny_setup, monkeypatch):
        raw, config, tmp_path = tiny_setup
        out = tmp_path / "out"
        monkeypatch.setenv("IGM_LAB_SEED", "42")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "trajectory_seed42.csv").exists()
        assert not (out / "trajectory_seed0.csv").exists()

    def test_bad_seed_env_var_is_a_usage_error(self, tiny_setup, monkeypatch):
        raw, config, tmp_path = tiny_setup
        monkeypatch.setenv("IGM_LAB_SEED", "not-a-seed")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("seeds, env, message", [
        ([3, -1], None, "seeds: expected non-negative integers, got -1"),
        ([0], "-1", "seeds: expected non-negative integers, got -1"),
        ([2, 2], None, "seeds: seed 2 is listed more than once"),
    ])
    def test_bad_seeds_exit_one_before_certification(self, tiny_setup, monkeypatch, capsys, seeds, env, message):
        # a negative seed used to certify first and then fail inside the
        # generator; a repeated one ran twice and was averaged with itself
        raw, config, tmp_path = tiny_setup
        raw["seeds"] = seeds
        config.write_text(json.dumps(raw))
        if env is not None:
            monkeypatch.setenv("IGM_LAB_SEED", env)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_seeds_flag_expands_to_a_range(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--seeds", "3"]) == 0
        for seed in range(3):
            assert (out / f"trajectory_seed{seed}.csv").exists()
        assert (out / "aggregate.json").exists()

    def test_reruns_are_byte_identical(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        raw["error_model"] = {
            "kind": "synthetic",
            "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.8},
        }
        config.write_text(json.dumps(raw))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--config", str(config), "--out", str(first)]) == 0
        assert main(["run", "--config", str(config), "--out", str(second)]) == 0
        for name in ("trajectory_seed0.csv", "verdict_seed0.json", "certificate.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("error_model", [
        {"kind": "synthetic", "norms": {"kind": "polynomial", "scale": 1.0, "power": 2000}},
        {"kind": "batch", "schedule": {"kind": "polynomial", "initial": 0.5, "power": 2000}, "selection": "uniform"},
    ], ids=["synthetic", "batch"])
    def test_overflowing_polynomial_schedule_runs_to_the_end(self, tmp_path, error_model):
        # k**(1 + power) overflows a float at the second step; the schedule
        # takes its limit (zero norm, full batch) and the run completes
        raw = {
            "problem": {"kind": "least_squares", "samples": 10, "features": 3, "rank": 3, "noise": 0.1, "seed": 1},
            "error_model": error_model,
            "iterations": 30,
            "seeds": [0, 1],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) in (0, 2)
        names = ["certificate.json", "aggregate.json"]
        names += [f"{kind}_seed{seed}.{ext}" for seed in (0, 1) for kind, ext in (("trajectory", "csv"), ("verdict", "json"))]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert len(read_rows(out / "trajectory_seed0.csv")) == 32


    def test_second_seed_diverging_keeps_the_first_seeds_files(self, tiny_setup, capsys):
        # from a ball of radius 1.5e154, seed 0 starts where f is finite and
        # seed 1 where it overflows: seed 0 runs to the end and writes what
        # it writes alone, and seed 1 reports its divergence in its verdict
        raw, _, tmp_path = tiny_setup
        raw = dict(raw, start={"kind": "random_ball", "radius": 1.5e154}, seeds=[0, 1])
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "both")]) == 2
            stdout, stderr = capsys.readouterr()
            config.write_text(json.dumps(dict(raw, seeds=[0])))
            main(["run", "--config", str(config), "--out", str(tmp_path / "alone")])
        assert stdout.startswith("seed 0: violations=")
        assert stderr == "seed 1: diverged at iteration 0\n"
        names = ["certificate.json", "trajectory_seed0.csv", "verdict_seed0.json"]
        assert sorted(p.name for p in (tmp_path / "both").iterdir()) == names + ["verdict_seed1.json"]
        failed = json.loads((tmp_path / "both" / "verdict_seed1.json").read_text())
        assert failed["failure"] == "seed 1: diverged at iteration 0"
        assert failed["mu"] is None and set(failed["violations"].values()) == {None}
        for name in names[:2]:
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        verdicts = [json.loads((tmp_path / run / names[2]).read_text()) for run in ("both", "alone")]
        for verdict in verdicts:
            del verdict["config_digest"]  # the two configs differ in their seeds
        assert verdicts[0] == verdicts[1]

    def test_batch_form_failure_exits_two(self, tmp_path, capsys):
        # at 100 times the scale of unit data the batch-error forms differ by
        # more than their absolute tolerance: every seed fails, seed 1 at step
        # 1 and seed 0 at step 2. The run names each seed, in config order,
        # with its step and its difference, writes each seed's verdict with
        # its failure, and exits 2 without a traceback
        rng = np.random.default_rng(0)
        problem = ComposedProblem(100.0 * rng.standard_normal((2000, 5)), 100.0 * rng.standard_normal(2000), SQUARE)
        data = tmp_path / "scaled.csv"
        save_problem(problem, data)
        schedule = {"kind": "geometric", "initial": 0.5, "ratio": 0.8}
        raw = {
            "problem": {"kind": "dataset", "path": str(data), "loss": "square"},
            "error_model": {"kind": "batch", "schedule": schedule, "selection": "uniform"},
            "iterations": 30,
            "seeds": [0, 1],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        lines = stderr.splitlines()
        assert len(lines) == 2, stderr
        for seed, step, line in zip((0, 1), (2, 1), lines):
            match = re.fullmatch(rf"seed {seed}: at step {step}, batch-error forms disagree by up to (\S+),"
                                 r" beyond 1e-12", line)
            assert match, stderr
            assert float(match.group(1)) > 1e-12
            assert json.loads((out / f"verdict_seed{seed}.json").read_text())["failure"] == line
        assert stdout == ""
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "verdict_seed0.json", "verdict_seed1.json"]

    def test_a_diverging_seed_between_two_leaves_the_others_as_they_run_alone(self, tiny_setup, capsys):
        # seeds 0 and 2 start where f is finite, seed 1 where it overflows:
        # the run exits 2, every seed gets a verdict, and seeds 0 and 2 write
        # the bytes they write alone
        raw, _, tmp_path = tiny_setup
        raw = dict(raw, start={"kind": "random_ball", "radius": 1.5e154}, seeds=[0, 1, 2])
        config = tmp_path / "diverging.json"
        with np.errstate(over="ignore", invalid="ignore"):
            config.write_text(json.dumps(raw))
            assert main(["run", "--config", str(config), "--out", str(tmp_path / "all")]) == 2
            assert capsys.readouterr().err == "seed 1: diverged at iteration 0\n"
            for seed in (0, 2):
                config.write_text(json.dumps(dict(raw, seeds=[seed])))
                main(["run", "--config", str(config), "--out", str(tmp_path / f"alone{seed}")])
        for seed in (0, 1, 2):
            verdict = json.loads((tmp_path / "all" / f"verdict_seed{seed}.json").read_text())
            assert verdict["failure"] == ("seed 1: diverged at iteration 0" if seed == 1 else None)
        assert not (tmp_path / "all" / "trajectory_seed1.csv").exists()
        assert not (tmp_path / "all" / "aggregate.json").exists()
        for seed in (0, 2):
            name = f"trajectory_seed{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / f"alone{seed}" / name).read_bytes()


class TestUsageErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["run", "--config", str(path)]) == 1

    def test_unknown_config_key(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        raw["surprise"] = 1
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "ratio": 0.9}},
         "error_model.norms.scale: required"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "geometric", "initial": 0.5, "ratio": "x"}},
         "error_model.schedule.ratio: expected a number"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.9, "rate": 2}},
         "error_model.norms: unknown keys ['rate']"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "geometric", "initial": 0.5, "ratio": 0.8, "total": 2}},
         "error_model.schedule: unknown keys ['total']"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 1.5}},
         "error_model.norms: ratio must lie in (0, 1)"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.5}, "direction": [1, 0, 0]},
         "direction length 3 does not match 2 features"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "explicit", "sizes": [1, 3]}},
         "sizes must lie in [1, 2]"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.5}, "direction": "up"},
         "error_model.direction: expected a list of numbers"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.5}, "direction": [0, 0]},
         "error_model.direction: direction must be a finite nonzero vector"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "explicit", "sizes": [1, 1.5]}},
         "error_model.schedule.sizes: expected a list of integers"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "explicit", "sizes": [2, 1]}},
         "error_model.schedule: sizes must be nondecreasing"),
        ("error_model", {"kind": "batch", "schedule": {"kind": "linear", "initial": 0.5}},
         "error_model.schedule.kind: expected one of ('geometric', 'polynomial', 'explicit')"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": float("nan"), "ratio": 0.9}},
         "error_model.norms.scale: expected a finite number"),
        ("start", {"kind": "random_ball", "radius": float("inf")}, "start.radius: expected a finite number"),
        ("problem", {"kind": "least_squares", "samples": 10, "features": 3, "rank": 3, "noise": 10**400, "seed": 1},
         "problem.noise: expected a finite number"),
        ("problem", {"kind": "least_squares", "samples": 10, "features": 3, "rank": 3, "noise": 0.1, "seed": 1,
                     "singular_range": [0.5, 10**400]}, "problem.singular_range: expected a finite number"),
        ("error_model", {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.5},
                         "direction": [1, -(10**400)]}, "error_model.direction: expected a finite number"),
        ("verify", {"tolerance_scale": 1.0}, "config.verify: unknown keys ['tolerance_scale']"),
    ], ids=["norms-no-scale", "ratio-string", "norms-unknown-key", "schedule-unknown-key", "ratio-above-one",
            "direction-length", "size-above-m", "direction-not-a-list", "direction-zero", "sizes-not-integers",
            "sizes-decreasing", "schedule-kind", "nan", "infinity", "huge-integer",
            "huge-integer-in-range", "huge-integer-in-direction", "tolerance-scale"])
    def test_bad_error_model_fails_before_certification(self, tiny_setup, capsys, key, value, message):
        # a bad error model, or any config number that is not finite, or a
        # removed key, stops the run before it certifies or writes a file
        raw, config, tmp_path = tiny_setup
        raw[key] = value
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stderr == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        assert main(["run", "--config", str(config), "--frobnicate"]) == 1


class TestSweepCommand:
    def test_rate_grows_with_the_error_ratio(self, tiny_setup, capsys):
        raw, config, tmp_path = tiny_setup
        raw["error_model"] = {
            "kind": "synthetic",
            "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.8},
        }
        raw["iterations"] = 120
        config.write_text(json.dumps(raw))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(config),
                "--axis",
                "error_model.norms.ratio",
                "--values",
                "0.5,0.7,0.9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["axis"] == "error_model.norms.ratio"
        rates = [row["linear_fit"]["c"] for row in payload["rows"]]
        assert len(rates) == 3
        assert rates == sorted(rates)
        for value in (0.5, 0.7, 0.9):
            assert (out / f"error_model_norms_ratio={value}" / "trajectory_seed0.csv").exists()
        assert "error_model.norms.ratio" in capsys.readouterr().out

    def test_unknown_axis_is_a_usage_error(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        code = main(
            ["sweep", "--config", str(config), "--axis", "no.such.path", "--values", "1,2"]
        )
        assert code == 1

    def test_every_value_is_parsed_before_the_first_run(self, tiny_setup, capsys):
        raw, config, tmp_path = tiny_setup
        raw["error_model"] = {"kind": "synthetic", "norms": {"kind": "geometric", "scale": 1.0, "ratio": 0.8}}
        config.write_text(json.dumps(raw))
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(config), "--axis", "error_model.norms.ratio", "--values", "0.5,1.5"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: error_model.norms: ratio must lie in (0, 1)\n"
        assert not out.exists()

    def test_empty_values_are_a_usage_error(self, tiny_setup):
        raw, config, tmp_path = tiny_setup
        code = main(["sweep", "--config", str(config), "--axis", "iterations", "--values", ","])
        assert code == 1


class TestGenerateAndCertify:
    def test_generate_then_certify(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "least_squares",
                    "samples": 12,
                    "features": 4,
                    "rank": 3,
                    "noise": 0.1,
                    "seed": 1,
                }
            )
        )
        data = tmp_path / "data.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(data)]) == 0
        assert "12 samples x 4 features" in capsys.readouterr().out

        cert_path = tmp_path / "cert.json"
        assert main(["certify", "--data", str(data), "--loss", "square", "--out", str(cert_path)]) == 0
        payload = json.loads(cert_path.read_text())
        assert payload["method"] == "least_squares"

    def test_generate_rejects_dataset_specs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "dataset", "path": "x.csv", "loss": "square"}))
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]) == 1

    def test_generated_file_matches_library_output(self, tmp_path):
        spec_payload = {
            "kind": "least_squares",
            "samples": 9,
            "features": 3,
            "rank": 2,
            "noise": 0.2,
            "seed": 4,
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_payload))
        via_cli = tmp_path / "cli.csv"
        main(["generate", "--spec", str(spec), "--out", str(via_cli)])
        via_lib = tmp_path / "lib.csv"
        save_problem(
            generate_least_squares(LeastSquaresSpec(9, 3, 2, 0.2, seed=4)), via_lib
        )
        assert via_cli.read_bytes() == via_lib.read_bytes()


class TestSeparableData:
    @pytest.fixture()
    def separable_csv(self, tmp_path):
        """2000 x 20 logistic data whose labels a hyperplane gives exactly."""
        rng = np.random.default_rng(3)
        features = rng.standard_normal((2000, 20))
        labels = np.where(features @ rng.standard_normal(20) >= 0, 1.0, -1.0)
        data = tmp_path / "separable.csv"
        save_problem(ComposedProblem(features, labels, LOGISTIC), data)
        return data

    def test_certify_exits_three_fast_with_the_reason(self, separable_csv, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["certify", "--data", str(separable_csv), "--loss", "logistic", "--out", str(tmp_path / "c.json")])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert elapsed < 1.0, elapsed
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("certification failed: the data are separable")
        assert not (tmp_path / "c.json").exists()

    def test_run_exits_three_and_writes_the_reason(self, separable_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": {"kind": "dataset", "path": str(separable_csv), "loss": "logistic"},
            "error_model": {"kind": "zero"},
            "iterations": 5,
            "seeds": [0],
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["certification_failure.json"]
        error = json.loads((out / "certification_failure.json").read_text())["error"]
        assert error.startswith("the data are separable")
        assert capsys.readouterr().err == f"certification failed: {error}\n"


EXIT_FREEZE_PROBE = """
import atexit, gc
import numpy
before = atexit._ncallbacks()
import igm_lab.cli
imported = atexit._ncallbacks()
# atexit runs its handlers last-in first-out, so this one runs after main's
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
registered = atexit._ncallbacks()
igm_lab.cli.main([])
igm_lab.cli.main([])
print("registered by import:", imported - before)
print("registered by two calls:", atexit._ncallbacks() - registered)
"""


def test_main_freezes_the_heap_at_exit():
    # interpreter shutdown then skips its collections over the import-time heap
    src = str(Path(igm_lab.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", EXIT_FREEZE_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "registered by import: 0",
        "registered by two calls: 1",
        "frozen at exit: True",
    ]


def test_every_census_family_has_a_verdict_key(battery):
    # the battery covers square and logistic problems, batched and unbatched
    # errors, and attached distances, so every family diagnose emits shows up
    families = set().union(*(set(entry.report.census) for entry in battery))
    assert {"iterate_envelope", "ls_error_bound", "logistic_error_bound"} <= families
    assert families <= set(VIOLATION_KEYS)


def csv_module_trajectory(path, traj, f_min):
    """The trajectory writer as a ``csv.writer`` loop over per-cell
    ``repr(float(value))``; the streaming writer must give the same bytes."""
    gaps = traj.gaps(f_min)
    last = traj.iterations
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRAJECTORY_COLUMNS)
        for k in range(last + 1):
            row = [str(k), repr(float(traj.fs[k])), repr(float(gaps[k])), repr(float(traj.grad_norms[k]))]
            if k < last:
                row += [repr(float(traj.err_norms[k])), repr(float(traj.step_norms[k]))]
            else:
                row += ["", ""]
            row.append(repr(float(traj.dists[k])) if traj.dists is not None else "")
            if k < last and traj.batch_sizes is not None:
                row.append(str(int(traj.batch_sizes[k])))
            else:
                row.append("")
            writer.writerow(row)


ODD_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 1e300, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1 / 3]


def odd_trajectory(steps, with_dists, batched):
    """A trajectory whose every float column holds ODD_FLOATS among values
    spread over 40 decades."""
    rng = np.random.default_rng(steps)

    def column(size):
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)
        odd = np.roll(ODD_FLOATS, int(rng.integers(len(ODD_FLOATS))))[:size]
        values[rng.permutation(size)[: odd.size]] = odd
        return values

    return Trajectory(
        xs=np.zeros((steps + 1, 2)),
        fs=column(steps + 1),
        grad_norms=column(steps + 1),
        errors=np.zeros((steps, 2)),
        err_norms=column(steps),
        step_norms=column(steps),
        batch_sizes=rng.integers(1, 10**6, steps) if batched else None,
        seed=0,
        dists=column(steps + 1) if with_dists else None,
    )


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("with_dists", [False, True], ids=["no-dists", "dists"])
@pytest.mark.parametrize("steps", [1, 40])
def test_trajectory_csv_matches_the_csv_module_bytes(tmp_path, steps, with_dists, batched):
    traj = odd_trajectory(steps, with_dists, batched)
    for f_min in (0.0, -0.0, 0.25):
        write_trajectory_csv(tmp_path / "streamed.csv", traj, f_min)
        csv_module_trajectory(tmp_path / "reference.csv", traj, f_min)
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_every_benchmark_span_has_a_target():
    # the benchmark's tracer wraps each span name at the names its callers
    # look up; a span none of whose targets resolves drops its metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    resolved = set()
    for name, module_name, attribute in child.WRAPPED:
        try:
            functools.reduce(getattr, attribute.split("."), importlib.import_module(module_name))
        except AttributeError:
            continue
        resolved.add(name)
    assert resolved == {name for name, _, _ in child.WRAPPED}
