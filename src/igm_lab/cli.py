"""Command-line front end.

Subcommands:

* ``run``      execute one experiment config (single- or multi-seed):
               ``execute`` computes every seed, then ``write_run`` writes
               per-seed trajectory CSVs and verdict JSONs, the optimality
               certificate, and an aggregate JSON.
* ``sweep``    run a config repeatedly while varying one dotted config
               path, and print a comparison table.
* ``generate`` materialize a generator spec into a dataset CSV.
* ``certify``  compute and save the optimality certificate of a dataset.

Exit codes: 0 pass, 1 usage or I/O error, 2 verification failure (or a
diverged run, or a failed batch-error check, which the seed's verdict
names), 3 certification failure, separable logistic data among them
(``certification_failure.json`` says why).
The ``IGM_LAB_SEED`` environment variable overrides config seeds with a
single seed, for smoke tests. ``main`` freezes the heap at exit (``gc.freeze``
through ``atexit``), so interpreter shutdown skips its collections over
numpy's import-time objects; every file is closed before ``main`` returns.
"""

from __future__ import annotations

import argparse
import atexit
import copy
import functools
import gc
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .config import ExperimentConfig, parse_config, parse_problem
from .datagen import (
    LeastSquaresSpec,
    LogisticSpec,
    generate_least_squares,
    generate_logistic,
    load_problem,
    save_problem,
)
from .diagnostics import FAMILIES, CensusEntry, ExponentFit, RateFit, RateReport
from .diagnostics import aggregate_expectation, check_ls_expected_bound, diagnose
from .engine import IncrementalBatchError, Trajectory, check_fits, run, run_batch  # noqa: F401 (perfbench traces run)
from .optimum import CertificationError, OptimalSetCertificate, attach_distances, certify
from .problems import SQUARE, ComposedProblem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_CERTIFICATION = 3

SEED_ENV = "IGM_LAB_SEED"

TRAJECTORY_COLUMNS = ("k", "f", "f_gap", "grad_norm", "err_norm", "step_norm", "dist_to_opt", "batch_size")

VIOLATION_KEYS = FAMILIES  # a verdict lists one violation count per census family


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# artifact writers


def write_trajectory_csv(path: Path, traj: Trajectory, f_min: float) -> None:
    """One row per iterate; the step columns of the last row, and the
    distance and batch-size columns of a run without them, are empty.

    Each column streams from its array one value at a time, so no column
    is ever held as a list of strings or python floats. No field ever
    holds a comma, a quote or a line break."""
    # numpy's float64 subclasses python float, and a python float's repr
    # round-trips exactly, keeping reruns byte-identical
    cell = float.__repr__

    def column(values, text):
        if values is None:
            return itertools.repeat("")
        return itertools.chain(map(text, values), itertools.repeat(""))

    columns = [
        map(str, range(traj.iterations + 1)),
        column(traj.fs, cell),
        column(traj.gaps(f_min), cell),
        column(traj.grad_norms, cell),
        column(traj.err_norms, cell),
        column(traj.step_norms, cell),
        column(traj.dists, cell),
        column(traj.batch_sizes, str),
    ]
    with path.open("w", newline="") as handle:
        handle.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


def _fits(linear: RateFit | None, sublinear: ExponentFit | None) -> dict[str, Any]:
    """The two rate fits as verdicts, aggregates and sweep rows write them."""
    return {
        "linear_fit": None if linear is None else {"c": linear.rate, "r2": linear.r_squared},
        "sublinear_fit": None if sublinear is None else {"p": sublinear.exponent, "r2": sublinear.r_squared},
    }


def _census_fields(entry: CensusEntry) -> dict[str, Any]:
    # JSON has no infinity: a family that checked nothing has no worst slack
    slack = entry.worst_slack if math.isfinite(entry.worst_slack) else None
    return {"checked": entry.checked, "violations": entry.violations, "worst_slack": slack,
            "worst_index": entry.worst_index}


def verdict_payload(config_digest: str, traj: Trajectory, report: RateReport | None) -> dict[str, Any]:
    """One seed's verdict; a failed run has no report, and its ``failure``
    says what ended it."""
    report = report or RateReport({}, None, None, None, None, None, None, None)
    census = {key: report.census.get(key) for key in VIOLATION_KEYS}
    return {
        "config_digest": config_digest,
        "seed": traj.seed,
        "violations": {key: None if entry is None else entry.violations for key, entry in census.items()},
        "tau_hat": report.tau_hat,
        "mu": report.mu,
        "delta": report.delta,
        "lambda1_hat": report.lambda1,
        "lambda2_hat": report.lambda2,
        **_fits(report.linear_fit, report.sublinear_fit),
        "census": {key: None if entry is None else _census_fields(entry) for key, entry in census.items()},
        "failure": traj.failure,
    }


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# execution


@dataclass(eq=False)
class RunResult:
    """One config's certificate (or the ``error`` that stopped certification), a trajectory
    and a report per seed (None where the run failed), and the aggregate payload, if any."""

    config: ExperimentConfig
    cert: OptimalSetCertificate | None
    error: str | None = None
    trajectories: list[Trajectory] = field(default_factory=list)
    reports: list[RateReport | None] = field(default_factory=list)
    aggregate: dict[str, Any] | None = None


def execute(config: ExperimentConfig) -> RunResult:
    """Certify one config's problem, run all its seeds as one stack, and
    diagnose each seed that ran to the end. Writes nothing."""
    problem = config.build_problem()
    check_fits(config.error_model, problem)
    try:
        cert = certify(problem)
    except CertificationError as exc:
        return RunResult(config, None, str(exc))
    starts = [config.initial_point(problem, seed) for seed in config.seeds]
    trajectories = run_batch(problem, config.error_model, starts, config.iterations, config.seeds)
    reports = [diagnose(problem, cert, attach_distances(cert, problem, traj), config.tail_fraction)
               if traj.failure is None else None for traj in trajectories]
    aggregate = None if None in reports else _aggregate_payload(config, problem, cert, trajectories)
    return RunResult(config, cert, None, trajectories, reports, aggregate)


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def write_run(result: RunResult, out_dir: Path) -> tuple[int, dict[str, Any]]:
    """Write one computed config into ``out_dir``, with a line per seed on stdout (a failed
    seed's failure on stderr); returns (exit code, summary row)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config, cert = result.config, result.cert
    if cert is None:
        _write_json(out_dir / "certification_failure.json", {"error": result.error})
        print(f"certification failed: {result.error}", file=sys.stderr)
        return EXIT_CERTIFICATION, {"error": result.error}
    (out_dir / "certificate.json").write_text(cert.to_json() + "\n")
    for traj, report in zip(result.trajectories, result.reports):
        if report is None:
            print(traj.failure, file=sys.stderr)
        else:
            write_trajectory_csv(out_dir / f"trajectory_seed{traj.seed}.csv", traj, cert.f_min)
            linear = report.linear_fit
            print(f"seed {traj.seed}: violations={report.total_violations} mu={_fmt(report.mu)}"
                  f" delta={_fmt(report.delta)} c={_fmt(linear.rate if linear else None)}"
                  f" r2={_fmt(linear.r_squared if linear else None)}")
        _write_json(out_dir / f"verdict_seed{traj.seed}.json", verdict_payload(config.digest, traj, report))
    if None in result.reports:
        return EXIT_VERIFICATION, {"error": "; ".join(t.failure for t in result.trajectories if t.failure)}

    failed = not all(report.passed for report in result.reports)
    if result.aggregate is not None:
        _write_json(out_dir / "aggregate.json", result.aggregate)
        bound = result.aggregate["ls_expected_bound"]
        failed = failed or (bound is not None and bound["violations"] > 0)
    if config.verify_enabled and failed:
        print("verification: fail", file=sys.stderr)
        return EXIT_VERIFICATION, _summary_row(result)
    print("verification: pass" if config.verify_enabled else "verification: skipped")
    return EXIT_OK, _summary_row(result)


def _aggregate_payload(config: ExperimentConfig, problem: ComposedProblem, cert: OptimalSetCertificate,
                       trajectories: list[Trajectory]) -> dict[str, Any] | None:
    if len(trajectories) < 2:
        return None
    report = aggregate_expectation(trajectories, cert, config.tail_fraction)
    payload: dict[str, Any] = {
        "config_digest": config.digest,
        "seeds": list(config.seeds),
        "mean_final_gap": float(report.mean_gap[-1]),
        **_fits(report.linear_fit, report.sublinear_fit),
        "ls_expected_bound": None,
    }
    model = config.error_model
    stochastic_batches = isinstance(model, IncrementalBatchError) and model.selection == "uniform"
    if stochastic_batches and problem.loss == SQUARE:
        entry = check_ls_expected_bound(trajectories, problem, cert)
        payload["ls_expected_bound"] = {
            "checked": entry.checked,
            "violations": entry.violations,
            "worst_slack": entry.worst_slack,
        }
    return payload


def _summary_row(result: RunResult) -> dict[str, Any]:
    first = result.reports[0]
    # each fit on the mean gap where it exists, else the first seed's
    fits = _fits(first.linear_fit, first.sublinear_fit)
    if result.aggregate:
        fits = {key: result.aggregate[key] or fit for key, fit in fits.items()}
    return {
        "seeds": len(result.config.seeds),
        "violations": sum(r.total_violations for r in result.reports),
        "mu": first.mu,
        "delta": first.delta,
        **fits,
    }


# ---------------------------------------------------------------------------
# config plumbing


def _read_json(path: str) -> Any:
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON ({exc})") from None


def _apply_overrides(raw: Any, seeds: int | None, no_verify: bool) -> Any:
    if not isinstance(raw, dict):
        raise UsageError("config: expected a JSON object")
    raw = copy.deepcopy(raw)
    if seeds is not None:
        if seeds < 1:
            raise UsageError("--seeds must be at least 1")
        raw["seeds"] = seeds
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            raw["seeds"] = [int(env)]
        except ValueError:
            raise UsageError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    if no_verify:
        verify = raw.setdefault("verify", {})
        if not isinstance(verify, dict):
            raise UsageError("config.verify: expected an object")
        verify["enabled"] = False
    return raw


def _set_axis(raw: dict[str, Any], axis: str, value: Any) -> None:
    parts = axis.split(".")
    node = raw
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise UsageError(f"axis {axis!r}: path not found in config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise UsageError(f"axis {axis!r}: path not found in config")
    node[parts[-1]] = value


def _parse_axis_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    raw = _apply_overrides(_read_json(args.config), args.seeds, args.no_verify)
    config = parse_config(raw)
    code, _ = write_run(execute(config), Path(args.out or config.output_dir or "igm-out"))
    return code


def cmd_sweep(args: argparse.Namespace) -> int:
    values = [_parse_axis_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values must list at least one value")
    base = _apply_overrides(_read_json(args.config), args.seeds, args.no_verify)
    out_root = Path(args.out or base.get("output_dir") or "igm-sweep")
    configs = []
    for value in values:
        raw = copy.deepcopy(base)
        _set_axis(raw, args.axis, value)
        raw["output_dir"] = None
        configs.append(parse_config(raw))
    rows = []
    worst = EXIT_OK
    for value, config in zip(values, configs):
        code, summary = write_run(execute(config), out_root / f"{args.axis.replace('.', '_')}={value}")
        worst = max(worst, code)
        rows.append({"value": value, "exit": code, **summary})
    _write_json(out_root / "sweep.json", {"axis": args.axis, "rows": rows})
    header = f"{args.axis:>24}  exit  violations  {'c':>10}  {'r2':>8}  {'p':>8}"
    print(header)
    for row in rows:
        linear = row.get("linear_fit")
        sublinear = row.get("sublinear_fit")
        print(
            f"{str(row['value']):>24}  {row['exit']:>4}  {row.get('violations', '-'):>10}  "
            f"{_fmt(linear['c'] if linear else None):>10}  "
            f"{_fmt(linear['r2'] if linear else None):>8}  "
            f"{_fmt(sublinear['p'] if sublinear else None):>8}"
        )
    return worst


def cmd_generate(args: argparse.Namespace) -> int:
    spec = parse_problem(_read_json(args.spec))
    if isinstance(spec, LeastSquaresSpec):
        problem = generate_least_squares(spec)
    elif isinstance(spec, LogisticSpec):
        problem = generate_logistic(spec)
    else:
        raise UsageError("generate expects a generator spec, not a dataset reference")
    save_problem(problem, args.out)
    print(f"wrote {problem.n_samples} samples x {problem.n_features} features to {args.out}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    problem = load_problem(args.data, args.loss)
    cert = certify(problem)
    Path(args.out).write_text(cert.to_json() + "\n")
    print(f"f_min={cert.f_min!r} method={cert.method}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="igm-lab", description="Inexact gradient method lab.")
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True, help="path to a config JSON file")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--seeds", type=int, help="replace config seeds with range(N)")
    run_p.add_argument("--no-verify", action="store_true", help="do not fail on inequality violations")
    run_p.set_defaults(handler=cmd_run)

    sweep_p = commands.add_parser("sweep", help="run a config across one varying axis")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, help="dotted config path, e.g. error_model.norms.ratio")
    sweep_p.add_argument("--values", required=True, help="comma-separated values for the axis")
    sweep_p.add_argument("--out", help="output directory root")
    sweep_p.add_argument("--seeds", type=int)
    sweep_p.add_argument("--no-verify", action="store_true")
    sweep_p.set_defaults(handler=cmd_sweep)

    gen_p = commands.add_parser("generate", help="write a synthetic dataset CSV")
    gen_p.add_argument("--spec", required=True, help="path to a generator spec JSON file")
    gen_p.add_argument("--out", required=True, help="output CSV path")
    gen_p.set_defaults(handler=cmd_generate)

    cert_p = commands.add_parser("certify", help="certify the optimal set of a dataset")
    cert_p.add_argument("--data", required=True, help="dataset CSV path")
    cert_p.add_argument("--loss", required=True, choices=["square", "logistic"])
    cert_p.add_argument("--out", required=True, help="output JSON path")
    cert_p.set_defaults(handler=cmd_certify)
    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` to run at exit, once per process."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
