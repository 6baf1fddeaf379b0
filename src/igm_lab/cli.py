"""Command-line front end.

Subcommands:

* ``run``      execute one experiment config (single- or multi-seed),
               writing per-seed trajectory CSVs, verdict JSONs, the
               optimality certificate, and an aggregate JSON.
* ``sweep``    run a config repeatedly while varying one dotted config
               path, and print a comparison table.
* ``generate`` materialize a generator spec into a dataset CSV.
* ``certify``  compute and save the optimality certificate of a dataset.

Exit codes: 0 pass, 1 usage or I/O error, 2 verification failure (or a
diverged run, or a failed batch-error check), 3 certification failure.
The ``IGM_LAB_SEED`` environment variable overrides config seeds with a
single seed, for smoke tests.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import sys
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
from .diagnostics import FAMILIES, ExponentFit, RateFit, RateReport
from .diagnostics import aggregate_expectation, check_ls_expected_bound, diagnose
from .engine import DivergedError, IncrementalBatchError, Trajectory, check_fits, run, run_batch
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


def verdict_payload(config_digest: str, seed: int, report: RateReport) -> dict[str, Any]:
    violations = {}
    for key in VIOLATION_KEYS:
        entry = report.census.get(key)
        violations[key] = None if entry is None else entry.violations
    return {
        "config_digest": config_digest,
        "seed": seed,
        "violations": violations,
        "tau_hat": report.tau_hat,
        "mu": report.mu,
        "delta": report.delta,
        "lambda1_hat": report.lambda1,
        "lambda2_hat": report.lambda2,
        **_fits(report.linear_fit, report.sublinear_fit),
    }


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# execution


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def _execute(config: ExperimentConfig, out_dir: Path) -> tuple[int, dict[str, Any]]:
    """Run one config into ``out_dir``; returns (exit code, summary row)."""
    problem = config.build_problem()
    check_fits(config.error_model, problem)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cert = certify(problem)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION, {"error": str(exc)}
    (out_dir / "certificate.json").write_text(cert.to_json() + "\n")
    model = config.error_model
    digest = config.digest

    starts = [config.initial_point(problem, seed) for seed in config.seeds]
    try:
        batch = run_batch(problem, model, starts, config.iterations, config.seeds)
    except (DivergedError, ArithmeticError):
        batch = None  # rerun seed by seed: the seeds before the first failing one keep their files
    trajectories: list[Trajectory] = []
    reports: list[RateReport] = []
    failed = False
    for i, seed in enumerate(config.seeds):
        try:
            traj = batch[i] if batch is not None else run(problem, model, starts[i], config.iterations, seed=seed)
        except DivergedError as exc:
            print(f"seed {seed}: diverged at iteration {exc.iteration}", file=sys.stderr)
            return EXIT_VERIFICATION, {"error": f"diverged at iteration {exc.iteration}"}
        except ArithmeticError as exc:
            print(exc, file=sys.stderr)
            return EXIT_VERIFICATION, {"error": str(exc)}
        attach_distances(cert, problem, traj)
        write_trajectory_csv(out_dir / f"trajectory_seed{seed}.csv", traj, cert.f_min)
        report = diagnose(problem, cert, traj, config.tail_fraction)
        _write_json(out_dir / f"verdict_seed{seed}.json", verdict_payload(digest, seed, report))
        trajectories.append(traj)
        reports.append(report)
        if not report.passed:
            failed = True
        linear = report.linear_fit
        print(
            f"seed {seed}: violations={report.total_violations} mu={_fmt(report.mu)}"
            f" delta={_fmt(report.delta)} c={_fmt(linear.rate if linear else None)}"
            f" r2={_fmt(linear.r_squared if linear else None)}"
        )

    aggregate = _aggregate_payload(config, problem, cert, trajectories)
    if aggregate is not None:
        _write_json(out_dir / "aggregate.json", aggregate)
        bound = aggregate.get("ls_expected_bound")
        if bound is not None and bound["violations"] > 0:
            failed = True

    summary = _summary_row(config, reports, aggregate)
    if config.verify_enabled and failed:
        print("verification: fail", file=sys.stderr)
        return EXIT_VERIFICATION, summary
    print("verification: pass" if config.verify_enabled else "verification: skipped")
    return EXIT_OK, summary


def _aggregate_payload(
    config: ExperimentConfig,
    problem: ComposedProblem,
    cert: OptimalSetCertificate,
    trajectories: list[Trajectory],
) -> dict[str, Any] | None:
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


def _summary_row(
    config: ExperimentConfig,
    reports: list[RateReport],
    aggregate: dict[str, Any] | None,
) -> dict[str, Any]:
    first = reports[0]
    # each fit on the mean gap where it exists, else the first seed's
    fits = _fits(first.linear_fit, first.sublinear_fit)
    if aggregate:
        fits = {key: aggregate[key] or fit for key, fit in fits.items()}
    return {
        "seeds": len(config.seeds),
        "violations": sum(r.total_violations for r in reports),
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
    out_dir = Path(args.out or config.output_dir or "igm-out")
    code, _ = _execute(config, out_dir)
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
        code, summary = _execute(config, out_root / f"{args.axis.replace('.', '_')}={value}")
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


def main(argv: list[str] | None = None) -> int:
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
