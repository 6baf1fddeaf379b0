"""igm-lab benchmark: time whole CLI invocations, and their layers when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source tree (the directory holding ``src/igm_lab``).
Each CLI invocation is a fresh child process with PYTHONPATH at that
``src`` and BLAS/OpenMP threads pinned to 1.  ``--trace 0`` reports the
end-to-end metrics; invocation time is reported relative to a calibration
child timed between invocations, so that drift in the machine's speed
cancels.  ``--trace 1`` reports the per-layer split from timing
wrappers installed in the child (see child.py), plus the tracing overhead.
The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload both ways and prints every metric.  README.md lists the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_PROBES = 5
PROBE_SHARE = 0.1
# one calibration child is short and noisy (about 10 % per spawn); two per
# repetition give the calibration about a third of the time
CALIBRATIONS_PER_REP = 2
WARMUP_REPS = 1  # checked like the rest, but left out of the timing medians
MIN_REPS = 2  # timed ones; the byte-identity check needs a second repetition
MIN_TRACED = 2  # the exact-count check needs a second traced repetition
HARD_LIMIT_S = 170.0  # one run must end within 180 s
COVERAGE_TOLERANCE = 0.10

# span name -> per-layer metric of its total time
LAYER_TIMES = {
    "config.parse_config": "config.parse_config.s",
    "datagen.build_problem": "datagen.build_problem.s",
    "datagen.load_problem": "datagen.load_problem.s",
    "engine.run": "engine.run.s",
    "problems.objective": "problems.objective.s",
    "problems.gradient": "problems.gradient.s",
    "problems.sample_gradients": "problems.sample_gradients.s",
    "linalg.spectral_norm": "linalg.spectral_norm.s",
    "linalg.rank_factorization": "linalg.rank_factorization.s",
    "optimum.certify": "optimum.certify.s",
    "optimum.attach_distances": "optimum.attach_distances.s",
    "diagnostics.diagnose": "diagnostics.diagnose.s",
    "diagnostics.aggregate_expectation": "diagnostics.aggregate_expectation.s",
    "diagnostics.check_ls_expected_bound": "diagnostics.check_ls_expected_bound.s",
    "cli.write_trajectory_csv": "cli.write_trajectory_csv.s",
}
M_ROW_CALLS = ("problems.objective", "problems.gradient", "problems.sample_gradients")
# traced figures that are exact counts and must repeat across repetitions
EXACT_LAYER_COUNTS = (
    "problems.objective.calls_per_step",
    "problems.gradient.calls_per_step",
    "problems.sample_gradients.calls_per_step",
    "problems.bytes_per_step",
    "optimum.attach_distances.calls",
)
UNITS = {
    "wall_rel": "ratio",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "engine.run.us_per_step": "us",
    "problems.bytes_per_step": "B/step",
    "optimum.attach_distances.calls": "count",
    "optimum.certify.iterations": "count",
    "cli.artifact_bytes": "B",
    "diagnostics.verify_fail_fraction": "fraction",
    "cli.unexplained_fail_seeds": "count",
    "trace.coverage": "fraction",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "calls/step" if name.endswith(".calls_per_step") else "s"


class Fatal(Exception):
    """The benchmark cannot run here at all; no result is printed."""


@dataclass
class Spawned:
    wall: float
    code: int
    max_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Rep:
    traced: bool
    spawned: Spawned
    outcome: wl.Outcome | None
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    """One benchmark run of one workload: inputs, children, checks."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int, seconds: float, started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = started
        self.work = root / ".perfbench_work" / f"{workload.name}-s{seed}-{os.getpid()}"
        self.data = self.work / "data.csv"
        self.config = self.work / "config.json"
        self.seeds = wl.run_seeds(workload, seed) if workload.command == "run" else []
        self.env = {k: v for k, v in os.environ.items() if k not in ("IGM_LAB_SEED", "PYTHONPATH")}
        self.env.update(THREAD_ENV, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reps: list[Rep] = []
        self.first_digests: dict[str, str] | None = None
        self.self_check_failed = False
        self.missing: list[str] = []
        self.sample_counts: dict[str, int] = {}

    # -- children ---------------------------------------------------------

    def spawn(self, args: list[str], timeout: float | None = None) -> Spawned:
        """Run ``child.py args`` to completion; wall time is spawn to reap."""
        if timeout is None:
            timeout = max(5.0, self.started + HARD_LIMIT_S - time.monotonic())
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            t0 = time.monotonic()
            argv = [sys.executable, str(CHILD)] + [a.replace("@T0", repr(t0)) for a in args]
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Spawned(
            wall, proc.returncode, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    # -- inputs -------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        info = self.spawn(["info"], timeout=60)
        if info.code != 0:
            raise Fatal(f"cannot import igm_lab from {self.root / 'src'}:\n{info.stderr}")
        self.info = json.loads(info.stdout)
        if not Path(self.info["igm_lab_file"]).resolve().is_relative_to((self.root / "src").resolve()):
            raise Fatal(f"igm_lab imported from {self.info['igm_lab_file']}, not from this tree")
        w = self.workload
        if w.command == "run":
            self.config.write_text(json.dumps(wl.config(w, self.seed), indent=1))
            spec = self.work / "spec.json"
            spec.write_text(json.dumps(wl.problem_spec(w, self.seed)))
            made = self.spawn(["cli", "@T0", "-", "--", "generate", "--spec", str(spec), "--out", str(self.data)])
            if made.code != 0:
                raise Fatal(f"igm-lab generate failed:\n{made.stderr}")
        else:
            wl.write_tall_logistic(self.data, self.seed, w.samples, w.features)
        features, labels = wl.load_csv(self.data)
        if features.shape != (w.samples, w.features):
            raise Fatal(f"input data has shape {features.shape}")
        self.reference = wl.Reference.build(features, labels, w.loss)

    # -- measured operations ---------------------------------------------------

    def probe(self) -> float | None:
        """Spawn to problem-in-memory, in a child that stops there."""
        if self.workload.command == "run":
            args = ["probe", "@T0", "run", str(self.config)]
        else:
            args = ["probe", "@T0", "certify", str(self.data), self.workload.loss]
        self.attempted += 1
        done = self.spawn(args)
        try:
            result = json.loads(done.stdout)
            if done.code == 0 and result["samples"] == self.workload.samples:
                return float(result["setup_s"])
        except (ValueError, KeyError, TypeError):
            pass
        self.fail(f"setup probe exited {done.code}: {done.stderr.strip()[-300:] or done.stdout.strip()[-300:]}")
        return None

    def calibrate(self) -> float:
        """Spawn to exit of the fixed reference child."""
        done = self.spawn(["calibrate", "@T0"])
        if done.code != 0:
            raise Fatal(f"the calibration child failed:\n{done.stderr}")
        return done.wall

    def invoke(self, traced: bool) -> Rep:
        k = len(self.reps)
        out_dir = self.work / f"rep{k}"
        out_dir.mkdir()
        spans = self.work / f"spans{k}.json"
        w = self.workload
        if w.command == "run":
            cli_args = ["run", "--config", str(self.config), "--out", str(out_dir)]
            target = out_dir
        else:
            target = out_dir / "certificate.json"
            cli_args = ["certify", "--data", str(self.data), "--loss", w.loss, "--out", str(target)]
        self.attempted += 1
        done = self.spawn(["cli", "@T0", str(spans) if traced else "-", "--"] + cli_args)
        rep = Rep(traced, done, None)
        self.reps.append(rep)
        if done.code not in w.exit_codes:
            self.fail(f"rep {k}: exit code {done.code}: {done.stderr.strip()[-300:]}")
            return rep
        outcome = wl.check_outputs(w, self.seeds, target, done.stdout, self.reference)
        rep.outcome = outcome
        if self.first_digests is None:
            self.first_digests = outcome.digests
        elif outcome.digests != self.first_digests:
            outcome.errors.append("artifacts differ from the first repetition")
        if outcome.errors:
            self.fail(f"rep {k}: " + "; ".join(outcome.errors[:5]))
        if traced:
            try:
                head, tail = spans.read_text().splitlines()
                trace = json.loads(head)
                trace["spans"].append(json.loads(tail))
                rep.layers = self.layers(trace, done.wall)
            except (OSError, ValueError) as exc:
                self.fail(f"rep {k}: unreadable spans ({exc})")
        shutil.rmtree(out_dir)
        return rep

    def layers(self, trace: dict, wall: float) -> dict[str, float]:
        """Per-layer figures of one traced invocation, from its spans."""
        spans = trace["spans"]
        name_of = {s[0]: s[2] for s in spans}
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children: dict[int, float] = defaultdict(float)
        in_run: dict[str, int] = defaultdict(int)
        for ident, parent, name, start, end in spans:
            total[name] += end - start
            calls[name] += 1
            children[parent] += end - start
            if name_of.get(parent) == "engine.run":
                in_run[name] += 1
        self_time: dict[str, float] = defaultdict(float)
        for ident, _, name, start, end in spans:
            self_time[name] += end - start - children[ident]
        missing = set(trace["missing"])
        w = self.workload
        steps = w.steps
        out = {metric: total[name] for name, metric in LAYER_TIMES.items() if name not in missing}
        if "engine.run" not in missing:
            out["engine.run.self_s"] = self_time["engine.run"]
            out["engine.run.us_per_step"] = total["engine.run"] / steps * 1e6 if steps else 0.0
        row_calls = 0
        for name in M_ROW_CALLS:
            if name not in missing:
                out[f"{name}.calls_per_step"] = in_run[name] / steps if steps else 0.0
                row_calls += in_run[name]
        if not missing.intersection(M_ROW_CALLS):
            # computed, not measured: one pass over the M x n float64 matrix per call
            out["problems.bytes_per_step"] = row_calls * w.samples * w.features * 8 / steps if steps else 0.0
        if "optimum.attach_distances" not in missing:
            out["optimum.attach_distances.calls"] = float(calls["optimum.attach_distances"])
        out["optimum.certify.self_s"] = self_time["optimum.certify"]
        out["cli.main.self_s"] = self_time["cli.main"]
        out["process.startup_s"] = total["process.startup"] + total["process.import"]
        out["trace.coverage"] = sum(self_time.values()) / wall
        self.missing = sorted(missing)
        return out

    # -- schedules --------------------------------------------------------------

    def budget_left(self, measure_start: float, estimate: float) -> bool:
        now = time.monotonic()
        return now + estimate <= measure_start + self.seconds and now + estimate <= self.started + HARD_LIMIT_S

    def measure(self, trace: bool) -> tuple[dict[str, float], dict[str, float]]:
        """The reported metrics, and figures printed beside them."""
        self.prepare()
        start = time.monotonic()
        if not trace:
            walls: list[float] = []
            calibrations: list[float] = []
            probes: list[float | None] = []
            probing = 0.0
            for _ in range(WARMUP_REPS):
                self.invoke(traced=False)
            while len(walls) < MIN_REPS or self.budget_left(
                start, statistics.median(walls) + CALIBRATIONS_PER_REP * statistics.median(calibrations)
            ):
                walls.append(self.invoke(traced=False).spawned.wall)
                calibrations += [self.calibrate() for _ in range(CALIBRATIONS_PER_REP)]
                # set-up probes take a fixed share of the time, spread between reps
                while len(probes) < MIN_PROBES or probing < PROBE_SHARE * (time.monotonic() - start):
                    before = time.monotonic()
                    probes.append(self.probe())
                    probing += time.monotonic() - before
            setups = [s for s in probes if s is not None]
            plain = self.reps[WARMUP_REPS:]
            wall, calibration = statistics.median(walls), statistics.median(calibrations)
            metrics = {
                "wall_rel": wall / calibration,
                "setup_s": statistics.median(setups) if setups else None,
                "peak_rss_mb": statistics.median(r.spawned.max_rss_mb for r in plain),
            }
            metrics = {k: v for k, v in metrics.items() if v is not None}
            self.sample_counts = {
                "wall_rel": len(walls), "wall_s": len(walls), "calibration_s": len(calibrations),
                "setup_s": len(setups), "peak_rss_mb": len(plain),
            }
            extras = {"wall_s": wall, "calibration_s": calibration, **self.finish_checks()}
            return metrics, extras
        # untraced first, then traced, alternating while the budget lasts
        plan = [False] + [True] * MIN_TRACED
        while plan or self.budget_left(start, self.estimate(not self.reps[-1].traced)):
            self.invoke(plan.pop(0) if plan else not self.reps[-1].traced)
        return {**self.per_layer(), **self.finish_checks()}, {}

    def estimate(self, traced: bool) -> float:
        return statistics.median(r.spawned.wall for r in self.reps if r.traced == traced)

    def per_layer(self) -> dict[str, float]:
        traced = [r for r in self.reps if r.traced and r.layers]
        plain = [r for r in self.reps if not r.traced]
        if not traced:
            return {}
        metrics = {}
        for name in traced[0].layers:
            metrics[name] = statistics.median(r.layers.get(name, float("nan")) for r in traced)
        traced_wall = statistics.median(r.spawned.wall for r in traced)
        plain_wall = statistics.median(r.spawned.wall for r in plain)
        metrics["process.wall_s"] = plain_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        for rep in traced:
            coverage = rep.layers["trace.coverage"]
            if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
                self.errors.append(f"self-check: layer self times cover {coverage:.3f} of the traced invocation time")
                self.self_check_failed = True
        return metrics

    def finish_checks(self) -> dict[str, float]:
        """Figures read from the artifacts, and the check that exact counts repeat."""
        checked = [r for r in self.reps if r.outcome is not None and not r.outcome.errors]
        counts: dict[str, set] = defaultdict(set)
        for rep in checked:
            counts["optimum.certify.iterations"].add(rep.outcome.certify_iterations)
            counts["cli.artifact_bytes"].add(rep.outcome.artifact_bytes)
            for name in EXACT_LAYER_COUNTS:
                if name in rep.layers:
                    counts[name].add(rep.layers[name])
        for name, values in counts.items():
            if len(values) > 1:
                self.errors.append(f"self-check: {name} differs across repetitions: {sorted(values)}")
                self.self_check_failed = True
        if not checked:
            return {}
        first = checked[0].outcome
        return {
            "optimum.certify.iterations": float(first.certify_iterations or 0),
            "cli.artifact_bytes": float(first.artifact_bytes),
            "diagnostics.verify_fail_fraction": first.seeds_failed / max(1, len(self.seeds)),
            "cli.unexplained_fail_seeds": float(first.seeds_unexplained),
        }


def provenance(root: Path, bench: Bench) -> dict:
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    git = {"sha": None, "dirty": None}
    # git must not look above the root: a checkout that is not a repository has no SHA
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
        if sha.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root, env=env,
                                   capture_output=True, text=True)
            git = {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except OSError:
        pass
    return {
        "git": git,
        "source_sha256": digest.hexdigest(),
        "python": bench.info["python"],
        "numpy": bench.info["numpy"],
        "blas": bench.info["blas"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_env": dict(THREAD_ENV, PYTHONHASHSEED="0"),
        "workload": bench.workload.name,
        "workload_seed": bench.seed,
        "run_seeds": bench.seeds,
    }


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool, started: float):
    bench = Bench(root, wl.WORKLOADS[name], seed, seconds, started)
    try:
        metrics, extras = bench.measure(trace)
        prov = provenance(root, bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    return bench, metrics, extras, prov


def report(bench: Bench, metrics: dict[str, float], extras: dict[str, float], prov: dict, prefix: str = "") -> None:
    for message in bench.errors:
        print(f"{prefix}{bench.workload.name}: {message}", file=sys.stderr)
    for name, value in {**metrics, **extras}.items():
        count = bench.sample_counts.get(name)
        suffix = f"  (median of {count})" if count else ""
        print(f"{prefix}{name} = {value:.6g} {unit_of(name)}{suffix}")
    attempted = max(bench.attempted, 1)
    print(f"{prefix}error_fraction = {bench.failed / attempted:.6g} ({bench.failed} of {bench.attempted} failed)")
    for name in bench.missing:
        print(f"{prefix}missing layer: {name} (no wrapper target found)")
    print(f"{prefix}provenance {json.dumps(prov, sort_keys=True)}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, float]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k.split("/")[-1])} for k, v in metrics.items()},
    })


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "igm_lab" / "cli.py").is_file():
        print(f"error: {root} holds no igm-lab source tree (src/igm_lab/cli.py)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            bench, metrics, extras, prov = run_one(root, args.workload, args.seed, args.seconds, bool(args.trace),
                                                   started)
            report(bench, metrics, extras, prov)
            correct = bench.failed == 0 and not bench.self_check_failed
            print(result_line(correct, max(bench.attempted, 1), bench.failed, metrics))
            return 0
        every: dict[str, float] = {}
        correct, attempted, failed = True, 0, 0
        for name in wl.WORKLOADS:
            for trace in (False, True):
                bench, metrics, extras, prov = run_one(root, name, args.seed, args.seconds, trace, time.monotonic())
                print(f"== {name} (trace {int(trace)})")
                report(bench, metrics, extras, prov, prefix="  ")
                correct &= bench.failed == 0 and not bench.self_check_failed
                attempted += bench.attempted
                failed += bench.failed
                every.update({f"{name}/{k}": v for k, v in {**metrics, **extras}.items()})
        print(result_line(correct, max(attempted, 1), failed, every))
        return 0
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
