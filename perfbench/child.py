"""One benchmark child process: a setup probe, or one igm-lab CLI call.

    python3 child.py probe SPAWNED_AT run     CONFIG.json
    python3 child.py probe SPAWNED_AT certify DATA.csv LOSS
    python3 child.py calibrate SPAWNED_AT
    python3 child.py info
    python3 child.py cli   SPAWNED_AT SPANS.json|- -- <igm-lab arguments>

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn;
CLOCK_MONOTONIC is system-wide on Linux, so child and parent stamps
compare directly.

``probe`` imports the package, parses the config (or loads the CSV),
builds the problem, prints the time from spawn until the problem exists,
and exits.  ``cli`` calls ``igm_lab.cli.main`` and exits with its
code; with a spans path it first installs timing wrappers at the names
callers look up, keeps one span per call in memory, and writes them as
JSON when ``main`` returns (see ``Tracer.write``).  A span name none of
whose targets exists any more is listed under ``missing`` instead of
failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

CALIBRATION_ROUNDS = 10000
# (span name, module, attribute path); the module is the one whose
# namespace the caller looks the name up in
WRAPPED = (
    ("config.parse_config", "igm_lab.cli", "parse_config"),
    ("datagen.build_problem", "igm_lab.config", "ExperimentConfig.build_problem"),
    ("datagen.load_problem", "igm_lab.cli", "load_problem"),
    ("datagen.load_problem", "igm_lab.config", "load_problem"),
    ("engine.run", "igm_lab.cli", "run"),
    ("optimum.certify", "igm_lab.cli", "certify"),
    ("optimum.attach_distances", "igm_lab.cli", "attach_distances"),
    ("diagnostics.diagnose", "igm_lab.cli", "diagnose"),
    ("diagnostics.aggregate_expectation", "igm_lab.cli", "aggregate_expectation"),
    ("diagnostics.check_ls_expected_bound", "igm_lab.cli", "check_ls_expected_bound"),
    ("cli.write_trajectory_csv", "igm_lab.cli", "write_trajectory_csv"),
    ("linalg.rank_factorization", "igm_lab.optimum", "rank_factorization"),
    ("linalg.spectral_norm", "igm_lab.problems", "spectral_norm"),
    ("problems.objective", "igm_lab.problems", "ComposedProblem.objective"),
    ("problems.gradient", "igm_lab.problems", "ComposedProblem.gradient"),
    ("problems.sample_gradients", "igm_lab.problems", "ComposedProblem.sample_gradients"),
)


class Tracer:
    """Spans as (id, parent id, name, start, end) rows, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.missing: list[str] = []

    def add(self, name: str, start: float, end: float) -> None:
        """A top-level span timed by the caller."""
        self.spans.append([len(self.spans) + 1, 0, name, start, end])

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [len(self.spans) + 1, self.stack[-1], name, time.monotonic(), None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[4] = time.monotonic()

        return timed

    def install(self) -> None:
        import importlib

        installed = set()
        for name, module_name, path in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except AttributeError:
                continue
            setattr(owner, attr, self.wrap(name, target))
            installed.add(name)
        # a span name is missing only when none of its wrappers went in
        self.missing = sorted({name for name, _, _ in WRAPPED} - installed)

    def write(self, path: str) -> None:
        """Spans on the first line; the second holds the span of writing them."""
        start = time.monotonic()
        with open(path, "w") as handle:
            handle.write(json.dumps({"spans": self.spans, "missing": self.missing}, separators=(",", ":")))
            handle.write("\n")
            handle.flush()
            handle.write(json.dumps([len(self.spans) + 1, 0, "trace.write", start, time.monotonic()]) + "\n")


def probe(spawned_at: float, kind: str, args: list[str]) -> None:
    import igm_lab.cli  # noqa: F401  (the import the CLI entry point pays)

    if kind == "run":
        from igm_lab.config import parse_config

        with open(args[0]) as handle:
            problem = parse_config(json.load(handle)).build_problem()
    else:
        from igm_lab.datagen import load_problem

        problem = load_problem(args[0], args[1])
    ready = time.monotonic()
    print(json.dumps({"setup_s": ready - spawned_at, "samples": problem.n_samples}))


def calibrate(spawned_at: float) -> None:
    """A fixed amount of work that never touches igm_lab: the kinds of work
    the CLI does (imports, small-matrix numpy steps, Python bookkeeping,
    passes over a tall matrix), so that it slows down with the machine."""
    import numpy as np

    rng = np.random.default_rng(20240917)
    small = rng.standard_normal((200, 10))
    tall = rng.standard_normal((20000, 5))
    labels = np.sign(small @ rng.standard_normal(10))
    x, y, total = np.zeros(10), np.zeros(5), 0.0
    for k in range(CALIBRATION_ROUNDS):
        u = labels * (small @ x)
        x -= 0.1 * (small.T @ (-labels / (1.0 + np.exp(u)))) / 200
        row = {"k": k, "f": float(u[k % 200])}
        total += row["f"] * 1e-9 + len(str(k))
        if k % 16 == 0:
            y -= 1e-6 * (tall.T @ (tall @ y - 1.0))
    total += float(x.sum() + y.sum())
    print(json.dumps({"calibration_s": time.monotonic() - spawned_at, "checksum": total}))


def info() -> None:
    import platform

    import numpy

    import igm_lab.cli  # also warms the bytecode cache

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "igm_lab_file": igm_lab.__file__,
    }))


def cli(spawned_at: float, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer() if spans_path != "-" else None
    started = time.monotonic()
    import igm_lab.cli

    imported = time.monotonic()
    if tracer is None:
        return igm_lab.cli.main(argv)
    tracer.install()
    tracer.add("process.startup", spawned_at, started)
    tracer.add("process.import", started, imported)
    tracer.add("trace.install", imported, time.monotonic())
    main = tracer.wrap("cli.main", igm_lab.cli.main)
    try:
        return main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "info":
        info()
    elif mode == "calibrate":
        calibrate(float(sys.argv[2]))
    elif mode == "probe":
        probe(float(sys.argv[2]), sys.argv[3], sys.argv[4:])
    elif mode == "cli" and sys.argv[4] == "--":
        sys.exit(cli(float(sys.argv[2]), sys.argv[3], sys.argv[5:]))
    else:
        sys.exit(f"usage: {__doc__}")
