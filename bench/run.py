"""Benchmark of the perplex package, driven from outside its code.

Run from the root of a checkout:

    python3 bench/run.py --workload fiber-field --seed 1 --seconds 15 --trace 0

Workloads: fiber-field, fiber-hyperbolic, fiber-2var, sweep, cli-cold
(BENCHMARK.json says why each exists).  A run is one closed-loop
client: set-up (import plus input generation, done in three fresh
processes and reported as the median), one untimed warm-up op, then one
whole pass over the seed's cases, going on in order until ``--seconds``
of op time have passed.  A pass is a fixed list of inputs and the
end-to-end times are taken from each case's median latency, every case
weighing the same, so every commit times the same mix whatever its
speed.  Every op is checked by the benchmark's own math before it
counts.  BLAS and OpenMP are pinned to one thread here and in every
child process.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` an untraced half-run is followed by a traced one and
the last line holds the per-layer metrics; the spans are written to
``.bench_out/spans-<workload>-<seed>.npz``.  The line before the last
holds the run's details: machine, op count, tail latency, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = ("fiber-field", "fiber-hyperbolic", "fiber-2var", "sweep", "cli-cold")
SETUP_REPEATS = 3
CLI_COMMANDS = (
    "validate", "classify", "mul", "inv", "norm", "conj", "pow", "conic", "gcr-check",
    "derive", "fit-linear", "approx-linear", "fit-quad", "approx-quad", "grad",
    "critical", "loja-scan",
)
IMPORTS = ("cli.interpreter_s", "cli.import_numpy_s", "cli.import_perplex_s", "cli.import.scipy_s")
# mean op time with and without the tracer, and their difference
TRACE = ("trace.op_ms", "trace.untraced_op_ms", "trace.overhead_ms")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def require_source() -> None:
    """Stop unless this checkout holds the package source."""
    if not (SRC / "perplex" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'perplex'}; run from a checkout")


def load_package():
    """Import the package from this checkout's src/, or stop."""
    require_source()
    sys.path.insert(0, str(SRC))
    import perplex

    if Path(perplex.__file__).resolve().parent != (SRC / "perplex").resolve():
        sys.exit(f"error: imported perplex from {perplex.__file__}, not from {SRC}")
    return perplex


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def make_workload(name: str):
    """(make_cases, run_op, check_op, warm_case) of a workload.

    ``warm_case(seed)`` gives the untimed warm-up op's case; where it is
    None the warm-up runs the first case.
    """
    if name == "cli-cold":
        import cli_cold

        env = child_env()

        def run_op(case, flags=()):
            argv = cli_cold.command(case)
            argv[1:1] = flags
            return cli_cold.run_child(argv, case.doc, env, ROOT, OUT)

        return cli_cold.make_cases, run_op, lambda case, res, rng: cli_cold.check(case, res), None
    import workloads

    wl = workloads.WORKLOADS[name]()
    return wl.make_cases, wl.run, wl.check, getattr(wl, "warm_case", None)


# ---------------------------------------------------------------------------
# set-up


def setup_only(args) -> None:
    """Child mode: time import plus input generation once, print it."""
    t0 = time.perf_counter()
    load_package()
    make_cases, *_ = make_workload(args.workload)
    make_cases(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args, importtime: bool) -> tuple[float, list[dict]]:
    """Median set-up time over fresh processes, and their import times."""
    import cli_cold

    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv += [__file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    times, imports = [], []
    for _ in range(SETUP_REPEATS):
        run = cli_cold.run_child(argv, "", child_env(), ROOT, OUT)
        if run.code != 0:
            sys.exit(f"error: set-up process exited {run.code}: {run.stderr[-500:]}")
        times.append(json.loads(run.stdout.splitlines()[-1])["setup_s"])
        imports.append(cli_cold.import_times(run.stderr))
    return statistics.median(times), imports


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Latencies and failures of a closed loop over the cases."""

    def __init__(self, keep_results: bool = False) -> None:
        self.keep_results = keep_results  # held results would count in this process's RSS
        self.latencies: list[float] = []
        self.by_case: dict[int, list[float]] = {}  # latencies of each case's correct ops
        self.done: list = []  # (case, result or None) of each correct op
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.busy = 0.0

    def one(self, index: int, case, run_op, check_op, rng) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run_op(case)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            self.busy += time.perf_counter() - t0
            self._fail(case, exc)
            return
        dt = time.perf_counter() - t0
        self.busy += dt
        try:
            check_op(case, result, rng)
        except Exception as exc:  # an oracle mismatch, or a result of the wrong shape
            self._fail(case, exc)
            return
        self.latencies.append(dt)
        self.by_case.setdefault(index, []).append(dt)
        self.done.append((case, result if self.keep_results else None))

    def _fail(self, case, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            label = getattr(case, "label", None) or getattr(case, "cmd", "?")
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def run(self, cases, run_op, check_op, rng, seconds: float) -> "Loop":
        """One whole pass over the cases, then on in order until ``seconds`` of op time."""
        i = 0
        while i < len(cases) or self.busy < seconds:
            self.one(i % len(cases), cases[i % len(cases)], run_op, check_op, rng)
            i += 1
        return self

    def case_medians(self) -> list[float]:
        """Each case's median latency, so every case weighs the same."""
        return [statistics.median(dts) for dts in self.by_case.values()]

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.case_medians()) if self.by_case else 0.0

    def ops_per_s(self) -> float:
        medians = self.case_medians()
        return len(medians) / sum(medians) if medians else 0.0

    def mean_ms(self) -> float:
        return 1e3 * statistics.fmean(self.latencies) if self.latencies else 0.0


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ms = 1e3 * sorted(latencies)[n - 11]
    return {"percentile": round(100.0 * (n - 10) / n, 2), "ms": ms, "ops": n}


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(loop: Loop, warm: Loop, setup_s: float, is_cli: bool) -> dict:
    if is_cli:  # the largest child's peak
        peak_kb = max((res.maxrss_kb for _, res in warm.done + loop.done), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (loop.p50_ms(), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(args, cases, run_op, check_op, rng, untraced: Loop, imports) -> tuple[dict, Loop]:
    """Traced pass after the untraced one; every per-layer metric."""
    import cli_cold
    import layers

    values = {name: 0.0 for name, _ in per_layer_names()}
    values["cli.interpreter_s"] = statistics.median(
        cli_cold.run_child([sys.executable, "-c", "pass"], "", child_env(), ROOT, OUT).wall_s
        for _ in range(SETUP_REPEATS)
    )
    if args.workload == "cli-cold":
        # every document once, each process under -X importtime
        traced = Loop(keep_results=True).run(
            cases, lambda case: run_op(case, ["-X", "importtime"]), check_op, rng, 0.0
        )
        imports = [cli_cold.import_times(res.stderr) for _, res in traced.done]
        for cmd in CLI_COMMANDS:
            walls = [dt for dt, (case, _) in zip(traced.latencies, traced.done) if case.cmd == cmd]
            if walls:
                values[f"cli.{cmd}.p50_ms"] = 1e3 * statistics.median(walls)
    else:
        import numpy as np
        import tracer as tr

        tracer = tr.Tracer()
        layers.install(tracer)
        try:
            traced = Loop().run(
                cases, lambda case: tracer.run_op(run_op, case), check_op, rng, args.seconds / 2
            )
        finally:
            tracer.uninstall()
        values.update(layers.metrics(tracer, max(1, len(traced.latencies))))
        np.savez_compressed(OUT / f"spans-{args.workload}-{args.seed}.npz", **tracer.arrays())
    for key, name in zip(("numpy", "perplex", "scipy"), IMPORTS[1:]):
        values[name] = statistics.median(rec[key] for rec in imports)
    values["trace.op_ms"] = traced.mean_ms()
    values["trace.untraced_op_ms"] = untraced.mean_ms()
    values["trace.overhead_ms"] = values["trace.op_ms"] - values["trace.untraced_op_ms"]
    units = dict(per_layer_names())
    return {name: (value, units[name]) for name, value in values.items()}, traced


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    import layers

    return (
        layers.metric_names()
        + [(name, "s") for name in IMPORTS]
        + [(f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS]
        + [(name, "ms") for name in TRACE]
    )


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.setup_only:
        setup_only(args)
        return 0
    require_source()
    OUT.mkdir(exist_ok=True)
    setup_s, imports = measure_setup(args, importtime=bool(args.trace))

    load_package()
    import numpy as np

    make_cases, run_op, check_op, warm_case = make_workload(args.workload)
    cases = make_cases(args.seed)
    rng = np.random.default_rng(args.seed + 7)

    is_cli = args.workload == "cli-cold"
    warm = Loop(keep_results=is_cli)
    warm.one(0, warm_case(args.seed) if warm_case else cases[0], run_op, check_op, rng)
    loops = [warm]
    if args.trace:
        untraced = Loop().run(cases, run_op, check_op, rng, args.seconds / 2)
        metrics, traced = per_layer(args, cases, run_op, check_op, rng, untraced, imports)
        loops += [untraced, traced]
        main_loop = untraced
    else:
        main_loop = Loop(keep_results=is_cli).run(cases, run_op, check_op, rng, args.seconds)
        loops.append(main_loop)
        metrics = end_to_end(main_loop, warm, setup_s, is_cli)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(main_loop.latencies),
        "op_tail": tail(main_loop.latencies),
        "fail_frac": failed / attempted,
        "failures": [msg for loop in loops for msg in loop.failures],
        "machine": machine(),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
