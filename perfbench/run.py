"""fairlinreg benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole cycles of one workload (see workloads.py) for about S seconds,
closed loop from one process.  Each cycle runs one job serially, then the same
inputs with as many threads as the process may use cores, and checks every
output.  With ``--trace 1`` each cycle also runs the serial job a second
time with the package's public functions wrapped (tracing.py), requires
byte-identical outputs, and reports per-layer metrics instead of end-to-end
ones.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  BLAS is pinned to one thread so that sweep
threads never exceed the core count.  The last stdout line is the result
object; the line before it carries timing detail and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPEATS = 5

# A fresh interpreter imports the package and completes one small
# sample -> fit -> score trial.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import fairlinreg as F
p = F.ModelParams(d=2, M=2, beta=[[1.0, 0.0], [0.0, 1.0]], mu=[[0.0, 0.0], [0.5, 0.0]],
                  p=[0.5, 0.5], sigma_x=1.0, sigma_xi=1.0, B=1.5, U=1.0)
reg, _ = F.fit(F.sample_dataset(p, 1000, 0), 2, 2, 1)
F.analytic_excess_risk(reg, F.build_fdp(p))
"""

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "trials_per_s_mt": "1/s", "peak_rss_mb": "MB"}


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            out[f"p{pct:g}"] = ordered[min(n - 1, int(-(-pct * n // 100)) - 1)]
            break
    return out


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "sweep_threads": nproc,
        "loadavg_at_start": loadavg,
    }


def measure_setup() -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - start)
    return walls


class Run:
    """Counts, timings and failures of one benchmark run."""

    def __init__(self, workload, seed: int, workdir: Path, nproc: int):
        self.wl, self.seed, self.workdir, self.nproc = workload, seed, workdir, nproc
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.serial_s: list[float] = []
        self.serial_cpu_s: list[float] = []  # CPU time of the same jobs: busy, not waiting
        self.last_cpu_s = 0.0
        self.threaded_s: list[float] = []
        self.threaded_trials: list[int] = []
        self.traced_pairs: list[tuple[float, float]] = []  # (serial, traced) walls
        self.parts: dict[str, list[float]] = {}

    def _check(self, label: str, inp, out, reference: bytes | None) -> bytes | None:
        """Finish one job; count it and record why it failed, if it did."""
        self.attempted += 1
        try:
            blob, failures = self.wl.finish(inp, out)
        except Exception as exc:  # a broken job is a failed operation, not a crash
            blob, failures = None, [f"check raised {exc!r}"]
        if reference is not None and blob != reference:
            failures.append("output differs from the serial job's")
        if failures:
            self.failed += 1
            self.failures += [f"{label}: {f}" for f in failures]
        return blob

    def _timed(self, fn, *args):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out = fn(*args)
        except Exception as exc:
            return None, time.perf_counter() - start, exc
        self.last_cpu_s = time.process_time() - cpu
        return out, time.perf_counter() - start, None

    def warmup(self) -> None:
        """One small job first, so lazy set-up in numpy and scipy is not timed."""
        inp = self.wl.warmup_inputs(self.seed)
        out, _, exc = self._timed(self.wl.run, inp, self.workdir / "warmup")
        if exc is not None:
            self._fail(f"warm-up: raised {exc!r}")
        else:
            self._check("warm-up", inp, out, None)

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def cycle(self, k: int, tracer=None, extra=()) -> None:
        inp = self.wl.inputs(self.seed, k)
        out, wall, exc = self._timed(self.wl.run, inp, self.workdir / "serial")
        if exc is not None:
            self._fail(f"job {k}: raised {exc!r}")
            return
        serial_wall = wall
        self.serial_s.append(wall)
        self.serial_cpu_s.append(self.last_cpu_s)
        for name, value in getattr(self.wl, "parts", lambda o: {})(out).items():
            self.parts.setdefault(name, []).append(value)
        reference = self._check(f"job {k}", inp, out, None)

        outs, wall, exc = self._timed(self.wl.run_threaded, inp, self.workdir / "threaded", self.nproc)
        if exc is not None:
            self._fail(f"job {k} threaded: raised {exc!r}")
        else:
            self.threaded_s.append(wall)
            self.threaded_trials.append(len(outs) * self.wl.trials_per_job)
            for i, o in enumerate(outs):
                self._check(f"job {k} threaded {i}", inp, o, reference)

        if tracer is not None:
            with tracer.installed(extra):
                out, wall, exc = self._timed(self.wl.run, inp, self.workdir / "traced")
            if exc is not None:
                self._fail(f"job {k} traced: raised {exc!r}")
            else:
                self.traced_pairs.append((serial_wall, wall))
                self._check(f"job {k} traced", inp, out, reference)

    def trials_per_s(self) -> float:
        return self.wl.trials_per_job / statistics.median(self.serial_s)

    def trials_per_s_mt(self) -> float:
        return statistics.median(t / s for t, s in zip(self.threaded_trials, self.threaded_s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairlinreg" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS before numpy is first imported, here and in setup subprocesses.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(workloads.NPROC)
    setup = [] if args.trace else measure_setup()

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    run = Run(wl, args.seed, workdir, workloads.NPROC)
    tracer = tracing.Tracer() if args.trace else None
    extra = [("experiments.select_column", workloads, "analyse_sweep")]
    try:
        run.warmup()
        # Whole cycles only; stop where the run ends closest to --seconds.
        start = time.perf_counter()
        k = 0
        while True:
            begun = time.perf_counter()
            run.cycle(k, tracer, extra)
            k += 1
            now = time.perf_counter()
            if now - start + (now - begun) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print(failure, file=sys.stderr)
    if not run.serial_s or not run.threaded_s:
        print("error: no job completed, so nothing was measured", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "trials_per_job": wl.trials_per_job,
        "environment": env,
        "timings_s": {
            "serial_job": summarize(run.serial_s),
            "serial_job_cpu": summarize(run.serial_cpu_s),
            "threaded_batch": summarize(run.threaded_s),
            **({"setup": summarize(setup)} if setup else {}),
            **({"traced_job": summarize([t for _, t in run.traced_pairs])} if run.traced_pairs else {}),
            **{name: summarize(v) for name, v in run.parts.items()},
        },
        "failed_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures[:20],
    }
    if args.trace:
        pairs = run.traced_pairs
        values, absent = tracing.layer_metrics(tracer, max(len(pairs), 1))
        values["experiments.thread_speedup"] = run.trials_per_s_mt() / run.trials_per_s()
        values["trace_overhead_ratio"] = (
            sum(t for _, t in pairs) / sum(s for s, _ in pairs) if pairs else 0.0
        )
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        units.update({"experiments.thread_speedup": "ratio", "trace_overhead_ratio": "ratio"})
        detail["absent"] = absent
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "trials_per_s": run.trials_per_s(),
            "trials_per_s_mt": run.trials_per_s_mt(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
