"""The benchmark's three workloads, run through fairlinreg's public API.

A job is one unit of user work: a sweep, a lower-bound report, or a CLI
session.  ``run`` is the timed part; ``finish`` runs after the clock stops,
turns the job's outputs into bytes (compared across serial, threaded and
traced runs) and lists failed correctness checks.  Inputs come only from
the benchmark seed and the job index.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import fairlinreg
from fairlinreg import cli
from fairlinreg.experiments import LOWER_BOUND_SCHEMA

NPROC = len(os.sched_getaffinity(0))


def job_seed(seed: int, k: int) -> int:
    """A 32-bit seed for job k of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def analyse_sweep(result) -> str:
    """The acceptance-style analysis: per-cell means via select(...).column(...)."""
    cells = sorted({(row[0], row[1], row[2]) for row in result.rows})
    lines = []
    for n, d, M in cells:
        cell = result.select(n=n, d=d, M=M)
        risk = cell.column("excess_risk").mean()
        w2 = cell.column("w2_unfairness").mean()
        lines.append(f"{n},{d},{M},{risk!r},{w2!r}")
    return "\n".join(lines) + "\n"


class Sweep:
    """``run_sweep`` on a fixed grid; the threaded job uses run_sweep's threads."""

    def __init__(self, n_grid, d_grid, M_grid, trials: int):
        self.grid = dict(n_grid=n_grid, d_grid=d_grid, M_grid=M_grid)
        self.trials = trials
        self.trials_per_job = len(n_grid) * len(d_grid) * len(M_grid) * trials

    def inputs(self, seed: int, k: int):
        return fairlinreg.SweepConfig(**self.grid, trials=self.trials, seed=job_seed(seed, k))

    def warmup_inputs(self, seed: int):
        return fairlinreg.SweepConfig(
            n_grid=self.grid["n_grid"][:1], d_grid=self.grid["d_grid"][:1],
            M_grid=self.grid["M_grid"][:1], trials=1, seed=seed,
        )

    def run(self, config, workdir: Path, threads: int = 1):
        result = fairlinreg.run_sweep(config, threads=threads)
        return result, result.to_csv_text(), analyse_sweep(result)

    def run_threaded(self, config, workdir: Path, threads: int) -> list:
        return [self.run(config, workdir, threads)]

    def finish(self, config, out) -> tuple[bytes, list[str]]:
        result, text, analysis = out
        failures = []
        numeric = np.array([row[5:] for row in result.rows], dtype=float)
        expected = len(config.n_grid) * len(config.d_grid) * len(config.M_grid) * config.trials
        if len(result.rows) != expected:
            failures.append(f"{len(result.rows)} rows, expected {expected}")
        if not np.all(np.isfinite(numeric)):
            failures.append("non-finite value in a sweep row")
        margin = result.column("d2_margin")
        if np.any(margin < -1e-9):
            failures.append(f"d2_margin {margin.min()!r} < -1e-9")
        return (text + analysis).encode(), failures


class LowerBound:
    """``run_lower_bound_report`` at d=9, M=4 on the two ends of the acceptance-09 ladder.

    Smaller than acceptance-09 (2 of its 5 n, 10 of its 50 trials, a code
    budget of 300 rather than 2000) so that one run holds enough reports for a
    steady median on a shared host.
    """

    N_GRID = (2000, 32000)
    TRIALS = 10
    CODE_BUDGET = 300

    trials_per_job = len(N_GRID) * TRIALS

    def inputs(self, seed: int, k: int):
        return dict(
            d=9, M=4, n_grid=self.N_GRID, B_s=1.0, sigma_x=1.0, sigma_xi=1.0,
            seed=job_seed(seed, k), trials=self.TRIALS, code_budget=self.CODE_BUDGET,
        )

    def warmup_inputs(self, seed: int):
        return dict(self.inputs(seed, 0), n_grid=(2000,), trials=2, code_budget=50)

    def run(self, kwargs, workdir: Path):
        return fairlinreg.run_lower_bound_report(**kwargs)

    def run_threaded(self, kwargs, workdir: Path, threads: int) -> list:
        return _concurrent(self.run, kwargs, workdir, threads)

    def finish(self, kwargs, result) -> tuple[bytes, list[str]]:
        failures = []
        if len(result.rows) != len(kwargs["n_grid"]):
            failures.append(f"{len(result.rows)} rows, expected {len(kwargs['n_grid'])}")
        fano = result.column("fano_value")
        bound = result.column("est_risk_mean") + 4.0 * result.column("est_risk_se")
        for n, f, b in zip(result.column("n"), fano, bound):
            if not f <= b:
                failures.append(f"n={n:g}: fano_value {f!r} > est_risk_mean + 4 se {b!r}")
        if np.any(result.column("K") < 2):
            failures.append("fewer than 2 codewords")
        return result.to_csv_text(schema=LOWER_BOUND_SCHEMA).encode(), failures


class CliPipeline:
    """In-process ``fairlinreg.cli.main``: generate, fit, evaluate, diagnose.

    n=25000 keeps the CSV row loops the larger part of a session while one
    run still holds enough sessions for a steady median on a shared host.
    """

    N, D, M = 25_000, 5, 3
    OUTPUTS = ("data.csv", "regressor.json", "metrics.json", "diagnostics.csv")

    trials_per_job = 1  # one sample -> fit -> score pass per session

    def inputs(self, seed: int, k: int):
        s = job_seed(seed, k)
        rng = np.random.default_rng(s)
        params = fairlinreg.random_valid_params(self.D, self.M, 1.5, 1.0, 1.0, 1.0, rng)
        return dict(params=params, n=self.N, gen_seed=s, fit_seed=s + 1, diag_seed=s + 2)

    def warmup_inputs(self, seed: int):
        return dict(self.inputs(seed, 0), n=2000)

    def run(self, inp, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        params_path = workdir / "params.json"
        params_path.write_text(inp["params"].to_json())
        data, reg, met, diag = (str(workdir / name) for name in self.OUTPUTS)
        argvs = [
            ["generate", "--params", str(params_path), "--n", str(inp["n"]),
             "--seed", str(inp["gen_seed"]), "--out", data],
            ["fit", "--data", data, "--d", str(self.D), "--M", str(self.M),
             "--seed", str(inp["fit_seed"]), "--out", reg],
            ["evaluate", "--regressor", reg, "--params", str(params_path), "--out", met],
            ["diagnose", "--seed", str(inp["diag_seed"]), "--out", diag],
        ]
        codes, walls = [], []
        for argv in argvs:
            start = time.perf_counter()
            codes.append(cli.main(argv))
            walls.append(time.perf_counter() - start)
        return workdir, codes, walls

    def parts(self, out) -> dict[str, float]:
        """The session's wall split as the user sees it: pipeline, then diagnose."""
        walls = out[2]
        return {"cli_pipeline_s": sum(walls[:3]), "cli_diagnose_s": walls[3]}

    def run_threaded(self, inp, workdir: Path, threads: int) -> list:
        return _concurrent(self.run, inp, workdir, threads)

    def finish(self, inp, out) -> tuple[bytes, list[str]]:
        workdir, codes, _ = out
        failures = [f"exit code {c} from {cmd}" for c, cmd in
                    zip(codes, ("generate", "fit", "evaluate", "diagnose")) if c != 0]
        if failures:
            return b"", failures
        blob = b"".join(name.encode() + b"\n" + (workdir / name).read_bytes()
                        for name in self.OUTPUTS)
        with open(workdir / "diagnostics.csv", newline="") as fh:
            bad = [row["name"] for row in csv.DictReader(fh) if row["ok"] != "1"]
        failures += [f"diagnose check {name} not ok" for name in bad]
        # The CSV round trip must not change the fit: compare with an in-memory fit.
        data = fairlinreg.sample_dataset(inp["params"], inp["n"], inp["gen_seed"])
        reg, _ = fairlinreg.fit(data, self.D, self.M, inp["fit_seed"])
        saved = json.loads((workdir / "regressor.json").read_text())["regressor"]
        if not (np.array_equal(reg.w, saved["w"]) and np.array_equal(reg.b, saved["b"])):
            failures.append("fit on the CSV read back differs from the in-memory fit")
        return blob, failures


def _concurrent(run, inp, workdir: Path, threads: int) -> list:
    """``threads`` copies of one job at once, each in its own directory."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run, inp, workdir / f"t{i}") for i in range(threads)]
        return [f.result() for f in futures]


WORKLOADS = {
    "sweep_ladder": Sweep((16000, 32000, 64000), (5,), (3,), trials=8),
    "lower_bound": LowerBound(),
    "cli_pipeline": CliPipeline(),
}
