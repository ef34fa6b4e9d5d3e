"""Command-line entry point.

Subcommands: generate (params JSON -> dataset CSV), fit (dataset CSV ->
regressor JSON), evaluate (regressor + params -> metrics JSON), sweep
(config JSON -> results CSV), lower-bound (sandwich table CSV), diagnose
(oracle self-check suites CSV).  Exit codes: 0 success, 2 input or
configuration error, 3 numerical failure; the error's class alone sets the
code (see ``errors``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FairRegressionError, ParameterError
from .eigdiag import min_eig_tail_check
from .estimator import fit
from .experiments import SweepConfig, run_lower_bound_report, run_sweep
from .lower_bound import build_family, kl_conditional, kl_conditional_sample
from .metrics import GaussianLaw1D, unfairness, w2_empirical, w2_gaussian
from .model import (
    Dataset,
    GroupAffineRegressor,
    ModelParams,
    _check_model,
    from_dict,
    sample_dataset,
    to_dict,
)
from .oracle import analytic_excess_risk, build_fdp


def _load_params(path: str) -> ModelParams:
    return _check_model(ModelParams.from_json(Path(path).read_text()), n=1)


def _cmd_generate(args) -> None:
    params = _load_params(args.params)
    data = sample_dataset(params, args.n, args.seed)
    data.to_csv(args.out)


def _cmd_fit(args) -> None:
    data = Dataset.from_csv(args.data, M=args.M)
    regressor, estimates = fit(data, args.d, args.M, args.seed)
    payload = {"regressor": to_dict(regressor), "estimates": to_dict(estimates)}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_evaluate(args) -> None:
    params = _load_params(args.params)
    # a ``fit`` payload or a bare {"w": ..., "b": ...} object
    obj = json.loads(Path(args.regressor).read_text())
    if isinstance(obj, dict) and "regressor" in obj:
        obj = obj["regressor"]
    regressor = from_dict(GroupAffineRegressor, obj)
    oracle = build_fdp(params)
    payload = {
        "excess_risk": analytic_excess_risk(regressor, oracle),
        "unfairness": to_dict(unfairness(regressor, params)),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_sweep(args) -> None:
    config = SweepConfig.from_json(Path(args.config).read_text())
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    config = dataclasses.replace(config, **overrides)
    if config.out is None:
        raise ConfigError("no output path: set 'out' in the config or pass --out")
    run_sweep(config, threads=args.threads)


def _cmd_lower_bound(args) -> None:
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok]
    except ValueError:
        n_grid = []
    if not n_grid:
        raise ConfigError("--n-grid must be a comma-separated list of ints")
    run_lower_bound_report(
        d=args.d,
        M=args.M,
        n_grid=n_grid,
        B_s=args.B,
        sigma_x=1.0,
        sigma_xi=1.0,
        seed=args.seed,
        trials=args.trials,
        out=args.out,
    )


def _diagnose_rows(seed: int) -> list[list]:
    rows = []
    tail = min_eig_tail_check(
        mu=np.zeros(2), sigma_x=1.0, d=2, n=60,
        t_grid=[1e-12, 0.5], reps=2000, seed=seed,
    )
    for row in tail:
        ok = row.vacuous or row.empirical_tail <= row.bound
        rows.append(["eig", f"tail_t={row.t:g}", row.empirical_tail, row.bound, int(ok)])

    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(100_000)
    ys = rng.standard_normal(100_000)
    ys += 1.0
    emp = w2_empirical(xs, ys)
    del xs, ys  # freed before the sampled KL draws
    ana = w2_gaussian(GaussianLaw1D(0.0, 1.0), GaussianLaw1D(1.0, 1.0))
    rows.append(["w2", "empirical_vs_gaussian", emp, ana, int(abs(emp - ana) < 0.02)])

    family = build_family(5, 2, [1.0, 1.0], [0.3, 0.3])
    v = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
    w = -v
    p = np.full(2, 0.5)
    theta = family.params_of(v, p, 1.0, 1.0)
    theta_prime = family.params_of(w, p, 1.0, 1.0)
    n_counts = [50, 50]
    exact = kl_conditional(theta, theta_prime, n_counts)
    est, se = kl_conditional_sample(theta, theta_prime, n_counts, 100_000, seed)
    rows.append(["kl", "closed_vs_sample", est, exact, int(abs(est - exact) <= 5 * se)])
    return rows


def _cmd_diagnose(args) -> None:
    rows = _diagnose_rows(args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "name", "value", "reference", "ok"])
        for suite, name, value, reference, ok in rows:
            writer.writerow([suite, name, f"{value:.17g}", f"{reference:.17g}", ok])
    if any(not row[4] for row in rows):
        raise FairRegressionError("one or more diagnostic checks failed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so every ``main`` call in a process,
    from any thread, can use the same one.
    """
    parser = argparse.ArgumentParser(
        prog="fairlinreg",
        description="Fair linear regression under demographic parity: "
        "data generation, estimation, metrics, and rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a dataset CSV from params JSON")
    gen.add_argument("--params", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    fit_p = sub.add_parser("fit", help="fit the plugin estimator on a dataset CSV")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--d", type=int, required=True)
    fit_p.add_argument("--M", type=int, required=True)
    fit_p.add_argument("--seed", type=int, default=0)
    fit_p.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="score a regressor JSON against params JSON")
    ev.add_argument("--regressor", required=True)
    ev.add_argument("--params", required=True)
    ev.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="run a seeded Monte Carlo sweep from config JSON")
    sw.add_argument("--config", required=True)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument(
        "--threads", type=int, default=1,
        help="worker threads (default 1: the calling thread runs the jobs). Jobs hold "
        "the GIL between numpy calls, so only large-d grids gain: on 2 cores, 2 threads "
        "ran n=64000 d=33 M=8 1.76x as fast as 1, and n <= 16000 d <= 5 at 0.51x",
    )
    sw.add_argument("--out", default=None)

    lb = sub.add_parser("lower-bound", help="emit the lower-vs-upper sandwich table")
    lb.add_argument("--d", type=int, required=True)
    lb.add_argument("--M", type=int, required=True)
    lb.add_argument("--n-grid", required=True)
    lb.add_argument("--B", type=float, default=1.0)
    lb.add_argument("--seed", type=int, default=0)
    lb.add_argument("--trials", type=int, default=50)
    lb.add_argument("--out", required=True)

    dg = sub.add_parser("diagnose", help="run eigenvalue/W2/KL oracle self-checks")
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # looked up on each call, not bound into the shared parser
        globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (
        ConfigError, ParameterError, DimensionError,
        OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (FairRegressionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
