"""Seeded Monte Carlo sweeps, rate-slope estimation, and report assembly.

Sweeps iterate a (n, d, M) grid, fit the plugin estimator on freshly
drawn cell statistics per trial, and record analytic excess risk, unfairness
scores, and the per-component error terms whose individual 1/n rates
drive the overall bound.  Each trial draws from its own seed sequences,
whose generators a job builds in one ``_streams`` call; after the draws, a
job's trials (up to ``TRIAL_BATCH`` rows of consecutive cells that share
(d, M)) are fitted and scored as one batch whose arithmetic per trial does
not depend on the batch, so results are byte-identical regardless of batch
size and worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError
from .estimator import ComponentEstimates, _fit_cells, _sample_cells
from .estimator import fit  # noqa: F401  unused here; perfbench's tracer test patches this alias
from .lower_bound import _fano_ladder, fano_value
from .metrics import UnfairnessReport, _unfairness
from .model import (
    ModelParams,
    _as_batch,
    _check_int,
    _check_model,
    _check_real,
    _check_seed,
    _dot,
    _ModelStack,
    _norm,
    _report,
    _rowdot,
    _streams,
    _violations,
    from_dict,
)
from .oracle import _fair, _l2_distance

SWEEP_SCHEMA = "fairlinreg-sweep-3"
LOWER_BOUND_SCHEMA = "fairlinreg-lower-bound-2"

# Most trials fitted and scored as one batch: a sweep or lower-bound job is one
# batch of the rows of consecutive cells that share (d, M).  A trial's arithmetic does
# not depend on its batch, so neither do the outputs; the bound caps a
# batch's memory.
TRIAL_BATCH = 64


@dataclass(frozen=True)
class SweepConfig:
    """Grid, trial count, and generation targets for one sweep run."""

    n_grid: tuple
    d_grid: tuple
    M_grid: tuple
    trials: int
    seed: int
    B: float = 1.5
    U: float = 1.0
    sigma_x: float = 1.0
    sigma_xi: float = 1.0
    delta: float = 0.1
    out: str | None = None

    def __post_init__(self):
        for name in ("n_grid", "d_grid", "M_grid"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and values):
                raise ConfigError(f"{name} must be a nonempty list of ints")
            values = tuple(_check_int(v, f"each {name} value", 1, ConfigError) for v in values)
            object.__setattr__(self, name, values)
        for name, check, rule in (
            ("trials", _check_int, 1), ("seed", _check_int, 0), ("B", _check_real, "> 0"),
            ("U", _check_real, "> 0"), ("sigma_x", _check_real, "> 0"),
            ("sigma_xi", _check_real, ">= 0"), ("delta", _check_real, ""),
        ):
            object.__setattr__(self, name, check(getattr(self, name), name, rule, ConfigError))
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a nonempty path string, got {self.out!r}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return from_dict(cls, text)


def random_valid_params(
    d: int, M: int, B: float, U: float, sigma_x: float, sigma_xi: float, rng
) -> ModelParams:
    """Draw a random model satisfying every constraint.

    Directions are uniform on the sphere, norms log-uniform in [B/r, B]
    with r = min(4, B^2), and means uniform in the U-ball.  Group
    probabilities are balanced, and on that range the norm-diversity factor
    stays below B^2 (at most about 3.43 at r = 4, about 1 + 3 (B - 1)^2 as
    B -> 1), so every draw meets the bound.  At B = 1 the range is the
    single point 1, every norm is exactly 1 and the factor is 1, for any M.
    B < 1 admits no norms and is a ConfigError before any draw.  This is
    ``_draw_models`` on one generator.
    """
    models = _draw_models(d, M, B, U, sigma_x, sigma_xi, [rng])
    return ModelParams(
        d=d, M=M, beta=models.beta[0], mu=models.mu[0], p=models.p[0],
        sigma_x=sigma_x, sigma_xi=sigma_xi, B=B, U=U,
    )


def _draw_models(
    d: int, M: int, B: float, U: float, sigma_x: float, sigma_xi: float, rngs: list
) -> _ModelStack:
    """``random_valid_params`` on each generator, checked and stacked as one batch.

    Each generator draws its norms, directions, mean directions and radii
    in turn, once each, so a model depends only on its own generator; the
    arithmetic after the draws is elementwise or per row.  ``_violations``
    checks every constraint of the batch, and a model that fails one is a
    ConfigError.
    """
    if B < 1.0:
        raise ConfigError(
            f"B={B!r} leaves no valid norms: the norm-diversity factor of "
            "balanced groups must be <= B^2 but is at least 1"
        )
    T = len(rngs)
    p = np.full(M, 1.0 / M)
    log_range = (math.log(B / min(4.0, B * B)), math.log(B))
    norms = np.empty((T, M))
    normals = np.empty((T, 2, M, d))  # each model's directions, then its mean directions
    uniforms = np.empty((T, M))
    for t, rng in enumerate(rngs):
        norms[t] = np.exp(rng.uniform(*log_range, size=M))
        rng.standard_normal(out=normals[t])
        rng.random(out=uniforms[t])
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    beta = norms[..., None] * normals[:, 0]
    radii = U * uniforms ** (1.0 / d)
    models = _ModelStack(
        beta=beta,
        mu=radii[..., None] * normals[:, 1],
        p=np.tile(p, (T, 1)),
        sigma_x=np.full(T, sigma_x, dtype=float),
        sigma_xi=np.full(T, sigma_xi, dtype=float),
        B=np.full(T, B, dtype=float),
        U=np.full(T, U, dtype=float),
        norms=_norm(beta),
    )
    violations = _violations(models)
    bad = np.flatnonzero(np.any([violated for violated, _, _ in violations], axis=0))
    if bad.size:
        raise ConfigError("generated invalid params: " + "; ".join(_report(violations, bad[0])))
    return models


def _mean_leak(models: _ModelStack, estimates: ComponentEstimates) -> np.ndarray:
    """Per group, <dir_hat_s, mu_s - mu_hat_s>: the mean-estimation error on the slope."""
    return _rowdot(estimates.dir_hat, models.mu - estimates.mu_hat)


def _component_errors(models: _ModelStack, estimates: ComponentEstimates) -> dict[str, np.ndarray]:
    """``component_errors`` of T trials as one batch: each value has one entry per trial."""
    norms = models.norms
    bar_norm = _dot(models.p, norms)
    directions = models.beta / norms[..., None]
    diff = estimates.dir_hat - directions
    p_hat = estimates.p_hat
    return {
        "e_mean": _dot(models.p, _mean_leak(models, estimates) ** 2),
        "e_norm": np.square(estimates.norm_hat_bar - bar_norm),
        "e_coef": _dot(models.p, _rowdot(diff, diff)),
        "e_coef_prime": np.square(
            _dot(p_hat, _rowdot(estimates.beta_prime_hat - models.beta, estimates.mu_prime_hat))
        ),
        "e_mean_prime": np.square(
            _dot(p_hat, _rowdot(models.beta, estimates.mu_prime_hat - models.mu))
        ),
        "e_prob": np.square(_dot(p_hat - models.p, _rowdot(models.beta, models.mu))),
    }


def component_errors(
    params: ModelParams, estimates: ComponentEstimates
) -> dict[str, float]:
    """The six per-component squared error terms, each against its true target."""
    errors = _component_errors(_ModelStack.of([params]), _as_batch(estimates))
    return {name: float(value[0]) for name, value in errors.items()}


def _parity_gap_margin(
    report: UnfairnessReport, estimates: ComponentEstimates, models: _ModelStack
) -> np.ndarray:
    """``parity_gap_margin`` of T trials as one batch."""
    leaks = np.abs(_mean_leak(models, estimates))
    bound = (2.0 * models.B)[:, None, None] * np.maximum(leaks[:, :, None], leaks[:, None, :])
    s, t = np.triu_indices(leaks.shape[1], k=1)
    return (bound - report.pairwise)[:, s, t].min(axis=1, initial=math.inf)


def parity_gap_margin(
    report: UnfairnessReport,
    estimates: ComponentEstimates,
    params: ModelParams,
) -> float:
    """Slack in the fitted-regressor parity bound, minimized over group pairs.

    For every pair (s, s'), the W2 distance between the fitted regressor's
    conditional laws (``report.pairwise``) is bounded by 2B times the worse
    mean-estimation leak |<dir_hat_s, mu_s - mu_hat_s>|.  Returns min over
    pairs of bound - W2 (inf when M = 1); nonnegative (up to float slack)
    means the inequality holds everywhere.
    """
    batch = (_as_batch(report), _as_batch(estimates), _ModelStack.of([params]))
    return float(_parity_gap_margin(*batch)[0])


def undersampled(n: int, d: int, M: int, p_min: float, delta: float) -> bool:
    """Whether n falls below the estimator's sample-size hypothesis."""
    return n < 12.0 * max(3 * d, 4.0 * math.log(M / delta)) / p_min


def _jobs(cells: list[tuple], trials: int) -> list[list[tuple]]:
    """A sweep's (cell_idx, trial) rows, in CSV order, cut into jobs.

    A job holds at most ``TRIAL_BATCH`` rows, and a new job starts where (d, M) changes.
    """
    jobs = []
    for _, run in itertools.groupby(range(len(cells)), key=lambda cell_idx: cells[cell_idx][1:]):
        rows = [(cell_idx, trial) for cell_idx in run for trial in range(trials)]
        jobs += [rows[at:at + TRIAL_BATCH] for at in range(0, len(rows), TRIAL_BATCH)]
    return jobs


def _fit_job(seed: int, cells: list[tuple], rows: list[tuple], models_of) -> tuple:
    """One job's trials as one batch: draw cell statistics, fit them, score the fits.

    Row (cell_idx, trial) of ``rows`` (their ``cells`` share (d, M)) draws its
    n's cell statistics, as ``sample_cell_stats`` does, from stream (cell_idx,
    trial, 1).  ``models_of`` maps an iterator of the rows' stream-(cell_idx,
    trial, 0) generators, each built as it is taken, to the job's ``_ModelStack``.
    Returns each row's n, the models, excess risks, w, b and estimates.
    """
    ns = np.array([cells[cell_idx][0] for cell_idx, _ in rows])
    rngs = _streams(seed, [(*row, half) for half in (1, 0) for row in rows])
    cell_rngs = list(itertools.islice(rngs, len(rows)))
    models = models_of(rngs)
    w, b, estimates = _fit_cells(*_sample_cells(models, ns, cell_rngs))
    _, _, oracle_w, oracle_b = _fair(models)
    return ns, models, _l2_distance(w - oracle_w, b - oracle_b, models), w, b, estimates


def _run_trial(config: SweepConfig, cells: list[tuple], rows: list[tuple]) -> dict:
    """One sweep job: its rows, as columns in CSV order.

    ``_fit_job`` with ``_draw_models`` as the model source, then scored.
    """
    _, d, M = cells[rows[0][0]]
    T = len(rows)
    params = (d, M, config.B, config.U, config.sigma_x, config.sigma_xi)
    # Squared errors of coefficients above ~1e154 exceed the float range and read inf.
    with np.errstate(over="ignore"):
        ns, stack, risk, w, b, estimates = _fit_job(
            config.seed, cells, rows, lambda rngs: _draw_models(*params, list(rngs))
        )
        report = _unfairness(w, b, stack)
        flags = [
            undersampled(n, d, M, p_min, config.delta)
            for n, p_min in zip(ns.tolist(), stack.p.min(axis=1).tolist())
        ]
        return {
            "n": ns, "d": np.full(T, d), "M": np.full(T, M),
            "B": np.full(T, config.B), "trial": np.array([trial for _, trial in rows]),
            "excess_risk": risk,
            "w2_unfairness": report.w2_max,
            "kol_unfairness": report.kol_max,
            **_component_errors(stack, estimates),
            "d2_margin": _parity_gap_margin(report, estimates, stack),
            "undersampled": np.array(flags, dtype=int),
        }


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A results table: ``data`` maps each column, in CSV order, to one array.

    Int columns stay ints, so ``rows`` and the CSV print them as written.
    """

    data: dict[str, np.ndarray]

    @classmethod
    def from_records(cls, records: list[dict]) -> "SweepResult":
        """The table of dicts with the same keys in the same order.

        Each dict holds one row's values or, as arrays, a block of rows.
        """
        return cls(
            {name: np.concatenate([np.atleast_1d(r[name]) for r in records]) for name in records[0]}
        )

    @property
    def columns(self) -> list[str]:
        return list(self.data)

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*(a.tolist() for a in self.data.values()))]

    def column(self, name: str) -> np.ndarray:
        """A float copy of one column."""
        return self.data[name].astype(float)

    def select(self, **filters) -> "SweepResult":
        """The rows whose every named column equals the given value."""
        keep = np.ones(len(next(iter(self.data.values()))), dtype=bool)
        for name, value in filters.items():
            keep &= self.data[name] == value
        return SweepResult({name: a[keep] for name, a in self.data.items()})

    def to_csv_text(self, schema: str = SWEEP_SCHEMA) -> str:
        """The schema line, the header, then one line per row: ``%d`` ints, ``%.17g`` floats."""
        arrays = self.data.values()
        row = ",".join("%.17g" if a.dtype.kind == "f" else "%d" for a in arrays) + "\n"
        lines = [f"# schema={schema}\n", ",".join(self.columns) + "\n"]
        lines += [row % values for values in zip(*(a.tolist() for a in arrays))]
        return "".join(lines)

    def write_csv(self, path: str | Path, schema: str = SWEEP_SCHEMA) -> None:
        Path(path).write_text(self.to_csv_text(schema))


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Execute the full sweep grid; deterministic given config and seed.

    The (cell, trial) rows, in CSV order, are cut into jobs of at most
    ``TRIAL_BATCH`` rows; a job also ends where (d, M) changes.  At
    ``threads`` = 1 the calling thread runs the jobs in turn; otherwise a pool
    of ``threads`` workers runs them and its ``map`` returns them in order.
    """
    threads = _check_int(threads, "threads", 1, ConfigError)
    cells = [
        (n, d, M)
        for n in config.n_grid
        for d in config.d_grid
        for M in config.M_grid
    ]
    jobs = _jobs(cells, config.trials)
    if threads == 1:
        blocks = [_run_trial(config, cells, job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(_run_trial, [config] * len(jobs), [cells] * len(jobs), jobs))
    result = SweepResult.from_records(blocks)
    if config.out is not None:
        result.write_csv(config.out)
    return result


def fit_slope(rows) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y); returns (slope, intercept, r2)."""
    pts = np.asarray(list(rows), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("fit_slope expects (x, y) pairs")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("fit_slope requires finite coordinates")
    if np.any(pts <= 0.0):
        raise ParameterError("fit_slope requires strictly positive coordinates")
    if len(set(pts[:, 0])) < 3:
        raise ParameterError("fit_slope needs at least 3 distinct x values")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    r2 = 1.0 - float(resid @ resid) / float(total @ total) if total.any() else 1.0
    return float(slope), float(intercept), r2


def run_lower_bound_report(
    d: int,
    M: int,
    n_grid,
    B_s,
    sigma_x: float,
    sigma_xi: float,
    seed: int,
    trials: int = 50,
    code_budget: int = 2000,
    out: str | Path | None = None,
) -> SweepResult:
    """Assemble the lower-vs-upper sandwich table over an n-ladder.

    For each n, the Fano value, from ``lower_bound._fano_ladder``, beside the
    mean analytic excess risk of the plugin estimator fit on cell statistics
    drawn from the packed member it returns.  trials >= 2, so each mean has
    a standard error.  Every input is checked before the code search
    (ParameterError, or DimensionError for a B_s of neither one nor M
    values).  The (n, trial) rows are cut into jobs as ``run_sweep`` cuts a
    sweep's, each fitted as one batch; n's trial t draws its cell statistics
    from stream (n's index, t, 1).
    """
    _check_int(trials, "trials", 2)
    _check_seed(seed)
    n_grid = list(n_grid)
    members, K, kl_max, epsilon = _fano_ladder(
        d, M, n_grid, B_s, sigma_x, sigma_xi, code_budget, seed
    )
    n_grid = [int(n) for n in n_grid]
    for params, n in zip(members, n_grid):
        _check_model(params, n)
    cells = [(n, d, M) for n in n_grid]
    risks = np.concatenate([
        _fit_job(seed, cells, job, lambda rngs: _ModelStack.of([members[i] for i, _ in job]))[2]
        for job in _jobs(cells, trials)
    ]).reshape(len(n_grid), trials)
    # each n's risks scaled by a power of two, as ``_norm`` scales: exact, and a
    # risk above ~1e154 does not overflow when its deviation is squared
    _, exponent = np.frexp(risks.max(axis=1))
    spread = np.ldexp(np.ldexp(risks, -exponent[:, None]).std(axis=1, ddof=1), exponent)
    fano = np.array([fano_value(eps, K, kl) for eps, kl in zip(epsilon, kl_max)])
    result = SweepResult({
        "d": np.full(len(n_grid), d), "M": np.full(len(n_grid), M), "n": np.array(n_grid),
        "epsilon": epsilon, "K": np.full(len(n_grid), K), "kl": kl_max, "fano_value": fano,
        "est_risk_mean": risks.mean(axis=1), "est_risk_se": spread / math.sqrt(trials),
    })
    if out is not None:
        result.write_csv(out, schema=LOWER_BOUND_SCHEMA)
    return result
