"""Seeded Monte Carlo sweeps, rate-slope estimation, and report assembly.

Sweeps iterate a (n, d, M) grid, fit the plugin estimator on freshly
drawn cell statistics per trial, and record analytic excess risk, unfairness
scores, and the per-component error terms whose individual 1/n rates
drive the overall bound.  All randomness flows through per-trial seed
sequences so results are byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError
from .estimator import ComponentEstimates, fit, sample_cell_stats
from .lower_bound import (
    _packing_B_s,
    build_family,
    fano_value,
    gv_code,
    hard_instance_eps,
    packed_pair_kl,
    packed_pair_separation,
)
from .metrics import UnfairnessReport, unfairness
from .model import (
    GroupAffineRegressor,
    ModelParams,
    _is_finite_real,
    _is_int,
    from_dict,
    norm_diversity_factor,
    validate_params,
)
from .oracle import FairOracle, analytic_excess_risk, build_fdp

SWEEP_SCHEMA = "fairlinreg-sweep-3"
LOWER_BOUND_SCHEMA = "fairlinreg-lower-bound-2"


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
            if not (
                isinstance(values, (list, tuple))
                and values
                and all(_is_int(v) and v >= 1 for v in values)
            ):
                raise ConfigError(f"{name} must be a nonempty list of positive ints")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        for name in ("trials", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("B", "U", "sigma_x", "sigma_xi", "delta"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a nonempty path string, got {self.out!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.B <= 0 or self.U <= 0 or self.sigma_x <= 0 or self.sigma_xi < 0:
            raise ConfigError("B, U, sigma_x must be positive and sigma_xi >= 0")
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
    B -> 1), so every draw meets the bound and the rejection loop only
    guards round-off.  B < 1, or B = 1 with M >= 2, admits no norms and is
    a ConfigError before any draw.
    """
    if B < 1.0 or (B == 1.0 and M >= 2):
        raise ConfigError(
            f"B={B!r} leaves no valid norms for M={M}: the norm-diversity factor "
            "of balanced groups must be <= B^2 but is at least 1, and equals 1 "
            "only when all norms are equal, which log-uniform draws never are"
        )
    p = np.full(M, 1.0 / M)
    for _ in range(10_000):
        norms = np.exp(rng.uniform(math.log(B / min(4.0, B * B)), math.log(B), size=M))
        if norm_diversity_factor(p, norms) <= B * B:  # B ** 2 on a float can overflow
            break
    else:
        raise ConfigError("could not sample norms satisfying the diversity bound")
    dirs = rng.standard_normal((M, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    beta = norms[:, None] * dirs
    mu_dirs = rng.standard_normal((M, d))
    mu_dirs /= np.linalg.norm(mu_dirs, axis=1, keepdims=True)
    radii = U * rng.random(M) ** (1.0 / d)
    mu = radii[:, None] * mu_dirs
    params = ModelParams(
        d=d, M=M, beta=beta, mu=mu, p=p,
        sigma_x=sigma_x, sigma_xi=sigma_xi, B=B, U=U,
    )
    report = validate_params(params)
    if report:
        raise ConfigError("generated invalid params: " + "; ".join(report))
    return params


def _mean_leak(params: ModelParams, estimates: ComponentEstimates) -> np.ndarray:
    """Per group, <dir_hat_s, mu_s - mu_hat_s>: the mean-estimation error on the slope."""
    return np.einsum("ij,ij->i", estimates.dir_hat, params.mu - estimates.mu_hat)


def component_errors(
    params: ModelParams, estimates: ComponentEstimates
) -> dict[str, float]:
    """The six per-component squared error terms, each against its true target."""
    norms = params.beta_norms
    bar_norm = float(params.p @ norms)
    directions = params.beta / norms[:, None]
    e_mean = float(params.p @ _mean_leak(params, estimates) ** 2)
    e_norm = np.square(estimates.norm_hat_bar - bar_norm)
    diff = estimates.dir_hat - directions
    e_coef = float(params.p @ np.einsum("ij,ij->i", diff, diff))
    e_coef_prime = np.square(
        estimates.p_hat
        @ np.einsum(
            "ij,ij->i", estimates.beta_prime_hat - params.beta, estimates.mu_prime_hat
        )
    )
    e_mean_prime = np.square(
        estimates.p_hat
        @ np.einsum("ij,ij->i", params.beta, estimates.mu_prime_hat - params.mu)
    )
    e_prob = np.square(
        (estimates.p_hat - params.p)
        @ np.einsum("ij,ij->i", params.beta, params.mu)
    )
    return {
        "e_mean": e_mean,
        "e_norm": e_norm,
        "e_coef": e_coef,
        "e_coef_prime": e_coef_prime,
        "e_mean_prime": e_mean_prime,
        "e_prob": e_prob,
    }


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
    leaks = np.abs(_mean_leak(params, estimates))
    bound = 2.0 * params.B * np.maximum.outer(leaks, leaks)
    upper = np.triu_indices(params.M, k=1)
    return float((bound - report.pairwise)[upper].min(initial=math.inf))


def undersampled(n: int, d: int, M: int, p_min: float, delta: float) -> bool:
    """Whether n falls below the estimator's sample-size hypothesis."""
    return n < 12.0 * max(3 * d, 4.0 * math.log(M / delta)) / p_min


def _fit_trial(
    oracle: FairOracle, n: int, seed: int, key: tuple[int, int]
) -> tuple[float, GroupAffineRegressor, ComponentEstimates]:
    """One Monte Carlo trial: draw cell statistics, fit them, score the fit.

    The statistics are drawn from the seed sequence keyed by (*key, 1).
    Returns the analytic excess risk, the regressor and its estimates.
    """
    params = oracle.params
    stats = sample_cell_stats(params, n, np.random.SeedSequence(seed, spawn_key=(*key, 1)))
    regressor, estimates = fit(stats, params.d, params.M, None)
    return analytic_excess_risk(regressor, oracle), regressor, estimates


def _run_trial(config: SweepConfig, cell_idx: int, cell, trial: int) -> dict:
    """One sweep row; its keys, in order, are the sweep CSV's columns."""
    n, d, M = cell
    params_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 0))
    )
    params = random_valid_params(
        d, M, config.B, config.U, config.sigma_x, config.sigma_xi, params_rng
    )
    flag = undersampled(n, d, M, float(params.p.min()), config.delta)
    # Squared errors of coefficients above ~1e154 exceed the float range and read inf.
    with np.errstate(over="ignore"):
        risk, regressor, estimates = _fit_trial(
            build_fdp(params), n, config.seed, (cell_idx, trial)
        )
        report = unfairness(regressor, params)
        return {
            "n": n, "d": d, "M": M, "B": config.B, "trial": trial,
            "excess_risk": risk,
            "w2_unfairness": report.w2_max,
            "kol_unfairness": report.kol_max,
            **component_errors(params, estimates),
            "d2_margin": parity_gap_margin(report, estimates, params),
            "undersampled": int(flag),
        }


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A results table: ``data`` maps each column, in CSV order, to one array.

    Int columns stay ints, so ``rows`` and the CSV print them as written.
    """

    data: dict[str, np.ndarray]

    @classmethod
    def from_records(cls, records: list[dict]) -> "SweepResult":
        """The table of one dict per row, all with the same keys in the same order."""
        return cls({name: np.array([r[name] for r in records]) for name in records[0]})

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
        buf = io.StringIO()
        buf.write(f"# schema={schema}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
            )
        return buf.getvalue()

    def write_csv(self, path: str | Path, schema: str = SWEEP_SCHEMA) -> None:
        Path(path).write_text(self.to_csv_text(schema))


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Execute the full sweep grid; deterministic given config and seed.

    ``pool.map`` returns trials in job order, whatever the thread count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cells = [
        (n, d, M)
        for n in config.n_grid
        for d in config.d_grid
        for M in config.M_grid
    ]
    jobs = [
        (cell_idx, cell, trial)
        for cell_idx, cell in enumerate(cells)
        for trial in range(config.trials)
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        records = list(pool.map(lambda job: _run_trial(config, *job), jobs))
    result = SweepResult.from_records(records)
    if config.out is not None:
        result.write_csv(config.out)
    return result


def fit_slope(rows) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y); returns (slope, intercept, r2)."""
    pts = np.asarray(list(rows), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("fit_slope expects (x, y) pairs")
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

    For each n: packing radii from the hard-instance formula, a randomized
    per-block code, the worst pairwise KL, and the Fano value built from
    the smallest pairwise two-point risk separation; next to it, the mean
    analytic excess risk of the plugin estimator fit on cell statistics drawn
    from one member of the same family.  trials >= 2, so each mean has a
    standard error, n_grid is nonempty, and round(n / M) >= 1 for every n,
    so no group's KL count is 0.
    d, M, B_s, n_grid and trials are checked before any work (ParameterError).
    """
    if trials < 2:
        raise ParameterError(f"need trials >= 2 for a standard error, got {trials}")
    _packing_B_s(d, M, B_s)
    n_grid = [int(n) for n in n_grid]
    p = np.full(M, 1.0 / M)
    if not n_grid or any(np.round(n * p[0]) < 1 for n in n_grid):
        raise ParameterError(
            f"n_grid must be nonempty and every n must give each of the M={M} "
            f"groups at least one row (round(n / M) >= 1), got n_grid={n_grid}"
        )
    min_dist = max((d - 1) // 8, 1)
    code = gv_code(d - 1, M, min_dist, code_budget, seed)
    C = code.codewords
    records = []
    for n_idx, n in enumerate(n_grid):
        n_counts = np.round(n * p)
        eps = hard_instance_eps(d, M, sigma_xi, sigma_x, B_s, n_counts)
        family = build_family(d, M, B_s, eps)
        kl_max = 0.0
        epsilon = math.inf
        for i in range(code.size - 1):  # row against later rows: O(K M d) memory
            kl = packed_pair_kl(family, C[i], C[i + 1:], n_counts, sigma_x, sigma_xi)
            sep = packed_pair_separation(family, C[i], C[i + 1:], p, sigma_x)
            kl_max = max(kl_max, float(kl.max()))
            epsilon = min(epsilon, float(sep.min()))
        fano = fano_value(epsilon, code.size, kl_max)

        oracle = build_fdp(family.params_of(C[0], p, sigma_x, sigma_xi))
        risks = np.array([_fit_trial(oracle, n, seed, (n_idx, t))[0] for t in range(trials)])
        records.append(
            {
                "d": d, "M": M, "n": n, "epsilon": epsilon, "K": code.size,
                "kl": kl_max, "fano_value": fano,
                "est_risk_mean": float(risks.mean()),
                "est_risk_se": float(risks.std(ddof=1) / math.sqrt(trials)),
            }
        )
    result = SweepResult.from_records(records)
    if out is not None:
        result.write_csv(out, schema=LOWER_BOUND_SCHEMA)
    return result
