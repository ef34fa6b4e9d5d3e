"""Seeded Monte Carlo sweeps, rate-slope estimation, and report assembly.

Sweeps iterate a (n, d, M) grid, fit the plugin estimator on freshly
sampled data per trial, and record analytic excess risk, unfairness
scores, and the per-component error terms whose individual 1/n rates
drive the overall bound.  All randomness flows through per-trial seed
sequences so results are byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError
from .estimator import ComponentEstimates, fit
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
    ModelParams,
    _is_finite_real,
    _is_int,
    from_dict,
    norm_diversity_factor,
    sample_dataset,
    validate_params,
)
from .oracle import analytic_excess_risk, build_fdp

SWEEP_SCHEMA = "fairlinreg-sweep-2"
LOWER_BOUND_SCHEMA = "fairlinreg-lower-bound-1"

SWEEP_COLUMNS = [
    "n", "d", "M", "B", "trial",
    "excess_risk", "w2_unfairness", "kol_unfairness",
    "e_mean", "e_norm", "e_coef", "e_coef_prime", "e_mean_prime", "e_prob",
    "d2_margin", "undersampled",
]


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

    Directions are uniform on the sphere, norms log-uniform in [B/4, B]
    with rejection against the norm-diversity bound, and means uniform in
    the U-ball.  Group probabilities are balanced.
    """
    p = np.full(M, 1.0 / M)
    for _ in range(10_000):
        norms = np.exp(rng.uniform(math.log(B / 4.0), math.log(B), size=M))
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
    e_norm = (estimates.norm_hat_bar - bar_norm) ** 2
    diff = estimates.dir_hat - directions
    e_coef = float(params.p @ np.einsum("ij,ij->i", diff, diff))
    e_coef_prime = float(
        estimates.p_hat
        @ np.einsum(
            "ij,ij->i", estimates.beta_prime_hat - params.beta, estimates.mu_prime_hat
        )
    ) ** 2
    e_mean_prime = float(
        estimates.p_hat
        @ np.einsum("ij,ij->i", params.beta, estimates.mu_prime_hat - params.mu)
    ) ** 2
    e_prob = float(
        (estimates.p_hat - params.p)
        @ np.einsum("ij,ij->i", params.beta, params.mu)
    ) ** 2
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


def _run_trial(config: SweepConfig, cell_idx: int, cell, trial: int) -> list:
    n, d, M = cell
    params_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 0))
    )
    params = random_valid_params(
        d, M, config.B, config.U, config.sigma_x, config.sigma_xi, params_rng
    )
    data = sample_dataset(
        params, n, np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 1))
    )
    regressor, estimates = fit(
        data, d, M, np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 2))
    )
    oracle = build_fdp(params)
    risk = analytic_excess_risk(regressor, oracle)
    report = unfairness(regressor, params)
    errors = component_errors(params, estimates)
    margin = parity_gap_margin(report, estimates, params)
    flag = undersampled(n, d, M, float(params.p.min()), config.delta)
    return [
        n, d, M, config.B, trial,
        risk, report.w2_max, report.kol_max,
        errors["e_mean"], errors["e_norm"], errors["e_coef"],
        errors["e_coef_prime"], errors["e_mean_prime"], errors["e_prob"],
        margin, int(flag),
    ]


@dataclass
class SweepResult:
    """All sweep rows, in deterministic (cell, trial) order."""

    columns: list[str] = field(default_factory=lambda: list(SWEEP_COLUMNS))
    rows: list[list] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    def select(self, **filters) -> "SweepResult":
        idx = [self.columns.index(k) for k in filters]
        kept = [
            row
            for row in self.rows
            if all(row[j] == v for j, v in zip(idx, filters.values()))
        ]
        return SweepResult(columns=list(self.columns), rows=kept)

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
    """Execute the full sweep grid; deterministic given config and seed."""
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
    rows: list = [None] * len(jobs)

    def work(k: int) -> None:
        cell_idx, cell, trial = jobs[k]
        rows[k] = _run_trial(config, cell_idx, cell, trial)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(jobs))))
    else:
        for k in range(len(jobs)):
            work(k)
    result = SweepResult(rows=rows)
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


LOWER_BOUND_COLUMNS = [
    "d", "M", "n", "epsilon", "K", "kl", "fano_value",
    "est_risk_mean", "est_risk_se",
]


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
    analytic excess risk of the plugin estimator fit on data drawn from one
    member of the same family.  trials >= 2, so each mean has a standard error,
    and round(n / M) >= 1 for every n, so no group's KL count is 0.
    d, M, B_s, n_grid and trials are checked before any work (ParameterError).
    """
    if trials < 2:
        raise ParameterError(f"need trials >= 2 for a standard error, got {trials}")
    _packing_B_s(d, M, B_s)
    n_grid = [int(n) for n in n_grid]
    p = np.full(M, 1.0 / M)
    if any(np.round(n * p[0]) < 1 for n in n_grid):
        raise ParameterError(
            f"every n must give each of the M={M} groups at least one row "
            f"(round(n / M) >= 1), got n_grid={n_grid}"
        )
    min_dist = max((d - 1) // 8, 1)
    code = gv_code(d - 1, M, min_dist, code_budget, seed)
    C = code.codewords
    rows = []
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

        params = family.params_of(C[0], p, sigma_x, sigma_xi)
        oracle = build_fdp(params)
        risks = np.empty(trials)
        for t in range(trials):
            data = sample_dataset(
                params, n, np.random.SeedSequence(seed, spawn_key=(n_idx, t, 0))
            )
            regressor, _ = fit(
                data, d, M, np.random.SeedSequence(seed, spawn_key=(n_idx, t, 1))
            )
            risks[t] = analytic_excess_risk(regressor, oracle)
        rows.append(
            [
                d, M, n, epsilon, code.size, kl_max, fano,
                float(risks.mean()),
                float(risks.std(ddof=1) / math.sqrt(trials)),
            ]
        )
    result = SweepResult(columns=list(LOWER_BOUND_COLUMNS), rows=rows)
    if out is not None:
        result.write_csv(out, schema=LOWER_BOUND_SCHEMA)
    return result
