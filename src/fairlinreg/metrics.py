"""Fairness and accuracy metrics.

Analytic 2-Wasserstein and Kolmogorov distances between the per-group
conditional output laws (Gaussian for group-affine regressors under the
model), empirical 1-D Wasserstein via monotone rearrangement, and a seeded
Monte Carlo excess-risk estimator for arbitrary regressors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import GroupAffineRegressor, ModelParams, sample_dataset
from .oracle import FairOracle, _std_normal_cdf

# Chunk size for Monte Carlo accumulation; fixed so results are independent
# of how chunks are scheduled.
MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaussianLaw1D:
    """A one-dimensional Gaussian law (std 0 means a point mass)."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0.0:
            raise ParameterError(f"std must be nonnegative, got {self.std!r}")


def w2_gaussian(a: GaussianLaw1D, b: GaussianLaw1D) -> float:
    """2-Wasserstein distance between 1-D Gaussians: sqrt(dmean^2 + dstd^2)."""
    return math.hypot(a.mean - b.mean, a.std - b.std)


def w2_empirical(xs, ys) -> float:
    """Exact 1-D empirical 2-Wasserstein distance via monotone rearrangement.

    Equal-length samples pair sorted order statistics directly.  Unequal
    lengths integrate the squared difference of the two empirical quantile
    functions over the merged probability grid (both are step functions, so
    the integral is a finite sum).
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ParameterError("w2_empirical needs nonempty samples")
    if xs.size == ys.size:
        return float(np.sqrt(np.mean((xs - ys) ** 2)))
    # Merged breakpoints of the two step quantile functions.
    grid = np.union1d(np.arange(1, xs.size) / xs.size, np.arange(1, ys.size) / ys.size)
    edges = np.concatenate(([0.0], grid, [1.0]))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mids * xs.size).astype(int), xs.size - 1)]
    qy = ys[np.minimum((mids * ys.size).astype(int), ys.size - 1)]
    return float(np.sqrt(np.sum(widths * (qx - qy) ** 2)))


def conditional_law(
    f: GroupAffineRegressor, params: ModelParams, s: int
) -> GaussianLaw1D:
    """Law of f(X, S) given S = s: Gaussian with mean <w_s, mu_s> + b_s."""
    if f.d != params.d or f.M != params.M:
        raise DimensionError("regressor shape does not match the model")
    if not 0 <= s < params.M:
        raise DimensionError(f"group index {s} out of range [0, {params.M})")
    mean = float(f.w[s] @ params.mu[s] + f.b[s])
    std = float(params.sigma_x * np.linalg.norm(f.w[s]))
    return GaussianLaw1D(mean=mean, std=std)


def kolmogorov_gaussian(a: GaussianLaw1D, b: GaussianLaw1D) -> float:
    """Sup-norm distance between two Gaussian CDFs, in closed form.

    The supremum of |F_a - F_b| is attained where the densities cross:
    at the mean midpoint for equal stds, at the (at most two) roots of the
    quadratic log-density difference otherwise.  Point masses (std 0) are
    handled through the CDF step.
    """
    if a.std == 0.0 and b.std == 0.0:
        return 0.0 if a.mean == b.mean else 1.0
    if a.std == 0.0 or b.std == 0.0:
        point, gauss = (a, b) if a.std == 0.0 else (b, a)
        return _std_normal_cdf(abs(point.mean - gauss.mean) / gauss.std)
    if a.std == b.std:
        return 2.0 * _std_normal_cdf(abs(a.mean - b.mean) / (2.0 * a.std)) - 1.0
    # Density crossings: a scale-free quadratic in z = (t - a.mean) / a.std, under
    # which a is N(0, 1) and b is N(m, r^2); one in raw t overflows near 1e150.
    m = (b.mean - a.mean) / a.std
    r = b.std / a.std
    inv_r2 = 1.0 / (r * r)
    roots = np.roots(
        [inv_r2 - 1.0, -2.0 * m * inv_r2, m * m * inv_r2 + 2.0 * math.log(r)]
    )
    roots = roots[np.abs(roots.imag) < 1e-12].real
    cdf = _std_normal_cdf
    return max((abs(cdf(z) - cdf((z - m) / r)) for z in roots), default=0.0)


@dataclass(frozen=True)
class UnfairnessReport:
    """The three demographic-parity unfairness scores plus the pairwise W2 grid."""

    w2_max: float
    kol_max: float
    avg_w2: float
    pairwise: np.ndarray  # (M, M) symmetric, zero diagonal


def unfairness(f: GroupAffineRegressor, params: ModelParams) -> UnfairnessReport:
    """Compute all three unfairness scores of f analytically under the model."""
    laws = [conditional_law(f, params, s) for s in range(params.M)]
    M = params.M
    pairwise = np.zeros((M, M))
    kol_max = 0.0
    for s in range(M):
        for t in range(s + 1, M):
            pairwise[s, t] = pairwise[t, s] = w2_gaussian(laws[s], laws[t])
            kol_max = max(kol_max, kolmogorov_gaussian(laws[s], laws[t]))
    # 1-D Gaussian W2 barycenter: probability-weighted mean and std.
    bary = GaussianLaw1D(
        mean=float(params.p @ [law.mean for law in laws]),
        std=float(params.p @ [law.std for law in laws]),
    )
    avg_w2 = float(sum(p * w2_gaussian(law, bary) for p, law in zip(params.p, laws)))
    return UnfairnessReport(
        w2_max=float(pairwise.max()),
        kol_max=kol_max,
        avg_w2=avg_w2,
        pairwise=pairwise,
    )


def mc_excess_risk(
    f, params: ModelParams, oracle: FairOracle, n_mc: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of E[(f(X,S) - fair(X,S))^2].

    f may be a GroupAffineRegressor (evaluated through the exact difference
    regressor, so f = fair gives exactly 0) or any callable f(x, s) mapping
    an (m, d) array and an (m,) label array to m predictions.
    """
    if n_mc < 1:
        raise ParameterError(f"n_mc must be positive, got {n_mc}")
    affine = isinstance(f, GroupAffineRegressor)
    if affine:
        dw = f.w - oracle.fdp.w
        db = f.b - oracle.fdp.b
    sums = []
    sq_sums = []
    for chunk_idx, done in enumerate(range(0, n_mc, MC_CHUNK)):
        m = min(MC_CHUNK, n_mc - done)
        chunk_seed = np.random.SeedSequence(seed, spawn_key=(chunk_idx,))
        data = sample_dataset(params, m, chunk_seed)
        if affine:
            dev = np.einsum("ij,ij->i", dw[data.s], data.x) + db[data.s]
        else:
            dev = np.asarray(f(data.x, data.s), dtype=float) - oracle.fdp.predict(
                data.x, data.s
            )
        sq = dev ** 2
        sums.append(sq.sum())
        sq_sums.append((sq ** 2).sum())
    total = math.fsum(sums)
    total_sq = math.fsum(sq_sums)
    est = total / n_mc
    var = max(total_sq / n_mc - est ** 2, 0.0)
    se = math.sqrt(var / n_mc)
    return est, se
