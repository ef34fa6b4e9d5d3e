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
from .model import (
    GroupAffineRegressor,
    ModelParams,
    _check_group,
    _dot,
    _is_int,
    _ModelStack,
    _norm,
    _streams,
    _trial,
    sample_dataset,
)
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


def _w2(mean_a, std_a, mean_b, std_b) -> np.ndarray:
    """``w2_gaussian``, elementwise over arrays of law pairs."""
    return np.hypot(np.subtract(mean_a, mean_b), np.subtract(std_a, std_b))


def w2_gaussian(a: GaussianLaw1D, b: GaussianLaw1D) -> float:
    """2-Wasserstein distance between 1-D Gaussians: sqrt(dmean^2 + dstd^2)."""
    return float(_w2(a.mean, a.std, b.mean, b.std))


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
        # in place on the sorted copies: no third sample-sized array
        return float(np.sqrt(np.mean(np.square(np.subtract(xs, ys, out=xs), out=xs))))
    # Merged breakpoints of the two step quantile functions.
    grid = np.union1d(np.arange(1, xs.size) / xs.size, np.arange(1, ys.size) / ys.size)
    edges = np.concatenate(([0.0], grid, [1.0]))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mids * xs.size).astype(int), xs.size - 1)]
    qy = ys[np.minimum((mids * ys.size).astype(int), ys.size - 1)]
    return float(np.sqrt(np.sum(widths * (qx - qy) ** 2)))


def _laws(w: np.ndarray, b: np.ndarray, models: _ModelStack) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of f(X, S) given S = s, per trial and group, for f = (w, b)."""
    return _dot(w, models.mu) + b, models.sigma_x[:, None] * _norm(w)


def conditional_law(
    f: GroupAffineRegressor, params: ModelParams, s: int
) -> GaussianLaw1D:
    """Law of f(X, S) given S = s: Gaussian with mean <w_s, mu_s> + b_s."""
    if f.d != params.d or f.M != params.M:
        raise DimensionError("regressor shape does not match the model")
    s = _check_group(s, params.M)
    means, stds = _laws(f.w[None], f.b[None], _ModelStack.of([params]))
    return GaussianLaw1D(mean=float(means[0, s]), std=float(stds[0, s]))


def _kolmogorov(mean_a, std_a, mean_b, std_b) -> np.ndarray:
    """``kolmogorov_gaussian``, elementwise over 1-d arrays of law pairs."""
    ma, sa, mb, sb = (np.asarray(v, dtype=float) for v in (mean_a, std_a, mean_b, std_b))
    out = np.zeros(ma.shape)
    point_a, point_b = sa == 0.0, sb == 0.0
    both = point_a & point_b
    out[both] = ma[both] != mb[both]
    one = point_a != point_b
    gauss_std = np.where(point_a, sb, sa)[one]
    out[one] = _std_normal_cdf(np.abs(ma[one] - mb[one]) / gauss_std)
    equal = (sa == sb) & ~point_a
    out[equal] = 2.0 * _std_normal_cdf(np.abs(ma[equal] - mb[equal]) / (2.0 * sa[equal])) - 1.0
    crossing = ~(point_a | point_b | (sa == sb))
    # Density crossings in units of the wider law: a swap and a reflection leave the
    # distance as it is, so take that law as N(0, 1) and the other as N(m, r^2) with
    # m >= 0 and r < 1.  The crossings z solve (1 - r^2) z^2 - 2 m z + m^2 + 2 r^2 log r
    # = 0, whose discriminant / 4 is r^2 s^2 with s^2 = m^2 - 2 (1 - r^2) log r >= 0.
    # The narrow law's argument u = (z - m) / r comes from s, not from z, so it keeps
    # the offset r s even where m is far larger; no step squares m or 1 / r.
    wide = np.maximum(sa, sb)[crossing]
    m = np.abs(ma[crossing] - mb[crossing]) / wide
    r = np.minimum(sa, sb)[crossing] / wide
    one_r2, log_r = (1.0 - r) * (1.0 + r), np.log(r)
    s = np.hypot(m, np.sqrt(-2.0 * one_r2 * log_r))
    q, p = m + r * s, s + m * r
    z = np.stack([q / one_r2, m * (m / q) + 2.0 * r * r * log_r / q])
    u = np.stack([p / one_r2, 2.0 * log_r / p - m * (m / p)])
    gaps = np.abs(_std_normal_cdf(z) - _std_normal_cdf(u))
    out[crossing] = gaps.max(axis=0)
    return out


def kolmogorov_gaussian(a: GaussianLaw1D, b: GaussianLaw1D) -> float:
    """Sup-norm distance between two Gaussian CDFs, in closed form.

    The supremum of |F_a - F_b| is attained where the densities cross:
    at the mean midpoint for equal stds, otherwise at the two density
    crossings, real whenever the stds differ.  Point masses (std 0) are
    handled through the CDF step.
    """
    return float(_kolmogorov([a.mean], [a.std], [b.mean], [b.std])[0])


@dataclass(frozen=True)
class UnfairnessReport:
    """The three demographic-parity unfairness scores plus the pairwise W2 grid.

    Inside the batch kernels every field carries a leading trial axis.
    """

    w2_max: float
    kol_max: float
    avg_w2: float
    pairwise: np.ndarray  # (M, M) symmetric, zero diagonal


def _unfairness(w: np.ndarray, b: np.ndarray, models: _ModelStack) -> UnfairnessReport:
    """``unfairness`` of each trial's regressor (w, b) under its model, as one batch."""
    means, stds = _laws(w, b, models)
    T, M = means.shape
    s, t = np.triu_indices(M, k=1)
    pairwise = np.zeros((T, M, M))
    pairwise[:, s, t] = pairwise[:, t, s] = _w2(means[:, s], stds[:, s], means[:, t], stds[:, t])
    kol = _kolmogorov(*(a.reshape(-1) for a in (means[:, s], stds[:, s], means[:, t], stds[:, t])))
    # 1-D Gaussian W2 barycenter: probability-weighted mean and std.
    bary_mean, bary_std = _dot(models.p, means), _dot(models.p, stds)
    to_bary = models.p * _w2(means, stds, bary_mean[:, None], bary_std[:, None])
    return UnfairnessReport(
        w2_max=pairwise.max(axis=(1, 2)),
        # the largest pair from 0; a NaN pair is skipped
        kol_max=np.fmax.reduce(kol.reshape(T, len(s)), axis=1, initial=0.0),
        avg_w2=to_bary.sum(axis=1),
        pairwise=pairwise,
    )


def unfairness(f: GroupAffineRegressor, params: ModelParams) -> UnfairnessReport:
    """Compute all three unfairness scores of f analytically under the model."""
    if f.d != params.d or f.M != params.M:
        raise DimensionError("regressor shape does not match the model")
    return _trial(_unfairness(f.w[None], f.b[None], _ModelStack.of([params])), 0)


def mc_excess_risk(
    f, params: ModelParams, oracle: FairOracle, n_mc: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of E[(f(X,S) - fair(X,S))^2].

    f may be a GroupAffineRegressor (evaluated through the exact difference
    regressor, so f = fair gives exactly 0) or any callable f(x, s) mapping
    an (m, d) array and an (m,) label array to m predictions.
    """
    if not _is_int(n_mc) or n_mc < 1:
        raise ParameterError(f"n_mc must be an integer >= 1, got {n_mc!r}")
    affine = isinstance(f, GroupAffineRegressor)
    if affine:
        dw = f.w - oracle.fdp.w
        db = f.b - oracle.fdp.b
    sums = []
    sq_sums = []
    starts = range(0, n_mc, MC_CHUNK)
    # chunk k draws from stream (k,)
    for done, rng in zip(starts, _streams(seed, np.arange(len(starts))[:, None])):
        m = min(MC_CHUNK, n_mc - done)
        data = sample_dataset(params, m, rng)
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
