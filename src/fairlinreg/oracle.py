"""Population-optimal fair regressor in closed form, plus exact risk formulas.

Two independent routes to the same regressor are provided: the direct
closed form (shared slope norm, per-group direction, recentered intercepts)
and the quantile-function composition through the weighted barycenter of
the per-group conditional output laws.  They must agree pointwise.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, DimensionError
from .model import GroupAffineRegressor, ModelParams


@dataclass(frozen=True)
class FairOracle:
    """The realized population fair regressor together with its summary scalars.

    bar_norm is the probability-weighted average of the coefficient norms;
    const_term is the shared intercept sum_s p_s <beta_s, mu_s>.
    """

    params: ModelParams
    fdp: GroupAffineRegressor
    bar_norm: float
    const_term: float


def _check_nondegenerate(params: ModelParams) -> np.ndarray:
    norms = params.beta_norms
    if np.any(norms == 0.0):
        raise DegenerateDirectionError(
            "some ||beta_s|| = 0; the fair regressor's direction is undefined there"
        )
    return norms


def _assemble(bar_norm, directions, means, const_term) -> GroupAffineRegressor:
    """w_s = bar_norm dir_s, b_s = const_term - <w_s, mu_s>: the oracle and the plug-in."""
    w = bar_norm * directions
    return GroupAffineRegressor(w=w, b=const_term - np.einsum("ij,ij->i", w, means))


def build_fdp(params: ModelParams) -> FairOracle:
    """Construct the population fair regressor in closed form."""
    norms = _check_nondegenerate(params)
    bar_norm = float(params.p @ norms)
    const_term = float(params.p @ np.einsum("ij,ij->i", params.beta, params.mu))
    fdp = _assemble(bar_norm, params.beta / norms[:, None], params.mu, const_term)
    return FairOracle(params=params, fdp=fdp, bar_norm=bar_norm, const_term=const_term)


def _std_normal_cdf(x: float) -> float:
    """Standard normal CDF; erfc, unlike 1 + erf, does not cancel in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _roundtrip_standard_normal(z: np.ndarray) -> np.ndarray:
    """Compute ppf(cdf(z)) through the nearer tail to keep precision for |z| large.

    A tail probability that underflows to 0 maps to the infinite quantile.
    """
    z = np.asarray(z, dtype=float)
    ppf = statistics.NormalDist().inv_cdf
    tail = [_std_normal_cdf(-abs(v)) for v in z.flat]
    q = np.array([ppf(t) if t > 0.0 else -math.inf for t in tail]).reshape(z.shape)
    return -np.sign(z) * q


def quantile_compose_fdp(params: ModelParams, x: np.ndarray, s) -> np.ndarray | float:
    """Evaluate the fair regressor by composing conditional CDF and quantile maps.

    Conditioned on group s, the best unconstrained predictor is Gaussian with
    mean <beta_s, mu_s> and std sigma_x * ||beta_s||; its CDF is composed with
    the weighted average of the per-group quantile functions.
    """
    norms = _check_nondegenerate(params)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    xm = np.atleast_2d(x)
    sv = np.full(xm.shape[0], s, dtype=np.int64) if np.isscalar(s) else np.asarray(s)
    if xm.shape[1] != params.d:
        raise DimensionError(f"x has dimension {xm.shape[1]}, expected {params.d}")

    fstar = np.einsum("ij,ij->i", params.beta[sv], xm)
    mean_s = np.einsum("ij,ij->i", params.beta[sv], params.mu[sv])
    z = (fstar - mean_s) / (params.sigma_x * norms[sv])
    z = _roundtrip_standard_normal(z)

    bar_norm = float(params.p @ norms)
    const_term = float(params.p @ np.einsum("ij,ij->i", params.beta, params.mu))
    out = params.sigma_x * bar_norm * z + const_term
    return float(out[0]) if scalar else out


def gaussian_l2_distance(
    f: GroupAffineRegressor, g: GroupAffineRegressor, params: ModelParams
) -> float:
    """Exact E[(f(X,S) - g(X,S))^2] under the model, for two group-affine maps."""
    if f.w.shape != g.w.shape or f.d != params.d or f.M != params.M:
        raise DimensionError("regressor shapes do not match the model")
    dw = f.w - g.w
    db = f.b - g.b
    mean_shift = np.einsum("ij,ij->i", dw, params.mu) + db
    per_group = params.sigma_x ** 2 * np.einsum("ij,ij->i", dw, dw) + mean_shift ** 2
    return float(params.p @ per_group)


def analytic_excess_risk(f: GroupAffineRegressor, oracle: FairOracle) -> float:
    """Exact mean squared deviation of f from the population fair regressor."""
    return gaussian_l2_distance(f, oracle.fdp, oracle.params)


def true_regressor(params: ModelParams) -> GroupAffineRegressor:
    """The unconstrained optimum f(x, s) = <beta_s, x>."""
    return GroupAffineRegressor(w=params.beta, b=np.zeros(params.M))


def analytic_unfair_gap(params: ModelParams, oracle: FairOracle) -> float:
    """Price of fairness: E[(f*(X,S) - fair(X,S))^2] in closed form."""
    _check_nondegenerate(params)
    return gaussian_l2_distance(true_regressor(params), oracle.fdp, params)
