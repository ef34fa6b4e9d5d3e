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
from .model import (
    GroupAffineRegressor, ModelParams, _check_finite, _check_group, _check_labels,
    _check_regressors, _dot, _ModelStack, _rowdot,
)


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


def _check_nondegenerate(norms: np.ndarray) -> np.ndarray:
    if np.any(norms == 0.0):
        raise DegenerateDirectionError(
            "some ||beta_s|| = 0; the fair regressor's direction is undefined there"
        )
    return norms


def _assemble(bar_norm, directions, means, const_term) -> tuple[np.ndarray, np.ndarray]:
    """w_s = bar_norm dir_s, b_s = const_term - <w_s, mu_s>: the oracle and the plug-in.

    Every argument carries a leading trial axis; returns (w, b), checked finite.
    """
    w = bar_norm[..., None, None] * directions
    b = const_term[..., None] - _rowdot(w, means)
    return _check_finite(w, "w"), _check_finite(b, "b")


def _fair(models: _ModelStack) -> tuple[np.ndarray, ...]:
    """(bar_norm, const_term, w, b) of each model's fair regressor, in closed form."""
    norms = _check_nondegenerate(models.norms)
    bar_norm = _dot(models.p, norms)
    const_term = _dot(models.p, _rowdot(models.beta, models.mu))
    return (bar_norm, const_term) + _assemble(
        bar_norm, models.beta / norms[..., None], models.mu, const_term
    )


def build_fdp(params: ModelParams) -> FairOracle:
    """Construct the population fair regressor in closed form."""
    bar_norm, const_term, w, b = _fair(_ModelStack.of([params]))
    return FairOracle(
        params=params,
        fdp=GroupAffineRegressor(w=w[0], b=b[0]),
        bar_norm=float(bar_norm[0]),
        const_term=float(const_term[0]),
    )


# math.erfc, elementwise; numpy has no erfc.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _std_normal_cdf(x):
    """Standard normal CDF, elementwise; erfc, unlike 1 + erf, does not cancel in the lower tail."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def _roundtrip_standard_normal(z: np.ndarray) -> np.ndarray:
    """Compute ppf(cdf(z)) through the nearer tail to keep precision for |z| large.

    A tail probability that underflows to 0 maps to the infinite quantile.
    """
    z = np.asarray(z, dtype=float)
    ppf = statistics.NormalDist().inv_cdf
    tail = _std_normal_cdf(-np.abs(z))
    q = np.array([ppf(t) if t > 0.0 else -math.inf for t in tail.flat]).reshape(z.shape)
    return -np.sign(z) * q


def quantile_compose_fdp(params: ModelParams, x: np.ndarray, s) -> np.ndarray | float:
    """Evaluate the fair regressor by composing conditional CDF and quantile maps.

    Conditioned on group s, the best unconstrained predictor is Gaussian with
    mean <beta_s, mu_s> and std sigma_x * ||beta_s||; its CDF is composed with
    the weighted average of the per-group quantile functions.
    """
    norms = _check_nondegenerate(params.beta_norms)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    xm = np.atleast_2d(x)
    if xm.shape[1] != params.d:
        raise DimensionError(f"x has dimension {xm.shape[1]}, expected {params.d}")
    sv = np.full(len(xm), _check_group(s, params.M)) if np.isscalar(s) else np.asarray(s)
    _check_labels(sv, params.M, len(xm))

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
    _check_regressors(params, f, g)
    return float(_l2_distance(f.w - g.w, f.b - g.b, _ModelStack.of([params]))[0])


def _l2_distance(dw: np.ndarray, db: np.ndarray, models: _ModelStack) -> np.ndarray:
    """E[(f - g)^2] under each model, for the differences (dw, db) = (f - g).(w, b)."""
    mean_shift = _rowdot(dw, models.mu) + db
    slope_sq = _rowdot(dw, dw)
    # a risk beyond the float range reads inf; a group whose slopes agree adds
    # no slope term, also where sigma_x^2 is inf (the inf * 0 is masked out)
    with np.errstate(over="ignore", invalid="ignore"):
        slope_term = np.square(models.sigma_x)[:, None] * slope_sq
    with np.errstate(over="ignore"):
        per_group = np.where(slope_sq != 0.0, slope_term, 0.0) + mean_shift ** 2
        return _dot(models.p, per_group)


def analytic_excess_risk(f: GroupAffineRegressor, oracle: FairOracle) -> float:
    """Exact mean squared deviation of f from the population fair regressor."""
    return gaussian_l2_distance(f, oracle.fdp, oracle.params)


def true_regressor(params: ModelParams) -> GroupAffineRegressor:
    """The unconstrained optimum f(x, s) = <beta_s, x>."""
    return GroupAffineRegressor(w=params.beta, b=np.zeros(params.M))


def analytic_unfair_gap(params: ModelParams, oracle: FairOracle) -> float:
    """Price of fairness: E[(f*(X,S) - fair(X,S))^2] in closed form."""
    _check_nondegenerate(params.beta_norms)
    return gaussian_l2_distance(true_regressor(params), oracle.fdp, params)
