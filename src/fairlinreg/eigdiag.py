"""Empirical second-moment eigenvalue diagnostics.

Extreme eigenvalues of (1/m) X^T X, a simulated tail check of the
small-ball concentration bound on the minimum eigenvalue, and the
companion expectation bound for the inverse's top eigenvalue.  The
bounds carry an e^10 proof constant, so many rows are vacuous (bound
above 1); those are reported but never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import _check_int, _check_real, _check_seed, _streams

# Constant in the minimum-eigenvalue tail bound (21 e^10 t / sigma_x^2)^(n/6).
TAIL_CONSTANT = 21.0 * math.exp(10.0)


@dataclass(frozen=True)
class EigDiag:
    """Extreme eigenvalues of an empirical second-moment matrix."""

    lambda_min: float
    lambda_max: float
    n: int
    d: int


def _gram_eigs(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each (1/m) X^T X in a stack x of shape (R, m, d)."""
    if not np.all(np.isfinite(x)):
        raise ParameterError("gram_eigs requires finite input")
    with np.errstate(over="ignore"):
        gram = np.swapaxes(x, 1, 2) @ x / x.shape[1]
    if not np.all(np.isfinite(gram)):
        raise ParameterError("gram_eigs: the second-moment matrix overflows")
    return np.linalg.eigvalsh(gram)


def gram_eigs(x_rows: np.ndarray) -> EigDiag:
    """Extreme eigenvalues of (1/m) X^T X, from one symmetric eigensolve."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    if x_rows.ndim != 2:
        raise DimensionError(f"gram_eigs needs one row or a 2-d array of rows, got {x_rows.ndim}-d")
    m, d = x_rows.shape
    if m < 1:
        raise ParameterError("gram_eigs requires at least one row")
    (eigs,) = _gram_eigs(x_rows[None])
    return EigDiag(lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]), n=m, d=d)


def min_eig_tail_bound(t: float, sigma_x: float, n: int) -> float:
    """The concentration bound (21 e^10 t / sigma_x^2)^(n/6) on P{lambda_min < t}."""
    t = _check_real(t, "t")
    _check_real(sigma_x, "sigma_x", "> 0")
    _check_int(n, "n", 1)
    # sigma_x ** 2 on a float raises OverflowError where sigma_x * sigma_x reads inf
    base = TAIL_CONSTANT * t / (sigma_x * sigma_x)
    if base <= 0.0:
        return 0.0
    try:
        return base ** (n / 6.0)
    except OverflowError:
        return math.inf


def max_inv_eig_expectation_bound(sigma_x: float, d: int, n: int) -> float:
    """Bound on E[lambda_max(((1/n) X^T X)^{-1})], valid for n > 6d."""
    _check_real(sigma_x, "sigma_x", "> 0")
    _check_int(d, "d", 1)
    _check_int(n, "n", 1)
    if n <= 6 * d:
        raise ParameterError(f"need n > 6d, got n={n}, d={d}")
    return TAIL_CONSTANT / (sigma_x * sigma_x) * (1.0 + 6.0 / (n - 6))


@dataclass(frozen=True)
class TailRow:
    """One row of the minimum-eigenvalue tail table."""

    t: float
    empirical_tail: float
    bound: float
    vacuous: bool


# Draw values per chunk of the tail check's reps: bounds its stack of reps to
# 256 kB (or one rep, if larger), and the stream keys it hashes at once to one
# stack's, whatever reps is.
_TAIL_VALUES = 1 << 15


def _tail_lambda_mins(
    mu: np.ndarray, sigma_x: float, d: int, n: int, reps: int, seed: int
) -> np.ndarray:
    """lambda_min((1/n) X^T X) of each rep's X = mu + sigma_x Z.

    Rep r draws its (n, d) standard normal Z from its own stream, keyed by
    (r,).  The reps are stacked _TAIL_VALUES // (n d) at a time; each stack
    builds its reps' generators in one ``_streams`` call on their keys, and
    is scaled, shifted and eigensolved together.
    """
    step = max(_TAIL_VALUES // (n * d), 1)
    stack = np.empty((min(step, reps), n, d))
    lambda_mins = np.empty(reps)
    for start in range(0, reps, step):
        x = stack[:min(step, reps - start)]
        for rep, rng in zip(x, _streams(seed, np.arange(start, start + len(x))[:, None])):
            rng.standard_normal(out=rep)
        # an overflowed draw is rejected as non-finite by _gram_eigs
        with np.errstate(over="ignore"):
            x *= sigma_x
            x += mu
        lambda_mins[start:start + len(x)] = _gram_eigs(x)[:, 0]
    return lambda_mins


def min_eig_tail_check(
    mu: np.ndarray,
    sigma_x: float,
    d: int,
    n: int,
    t_grid,
    reps: int,
    seed: int,
) -> list[TailRow]:
    """Simulate P{lambda_min((1/n) X^T X) < t} and report it next to the bound.

    Rows where the bound is >= 1 are flagged vacuous; elsewhere the caller may
    assert empirical <= bound.  Every argument is checked before any draw
    (ParameterError, or DimensionError for a mu of neither one nor d values).
    """
    _check_int(reps, "reps", 1)
    _check_real(sigma_x, "sigma_x", "> 0")
    _check_seed(seed)
    _check_int(d, "d", 1)
    _check_int(n, "n", 1)
    t_grid = [_check_real(t, "each t_grid value") for t in t_grid]
    if n <= 6 * d:
        raise ParameterError(f"need n > 6d, got n={n}, d={d}")
    mu = np.asarray(mu, dtype=float)
    if mu.shape not in ((), (d,)):
        raise DimensionError(f"mu must be a scalar or of length d={d}, got shape {mu.shape}")
    mu = np.broadcast_to(mu, (d,))
    lambda_mins = _tail_lambda_mins(mu, sigma_x, d, n, reps, seed)
    rows = []
    for t in t_grid:
        bound = min_eig_tail_bound(t, sigma_x, n)
        rows.append(
            TailRow(
                t=t,
                empirical_tail=float(np.mean(lambda_mins < t)),
                bound=bound,
                vacuous=bound >= 1.0,
            )
        )
    return rows

