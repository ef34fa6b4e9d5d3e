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

from .errors import ParameterError

# Constant in the minimum-eigenvalue tail bound (21 e^10 t / sigma_x^2)^(n/6).
TAIL_CONSTANT = 21.0 * math.exp(10.0)


@dataclass(frozen=True)
class EigDiag:
    """Extreme eigenvalues of an empirical second-moment matrix."""

    lambda_min: float
    lambda_max: float
    n: int
    d: int


def gram_eigs(x_rows: np.ndarray) -> EigDiag:
    """Extreme eigenvalues of (1/m) X^T X, from one symmetric eigensolve."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    if not np.all(np.isfinite(x_rows)):
        raise ParameterError("gram_eigs requires finite input")
    m, d = x_rows.shape
    if m < 1:
        raise ParameterError("gram_eigs requires at least one row")
    eigs = np.linalg.eigvalsh(x_rows.T @ x_rows / m)
    return EigDiag(lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]), n=m, d=d)


def min_eig_tail_bound(t: float, sigma_x: float, n: int) -> float:
    """The concentration bound (21 e^10 t / sigma_x^2)^(n/6) on P{lambda_min < t}."""
    base = TAIL_CONSTANT * t / sigma_x ** 2
    if base <= 0.0:
        return 0.0
    try:
        return base ** (n / 6.0)
    except OverflowError:
        return math.inf


def max_inv_eig_expectation_bound(sigma_x: float, d: int, n: int) -> float:
    """Bound on E[lambda_max(((1/n) X^T X)^{-1})], valid for n > 6d."""
    if n <= 6 * d:
        raise ParameterError(f"need n > 6d, got n={n}, d={d}")
    return TAIL_CONSTANT / sigma_x ** 2 * (1.0 + 6.0 / (n - 6))


@dataclass(frozen=True)
class TailRow:
    """One row of the minimum-eigenvalue tail table."""

    t: float
    empirical_tail: float
    bound: float
    vacuous: bool


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
    assert empirical <= bound.
    """
    if n <= 6 * d:
        raise ParameterError(f"need n > 6d, got n={n}, d={d}")
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (d,))
    lambda_mins = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        x = mu + sigma_x * rng.standard_normal((n, d))
        lambda_mins[r] = gram_eigs(x).lambda_min
    rows = []
    for t in t_grid:
        bound = min_eig_tail_bound(float(t), sigma_x, n)
        rows.append(
            TailRow(
                t=float(t),
                empirical_tail=float(np.mean(lambda_mins < t)),
                bound=bound,
                vacuous=bound >= 1.0,
            )
        )
    return rows

