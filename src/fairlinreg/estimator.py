"""Plugin estimator: sample splitting, per-component estimates, assembly.

Each group's rows are permuted twice, independently: one permutation is cut into
norm / direction / mean blocks, the other into the intercept's coefficient / mean blocks.
Component estimators are gated on per-group sample size; gated-off
components are zeroed, which can drive the assembled regressor to the zero
constant on tiny groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError
from .model import Dataset, GroupAffineRegressor
from .oracle import _assemble

# Condition-number ceiling on the Gram matrix before OLS is declared singular.
MAX_GRAM_CONDITION = 1e12


@dataclass(frozen=True)
class SplitPlan:
    """Two independent random permutations of each group's indices.

    ``fit`` cuts ``three[s]`` into the norm / direction / mean blocks and
    ``two[s]`` into the coefficient / mean blocks of the intercept sum, as
    contiguous ``np.array_split`` pieces: sizes as equal as possible, with
    remainders going to the earliest blocks.
    """

    three: list[np.ndarray]
    two: list[np.ndarray]


def make_split(dataset: Dataset, seed: int | np.random.SeedSequence) -> SplitPlan:
    """Draw the 3-way permutation, then the 2-way one, for each group in turn."""
    rng = np.random.default_rng(seed)
    three, two = [], []
    for s in range(dataset.M):
        idx = dataset.group_indices(s)
        three.append(rng.permutation(idx))
        two.append(rng.permutation(idx))
    return SplitPlan(three=three, two=two)


def ols(x_rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients by a solve of the normal equations; no explicit inverse.

    ``eigvalsh`` of the Gram matrix X^T X gates its condition number
    lambda_max / lambda_min (lambda_min <= 0 counts as infinite).  Solving
    X^T X b = X^T y squares the conditioning of X, so near the gate the
    coefficients carry a relative error of about eps * condition.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = x_rows.shape
    if m < d:
        raise SingularMatrixError(f"need at least d={d} rows, got {m}")
    gram = x_rows.T @ x_rows
    lo, hi = np.linalg.eigvalsh(gram)[[0, -1]]
    condition = hi / lo if lo > 0.0 else np.inf
    if condition > MAX_GRAM_CONDITION:
        raise SingularMatrixError(
            f"Gram matrix condition estimate {condition:.3g} exceeds {MAX_GRAM_CONDITION:.0e}"
        )
    return np.linalg.solve(gram, x_rows.T @ y)


@dataclass(frozen=True)
class ComponentEstimates:
    """Every per-component estimate entering the assembled regressor."""

    p_hat: np.ndarray          # (M,)
    norm_hat_s: np.ndarray     # (M,) per-group coefficient-norm estimates
    norm_hat_bar: float        # sum_s p_hat_s * norm_hat_s
    dir_hat: np.ndarray        # (M, d) unit vectors, or zero rows when gated off
    mu_hat: np.ndarray         # (M, d)
    beta_prime_hat: np.ndarray # (M, d)
    mu_prime_hat: np.ndarray   # (M, d)
    gate_18d: np.ndarray       # (M,) bool: n_s > 18 d
    gate_12d: np.ndarray       # (M,) bool: n_s > 12 d


def fit(
    dataset: Dataset, d: int, M: int, seed: int | np.random.SeedSequence
) -> tuple[GroupAffineRegressor, ComponentEstimates]:
    """Fit the plugin estimator on a dataset generated with the declared (d, M)."""
    if dataset.d != d or dataset.M != M:
        raise DimensionError(
            f"dataset has (d, M) = ({dataset.d}, {dataset.M}), expected ({d}, {M})"
        )
    split = make_split(dataset, seed)
    counts = dataset.group_counts
    p_hat = counts / dataset.n
    gate_18d = counts > 18 * d
    gate_12d = counts > 12 * d

    norm_hat_s = np.zeros(M)
    dir_hat = np.zeros((M, d))
    mu_hat = np.zeros((M, d))
    beta_prime_hat = np.zeros((M, d))
    mu_prime_hat = np.zeros((M, d))

    # np.take gathers whole rows; x[idx] took about 4x longer on (n, d) arrays
    for s in range(M):
        x1, x2, x3 = np.array_split(np.take(dataset.x, split.three[s], axis=0), 3)
        y1, y2, y3 = np.array_split(np.take(dataset.y, split.three[s]), 3)
        if gate_18d[s]:
            norm_hat_s[s] = np.linalg.norm(ols(x1, y1))
            b2 = ols(x2, y2)
            b2_norm = np.linalg.norm(b2)
            if b2_norm > 0.0:
                dir_hat[s] = b2 / b2_norm
        if len(x3):
            mu_hat[s] = x3.mean(axis=0)
        del x1, x2, x3, y1, y2, y3  # one group copy alive at a time bounds peak memory
        if gate_12d[s]:
            xp1, xp2 = np.array_split(np.take(dataset.x, split.two[s], axis=0), 2)
            yp1, yp2 = np.array_split(np.take(dataset.y, split.two[s]), 2)
            beta_prime_hat[s] = ols(xp1, yp1)
            mu_prime_hat[s] = xp2.mean(axis=0)
            del xp1, xp2, yp1, yp2

    norm_hat_bar = float(p_hat @ norm_hat_s)
    const_hat = float(p_hat @ np.einsum("ij,ij->i", beta_prime_hat, mu_prime_hat))
    regressor = _assemble(norm_hat_bar, dir_hat, mu_hat, const_hat)

    estimates = ComponentEstimates(
        p_hat=p_hat,
        norm_hat_s=norm_hat_s,
        norm_hat_bar=norm_hat_bar,
        dir_hat=dir_hat,
        mu_hat=mu_hat,
        beta_prime_hat=beta_prime_hat,
        mu_prime_hat=mu_prime_hat,
        gate_18d=gate_18d,
        gate_12d=gate_12d,
    )
    return regressor, estimates
