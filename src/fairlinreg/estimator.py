"""Plugin estimator: sample splitting, per-component estimates, assembly.

Each group's rows are split three ways (norm / direction / mean blocks) and,
independently, two ways (coefficient / mean blocks for the intercept sum).
Component estimators are gated on per-group sample size; gated-off
components are zeroed, which can drive the assembled regressor to the zero
constant on tiny groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError
from .model import Dataset, GroupAffineRegressor

# Condition-number ceiling on the Gram matrix before OLS is declared singular.
MAX_GRAM_CONDITION = 1e12


@dataclass(frozen=True)
class SplitPlan:
    """Per-group index partitions: a 3-way split and an independent 2-way split.

    d1/d2/d3 partition each group's indices exactly; dp1/dp2 partition the
    same indices again.  Block sizes are as equal as possible with remainders
    assigned to the earliest blocks.
    """

    d1: list[np.ndarray]
    d2: list[np.ndarray]
    d3: list[np.ndarray]
    dp1: list[np.ndarray]
    dp2: list[np.ndarray]


def make_split(dataset: Dataset, seed: int | np.random.SeedSequence) -> SplitPlan:
    """Randomly permute each group's indices and cut into contiguous blocks."""
    rng = np.random.default_rng(seed)
    d1, d2, d3, dp1, dp2 = [], [], [], [], []
    for s in range(dataset.M):
        idx = dataset.group_indices(s)
        three = np.array_split(rng.permutation(idx), 3)
        two = np.array_split(rng.permutation(idx), 2)
        d1.append(three[0])
        d2.append(three[1])
        d3.append(three[2])
        dp1.append(two[0])
        dp2.append(two[1])
    return SplitPlan(d1=d1, d2=d2, d3=d3, dp1=dp1, dp2=dp2)


def ols(x_rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via one SVD-based solve; no explicit inverse.

    The solve's singular values gate the Gram condition (sv_max / sv_min)^2.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = x_rows.shape
    if m < d:
        raise SingularMatrixError(f"need at least d={d} rows, got {m}")
    coef, _, _, sv = np.linalg.lstsq(x_rows, y, rcond=None)
    condition = (sv[0] / sv[-1]) ** 2 if sv[-1] > 0.0 else np.inf
    if condition > MAX_GRAM_CONDITION:
        raise SingularMatrixError(
            f"Gram matrix condition estimate {condition:.3g} exceeds {MAX_GRAM_CONDITION:.0e}"
        )
    return coef


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
    n = dataset.n

    p_hat = counts / n
    gate_18d = counts > 18 * d
    gate_12d = counts > 12 * d

    norm_hat_s = np.zeros(M)
    dir_hat = np.zeros((M, d))
    mu_hat = np.zeros((M, d))
    beta_prime_hat = np.zeros((M, d))
    mu_prime_hat = np.zeros((M, d))

    for s in range(M):
        if gate_18d[s]:
            b1 = ols(dataset.x[split.d1[s]], dataset.y[split.d1[s]])
            norm_hat_s[s] = np.linalg.norm(b1)
            b2 = ols(dataset.x[split.d2[s]], dataset.y[split.d2[s]])
            b2_norm = np.linalg.norm(b2)
            if b2_norm > 0.0:
                dir_hat[s] = b2 / b2_norm
        if len(split.d3[s]):
            mu_hat[s] = dataset.x[split.d3[s]].mean(axis=0)
        if gate_12d[s]:
            beta_prime_hat[s] = ols(dataset.x[split.dp1[s]], dataset.y[split.dp1[s]])
            mu_prime_hat[s] = dataset.x[split.dp2[s]].mean(axis=0)

    norm_hat_bar = float(p_hat @ norm_hat_s)
    const_hat = float(
        p_hat @ np.einsum("ij,ij->i", beta_prime_hat, mu_prime_hat)
    )
    w = norm_hat_bar * dir_hat
    b = const_hat - np.einsum("ij,ij->i", w, mu_hat)

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
    return GroupAffineRegressor(w=w, b=b), estimates
