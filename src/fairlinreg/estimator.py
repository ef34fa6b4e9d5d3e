"""Plugin estimator: sample splitting, per-component estimates, assembly.

Each group's rows are permuted twice, independently: one permutation is cut into
norm / direction / mean blocks, the other into the intercept's coefficient / mean blocks.
``fit`` reads a block only through its statistics: its row count, Σx of the two
mean blocks, and XᵀX, Xᵀy of the three regression blocks.  The input's type
picks where they come from:

- a ``Dataset``: ``make_split`` permutes its rows and each block is formed from them;
- ``CellStats``: the statistics of each group's 3 x 2 table of cells (third i of the
  3-way permutation intersected with half j of the 2-way one), drawn from the
  model by ``sample_cell_stats`` at a cost that does not depend on n.  Every
  block is a union of cells, so its statistics are sums of cell statistics.

Component estimators are gated on per-group sample size; gated-off
components are zeroed, which can drive the assembled regressor to the zero
constant on tiny groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError
from .model import (
    Dataset,
    GroupAffineRegressor,
    ModelParams,
    _frozen_array,
    _norm,
    validate_params,
)
from .oracle import _assemble

# Condition-number ceiling on the Gram matrix before OLS is declared singular.
MAX_GRAM_CONDITION = 1e12

# A group's five blocks, in order: norm, direction and mean thirds of the 3-way
# permutation, then coefficient and mean halves of the 2-way one.
REGRESSION_BLOCKS = [0, 1, 3]
MEAN_BLOCKS = [2, 4]


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

    def blocks(self, s: int) -> list[np.ndarray]:
        """Group s's five blocks of row indices."""
        return np.array_split(self.three[s], 3) + np.array_split(self.two[s], 2)


def make_split(dataset: Dataset, seed: int | np.random.SeedSequence) -> SplitPlan:
    """Draw the 3-way permutation, then the 2-way one, for each group in turn."""
    rng = np.random.default_rng(seed)
    three, two = [], []
    for s in range(dataset.M):
        idx = dataset.group_indices(s)
        three.append(rng.permutation(idx))
        two.append(rng.permutation(idx))
    return SplitPlan(three=three, two=two)


def _split_sizes(count: int, parts: int) -> list[int]:
    """Block sizes of ``np.array_split`` of ``count`` rows into ``parts``."""
    q, r = divmod(count, parts)
    return [q + 1] * r + [q] * (parts - r)


def _solve_normal_equations(gram: np.ndarray, xty: np.ndarray) -> np.ndarray:
    """Solve gram b = xty, for one system or a stack, once every condition number passes.

    ``eigvalsh`` of each Gram matrix X^T X gates its condition number
    lambda_max / lambda_min (lambda_min <= 0 counts as infinite).  Solving
    X^T X b = X^T y squares the conditioning of X, so near the gate the
    coefficients carry a relative error of about eps * condition.
    """
    eig = np.linalg.eigvalsh(gram)
    lo, hi = eig[..., 0], eig[..., -1]
    condition = np.divide(hi, lo, out=np.full(np.shape(lo), np.inf), where=lo > 0.0)
    if np.any(condition > MAX_GRAM_CONDITION):
        raise SingularMatrixError(
            f"Gram matrix condition estimate {condition.max():.3g} exceeds {MAX_GRAM_CONDITION:.0e}"
        )
    return np.linalg.solve(gram, xty[..., None])[..., 0]


def ols(x_rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients by a solve of the normal equations; no explicit inverse."""
    x_rows = np.asarray(x_rows, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = x_rows.shape
    if m < d:
        raise SingularMatrixError(f"need at least d={d} rows, got {m}")
    return _solve_normal_equations(x_rows.T @ x_rows, x_rows.T @ y)


@dataclass(frozen=True)
class CellStats:
    """Statistics of each group's 3 x 2 table of cells.

    Cell (s, i, j) holds the rows of group s in third i of its 3-way
    permutation and half j of its 2-way one.  ``size`` is (M, 3, 2);
    ``total`` (Σx) and ``xty`` (Xᵀy) are (M, 3, 2, d); ``gram`` (XᵀX) is
    (M, 3, 2, d, d).
    """

    size: np.ndarray
    total: np.ndarray
    gram: np.ndarray
    xty: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "size", _frozen_array(self.size, "size", dtype=np.int64))
        for name in ("total", "gram", "xty"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name))
        shape = self.size.shape + self.total.shape[-1:]
        if not (
            self.size.shape[1:] == (3, 2)
            and self.total.shape == shape
            and self.xty.shape == shape
            and self.gram.shape == shape + shape[-1:]
        ):
            raise DimensionError("cell statistics need shapes (M, 3, 2) and (M, 3, 2, d[, d])")
        if np.any(self.size < 0) or self.n < 1:
            raise ParameterError("cell sizes must be nonnegative with at least one row")

    @property
    def M(self) -> int:
        return self.size.shape[0]

    @property
    def d(self) -> int:
        return self.total.shape[-1]

    @property
    def n(self) -> int:
        return int(self.size.sum())


def _cell_table(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(M, 3, 2) cell sizes of a random split of groups with these row counts.

    Half 0 of the 2-way permutation is a uniform subset of its size, so the
    number of its rows in each third is multivariate hypergeometric.
    """
    table = np.empty((len(counts), 3, 2), dtype=np.int64)
    for s, count in enumerate(counts.tolist()):
        thirds = _split_sizes(count, 3)
        table[s, :, 0] = rng.multivariate_hypergeometric(thirds, _split_sizes(count, 2)[0])
        table[s, :, 1] = thirds - table[s, :, 0]
    return table


def sample_cell_stats(
    params: ModelParams, n: int, seed: int | np.random.SeedSequence
) -> CellStats:
    """Draw the cell statistics of n i.i.d. observations without drawing the rows.

    ``fit`` on the result has the law of ``fit`` on ``sample_dataset(params, n, .)``
    with a random split.  The generator draws the group counts (one
    multinomial), each group's cell table (``_cell_table``), then every cell
    of m >= d + 1 rows at once, with x = mu + sigma_x z:

    - the centred scatter of z is Wishart(m - 1, I), drawn as A Aᵀ with A
      lower triangular, A_ii^2 ~ chi^2(m - 1 - i) and A_ij ~ N(0, 1) below
      the diagonal (Bartlett 1933; Odell and Feiveson 1966); it is
      independent of the sum of z, drawn as sqrt(m) u with u ~ N(0, I);
    - with c = sigma_x u + sqrt(m) mu and F = [sigma_x A | c], XᵀX = F Fᵀ
      and Σx = sqrt(m) c;
    - given X, Xᵀ(noise) is N(0, sigma_xi^2 XᵀX), drawn as sigma_xi F g with
      g ~ N(0, I_{d+1}), and Xᵀy = XᵀX beta + Xᵀ(noise).

    Then the rows of each smaller cell are drawn and summed; only tiny groups
    have such cells.  A draw that overflows is rejected as non-finite by the
    ``CellStats`` constructor.
    """
    report = validate_params(params)
    if report:
        raise ParameterError("invalid model parameters: " + "; ".join(report))
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    M, d, sigma_x, sigma_xi = params.M, params.d, params.sigma_x, params.sigma_xi
    table = _cell_table(rng.multinomial(n, params.p), rng)
    m = table.reshape(-1)  # cells in (group, third, half) order
    mu = np.repeat(params.mu, 6, axis=0)
    beta = np.repeat(params.beta, 6, axis=0)
    total = np.zeros((m.size, d))
    gram = np.zeros((m.size, d, d))
    xty = np.zeros((m.size, d))
    big = m > d
    k = int(big.sum())
    diag = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        a = rng.standard_normal((k, d, d)) * np.tri(d, k=-1)
        a[:, diag, diag] = np.sqrt(rng.chisquare(m[big, None] - 1.0 - diag))
        root_m = np.sqrt(m[big, None])
        c = sigma_x * rng.standard_normal((k, d)) + root_m * mu[big]
        f = np.concatenate([sigma_x * a, c[:, :, None]], axis=2)
        gram[big] = f @ f.transpose(0, 2, 1)
        total[big] = root_m * c
        noise = f @ rng.standard_normal((k, d + 1, 1))
        xty[big] = (gram[big] @ beta[big, :, None] + sigma_xi * noise)[..., 0]
        for cell in np.flatnonzero((m > 0) & ~big):
            x = mu[cell] + sigma_x * rng.standard_normal((m[cell], d))
            y = x @ beta[cell] + sigma_xi * rng.standard_normal(m[cell])
            total[cell], gram[cell], xty[cell] = x.sum(axis=0), x.T @ x, x.T @ y
    return CellStats(
        size=table,
        total=total.reshape(M, 3, 2, d),
        gram=gram.reshape(M, 3, 2, d, d),
        xty=xty.reshape(M, 3, 2, d),
    )


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


def _row_coefficients(data: Dataset, blocks: list, gated: np.ndarray) -> np.ndarray:
    """One ``ols`` on the rows of each gated regression block."""
    coef = np.zeros(gated.shape + (data.d,))
    for s, k in zip(*np.nonzero(gated)):
        # np.take gathers whole rows; x[idx] took about 4x longer on (n, d) arrays
        idx = blocks[s][REGRESSION_BLOCKS[k]]
        coef[s, k] = ols(np.take(data.x, idx, axis=0), np.take(data.y, idx))
    return coef


def _gram_coefficients(gram: np.ndarray, xty: np.ndarray, gated: np.ndarray) -> np.ndarray:
    """One batched solve of the gated blocks' normal equations."""
    coef = np.zeros(xty.shape)
    coef[gated] = _solve_normal_equations(gram[gated], xty[gated])
    return coef


def _estimate(
    sizes: np.ndarray, mean_sums: np.ndarray, coefficients
) -> tuple[GroupAffineRegressor, ComponentEstimates]:
    """The step of ``fit`` that both routes share: gates, gated solves, assembly.

    ``sizes`` (M, 5) counts the rows of each group's five blocks and
    ``mean_sums`` (M, 2, d) holds Σx of its two mean blocks.
    ``coefficients(gated)`` returns the (M, 3, d) OLS coefficients of the
    norm, direction and coefficient blocks where ``gated`` is True, zeros
    elsewhere.
    """
    M, _, d = mean_sums.shape
    counts = sizes[:, :3].sum(axis=1)
    p_hat = counts / counts.sum()
    gate_18d = counts > 18 * d
    gate_12d = counts > 12 * d
    coef = coefficients(np.column_stack([gate_18d, gate_18d, gate_12d]))

    norm_hat_s, b2_norm = np.array([[_norm(b) for b in coef[:, k]] for k in (0, 1)])
    b2_norm = b2_norm[:, None]
    dir_hat = np.divide(coef[:, 1], b2_norm, out=np.zeros((M, d)), where=b2_norm > 0.0)
    mean_sizes = sizes[:, MEAN_BLOCKS, None]
    means = np.divide(mean_sums, mean_sizes, out=np.zeros((M, 2, d)), where=mean_sizes > 0)
    mu_hat = means[:, 0]
    beta_prime_hat = coef[:, 2]
    mu_prime_hat = np.where(gate_12d[:, None], means[:, 1], 0.0)

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


def fit(
    data: Dataset | CellStats, d: int, M: int, seed: int | np.random.SeedSequence | None
) -> tuple[GroupAffineRegressor, ComponentEstimates]:
    """Fit the plugin estimator on data generated with the declared (d, M).

    A ``Dataset`` is split by ``make_split(data, seed)``.  ``CellStats`` were
    split when drawn, so ``seed`` is not used for them.
    """
    if data.d != d or data.M != M:
        raise DimensionError(
            f"data have (d, M) = ({data.d}, {data.M}), expected ({d}, {M})"
        )
    if isinstance(data, Dataset):
        split = make_split(data, seed)
        blocks = [split.blocks(s) for s in range(M)]
        sizes = np.array([[len(b) for b in group] for group in blocks])
        mean_sums = np.array(
            [[np.take(data.x, group[k], axis=0).sum(axis=0) for k in MEAN_BLOCKS] for group in blocks]
        ).reshape(M, 2, d)
        return _estimate(sizes, mean_sums, partial(_row_coefficients, data, blocks))

    def block_sums(a):  # each third is a row of the cell table, each half a column
        return np.concatenate([a.sum(axis=2), a.sum(axis=1)], axis=1)

    coefficients = partial(
        _gram_coefficients,
        block_sums(data.gram)[:, REGRESSION_BLOCKS],
        block_sums(data.xty)[:, REGRESSION_BLOCKS],
    )
    return _estimate(block_sums(data.size), block_sums(data.total)[:, MEAN_BLOCKS], coefficients)
