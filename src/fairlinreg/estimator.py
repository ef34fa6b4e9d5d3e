"""Plugin estimator: sample splitting, per-component estimates, assembly.

Each group's rows are permuted twice, independently: one permutation is cut into
norm / direction / mean blocks, the other into the intercept's coefficient / mean blocks.
``_gated`` gates the components on per-group sample size; gated-off blocks are
never solved and their components are zeroed, which can drive the assembled
regressor to the zero constant on tiny groups.  The input's type picks how
the gated regression blocks are fitted:

- a ``Dataset``: ``make_split`` permutes its rows and each gated block's
  gathered rows get one ``ols``;
- ``CellStats``: the statistics of each group's 3 x 2 table of cells (third i of the
  3-way permutation intersected with half j of the 2-way one), drawn from the
  model by ``sample_cell_stats`` at a cost that does not depend on n.  Every
  block is a union of cells, so its XᵀX and Xᵀy are sums of cell statistics,
  and the gated blocks are solved in one batched Gram solve.

Either way ``_estimate`` assembles the regressor from the block sizes, the
mean blocks' Σx and the regression blocks' coefficients.

Sweeps run many trials at once: ``_sample_cells`` draws a batch of trials'
cell statistics, each trial with its own model, n and generator, and
``_fit_cells`` fits them.  The draws take one pass over the generators, and
the arithmetic between them runs once for the batch; each group's cell
table takes at most two scalar hypergeometric draws (``_half_split``), the
values and generator state of numpy's ``multivariate_hypergeometric``.
``sample_cell_stats`` and ``fit`` call the same kernels on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError
from .model import (
    Dataset,
    GroupAffineRegressor,
    ModelParams,
    _check_finite,
    _check_model,
    _dot,
    _frozen_array,
    _ModelStack,
    _norm,
    _rowdot,
    _trial,
)
from .oracle import _assemble

# Condition-number ceiling on the Gram matrix before OLS is declared singular.
MAX_GRAM_CONDITION = 1e12

# numpy's hypergeometric draws take fewer rows than this.
HYPERGEOM_MAX = 10**9

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


def _split_sizes(counts: np.ndarray, parts: int) -> np.ndarray:
    """Block sizes of ``np.array_split`` of each count's rows into ``parts``, on a new last axis.

    Block j of ``count`` rows holds (count + parts - 1 - j) // parts of them.
    """
    return (counts[..., None] + np.arange(parts - 1, -1, -1)) // parts


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


def _half_split(rng, thirds: list[int], half: int) -> list[int]:
    """How many of a group's ``half`` half-0 rows fall in each of its ``thirds``.

    ``rng.multivariate_hypergeometric(thirds, half)`` to the bit, values and
    generator state alike: numpy's ``marginals`` method replayed with scalar
    ``hypergeometric`` calls, which skips most of the per-call overhead.
    Past half of the rows it draws the other half's share and subtracts, and
    it stops once nothing is left to draw; the last third takes the remainder.
    """
    t0, t1, t2 = thirds
    count = t0 + t1 + t2
    flip = half > count // 2
    left = count - half if flip else half
    x0 = x1 = 0
    if left:
        x0 = int(rng.hypergeometric(t0, t1 + t2, left))
        if left - x0:
            x1 = int(rng.hypergeometric(t1, t2, left - x0))
    drawn = [x0, x1, left - x0 - x1]
    return [t - x for t, x in zip(thirds, drawn)] if flip else drawn


def _cell_table(counts: np.ndarray, rngs: list) -> np.ndarray:
    """(T, M, 3, 2) cell sizes of a random split of each trial's groups, with (T, M) row counts.

    Half 0 of a group's 2-way permutation is a uniform subset of its size, so
    the number of its rows in each third is multivariate hypergeometric
    (``_half_split``).  Trial t's M draws come from ``rngs[t]``.  numpy draws
    hypergeometrics from fewer than 10^9 rows, so a larger group is a
    ``ParameterError``.
    """
    if counts.max() >= HYPERGEOM_MAX:
        raise ParameterError(
            f"a group of {int(counts.max())} rows is too large to split: "
            "groups must hold fewer than 10^9 rows"
        )
    thirds = _split_sizes(counts, 3)
    halves = _split_sizes(counts, 2)[..., 0].tolist()
    half0 = [
        _half_split(rng, group, half)
        for rng, groups, trial_halves in zip(rngs, thirds.tolist(), halves)
        for group, half in zip(groups, trial_halves)
    ]
    table = np.empty(thirds.shape + (2,), dtype=np.int64)
    table[..., 0] = np.reshape(half0, thirds.shape)
    table[..., 1] = thirds - table[..., 0]
    return table


def _draw_cells(models: _ModelStack, ns, rngs: list) -> tuple:
    """The random draws for the cell statistics of ``ns[t]`` observations from model t.

    Generator ``rngs[t]`` draws trial t's values in ``sample_cell_stats``'s
    order; the arithmetic between the draws runs once for all trials.
    Returns the (T, M, 3, 2) cell table; for the K cells of m >= d + 1 rows,
    in (trial, group, third, half) order, the Bartlett normals (K, d, d) and
    chi-square variates (K, d), the sum normals (K, d) and the noise normals
    (K, d + 1, 1); and, for each smaller cell, its flat index with Σx, XᵀX
    and Xᵀy of its drawn rows.  ``_sample_cells`` ignores overflow and
    invalid values: ``_cell_stats`` rejects them.
    """
    T, M, d = models.mu.shape
    counts = np.stack([rng.multinomial(n, p) for n, p, rng in zip(ns, models.p, rngs)])
    table = _cell_table(counts, rngs)
    m = table.reshape(-1)  # cells in (trial, group, third, half) order
    big = m > d
    dof = m[big, None] - 1.0 - np.arange(d)
    K = len(dof)
    bartlett, noise = np.empty((K, d, d)), np.empty((K, d + 1, 1))
    chi2, sums = np.empty((K, d)), np.empty((K, d))
    start = 0
    for rng, k in zip(rngs, big.reshape(T, -1).sum(axis=1).tolist()):
        part = slice(start, start + k)
        rng.standard_normal(out=bartlett[part])
        chi2[part] = rng.chisquare(dof[part])
        rng.standard_normal(out=sums[part])
        rng.standard_normal(out=noise[part])
        start += k
    # each generator draws its small cells after its big ones, as a trial alone does
    small = []
    for cell in np.flatnonzero((m > 0) & ~big).tolist():
        t, group = divmod(cell // 6, M)
        rng, mu, beta = rngs[t], models.mu[t, group], models.beta[t, group]
        x = mu + models.sigma_x[t] * rng.standard_normal((m[cell], d))
        y = x @ beta + models.sigma_xi[t] * rng.standard_normal(m[cell])
        small.append((cell, x.sum(axis=0), x.T @ x, x.T @ y))
    return table, bartlett, chi2, sums, noise, small


def _cell_stats(models: _ModelStack, draws: tuple) -> tuple[np.ndarray, ...]:
    """(size, total, gram, xty) of T trials' ``_draw_cells`` draws, each (T, M, 3, 2[, d[, d]]).

    Every trial's big cells are formed at once; the arithmetic of a cell
    does not depend on the other cells in the batch.  A draw that overflows
    raises ``ParameterError``, as the ``CellStats`` constructor does.
    """
    T, M, d = models.mu.shape
    table, bartlett, chi2, sums, noise, small = draws
    m = table.reshape(-1)  # cells in (trial, group, third, half) order
    big = m > d
    # each group's mean and coefficients, and each trial's sigmas, once per big cell
    mu, beta = (np.repeat(a.reshape(T * M, d), 6, axis=0)[big] for a in (models.mu, models.beta))
    sigma_x, sigma_xi = (
        np.repeat(a, 6 * M)[big, None, None] for a in (models.sigma_x, models.sigma_xi)
    )
    total = np.zeros((m.size, d))
    gram = np.zeros((m.size, d, d))
    xty = np.zeros((m.size, d))
    diag = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.empty((len(sums), d, d + 1))  # F = [sigma_x A | c], built in place
        a = f[:, :, :d]
        np.multiply(bartlett, np.tri(d, k=-1), out=a)
        a[:, diag, diag] = np.sqrt(chi2)
        a *= sigma_x
        root_m = np.sqrt(m[big, None])
        c = sigma_x[:, 0] * sums + root_m * mu
        f[:, :, d] = c
        gram[big] = big_gram = f @ f.transpose(0, 2, 1)
        total[big] = root_m * c
        xty[big] = (big_gram @ beta[:, :, None] + sigma_xi * (f @ noise))[..., 0]
    for cell, *stats in small:
        total[cell], gram[cell], xty[cell] = stats
    shape = (T, M, 3, 2)
    return (
        table,
        _check_finite(total.reshape(shape + (d,)), "total"),
        _check_finite(gram.reshape(shape + (d, d)), "gram"),
        _check_finite(xty.reshape(shape + (d,)), "xty"),
    )


def _sample_cells(models: _ModelStack, ns, rngs: list) -> tuple[np.ndarray, ...]:
    """(size, total, gram, xty) of ``ns[t]`` observations from model t, drawn by ``rngs[t]``."""
    with np.errstate(over="ignore", invalid="ignore"):
        draws = _draw_cells(models, ns, rngs)
    return _cell_stats(models, draws)


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
    have such cells.  A draw that overflows is rejected as non-finite.
    This is a batch of one of the kernels that sweeps run on many trials.
    """
    _check_model(params, n)
    rngs = [np.random.default_rng(seed)]
    size, total, gram, xty = _sample_cells(_ModelStack.of([params]), [n], rngs)
    return CellStats(size=size[0], total=total[0], gram=gram[0], xty=xty[0])


@dataclass(frozen=True)
class ComponentEstimates:
    """Every per-component estimate entering the assembled regressor.

    Inside the batch kernels every field carries a leading trial axis.
    """

    p_hat: np.ndarray          # (M,)
    norm_hat_s: np.ndarray     # (M,) per-group coefficient-norm estimates
    norm_hat_bar: float        # sum_s p_hat_s * norm_hat_s
    dir_hat: np.ndarray        # (M, d) unit vectors, or zero rows when gated off
    mu_hat: np.ndarray         # (M, d)
    beta_prime_hat: np.ndarray # (M, d)
    mu_prime_hat: np.ndarray   # (M, d)
    gate_18d: np.ndarray       # (M,) bool: n_s > 18 d
    gate_12d: np.ndarray       # (M,) bool: n_s > 12 d


def _gated(sizes: np.ndarray, d: int) -> np.ndarray:
    """Which of each group's norm, direction and coefficient blocks ``fit`` solves, (T, M, 3).

    ``sizes`` (T, M, 5) counts the rows of each group's five blocks.  The norm
    and direction blocks need n_s > 18 d rows in the group, the coefficient
    block n_s > 12 d.
    """
    counts = sizes[..., :3].sum(axis=-1)
    return np.stack([counts > 18 * d, counts > 18 * d, counts > 12 * d], axis=-1)


def _estimate(
    sizes: np.ndarray, mean_sums: np.ndarray, coef: np.ndarray
) -> tuple[np.ndarray, np.ndarray, ComponentEstimates]:
    """The step of ``fit`` that both routes share: the estimates and their assembly.

    For T trials at once: ``sizes`` (T, M, 5) counts the rows of each
    group's five blocks, ``mean_sums`` (T, M, 2, d) holds Σx of its two
    mean blocks, and ``coef`` (T, M, 3, d) the OLS coefficients of its norm,
    direction and coefficient blocks where ``_gated`` is True, zeros
    elsewhere.  Returns the regressors' w (T, M, d) and b (T, M) and the
    estimates, each per trial.
    """
    d = mean_sums.shape[-1]
    counts = sizes[..., :3].sum(axis=-1)
    p_hat = counts / counts.sum(axis=-1, keepdims=True)
    gated = _gated(sizes, d)
    gate_18d, gate_12d = gated[..., 0], gated[..., 2]

    norm_hat_s = _norm(coef[..., 0, :])
    b2_norm = _norm(coef[..., 1, :])[..., None]
    dir_hat = np.divide(
        coef[..., 1, :], b2_norm, out=np.zeros(coef[..., 1, :].shape), where=b2_norm > 0.0
    )
    mean_sizes = sizes[..., MEAN_BLOCKS, None]
    means = np.divide(mean_sums, mean_sizes, out=np.zeros(mean_sums.shape), where=mean_sizes > 0)
    mu_hat = means[..., 0, :]
    beta_prime_hat = coef[..., 2, :]
    mu_prime_hat = np.where(gate_12d[..., None], means[..., 1, :], 0.0)

    norm_hat_bar = _dot(p_hat, norm_hat_s)
    const_hat = _dot(p_hat, _rowdot(beta_prime_hat, mu_prime_hat))
    w, b = _assemble(norm_hat_bar, dir_hat, mu_hat, const_hat)

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
    return w, b, estimates


def _fit_cells(
    size: np.ndarray, total: np.ndarray, gram: np.ndarray, xty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, ComponentEstimates]:
    """``fit`` on T trials' cell statistics, each with a leading trial axis, as one batch."""
    # each third is a row of a group's cell table, each half a column
    size, total, gram, xty = (
        np.concatenate([a.sum(axis=3), a.sum(axis=2)], axis=2) for a in (size, total, gram, xty)
    )
    gram, xty = gram[:, :, REGRESSION_BLOCKS], xty[:, :, REGRESSION_BLOCKS]
    gated = _gated(size, total.shape[-1])
    coef = np.zeros(xty.shape)
    coef[gated] = _solve_normal_equations(gram[gated], xty[gated])
    return _estimate(size, total[:, :, MEAN_BLOCKS], coef)


def _fit_rows(data: Dataset, split: SplitPlan) -> tuple[np.ndarray, np.ndarray, ComponentEstimates]:
    """``fit`` on a split ``Dataset`` as a batch of one: one ``ols`` per gated regression block."""
    M, d = data.M, data.d
    blocks = [split.blocks(s) for s in range(M)]
    sizes = np.array([[len(idx) for idx in group] for group in blocks])[None]
    # np.take gathers whole rows; x[idx] took about 4x longer on (n, d) arrays
    mean_sums = np.array(
        [[np.take(data.x, group[k], axis=0).sum(axis=0) for k in MEAN_BLOCKS] for group in blocks]
    ).reshape(1, M, 2, d)
    coef = np.zeros((1, M, 3, d))
    with np.errstate(over="ignore", invalid="ignore"):  # an XᵀX that overflows fails its gate
        for s, j in zip(*np.nonzero(_gated(sizes, d)[0])):
            idx = blocks[s][REGRESSION_BLOCKS[j]]
            coef[0, s, j] = ols(np.take(data.x, idx, axis=0), np.take(data.y, idx))
    return _estimate(sizes, mean_sums, coef)


def fit(
    data: Dataset | CellStats, d: int, M: int, seed: int | np.random.SeedSequence | None
) -> tuple[GroupAffineRegressor, ComponentEstimates]:
    """Fit the plugin estimator on data generated with the declared (d, M).

    A ``Dataset`` needs at least one row and is split by ``make_split(data,
    seed)``.  ``CellStats`` were split when drawn, so ``seed`` is not used
    for them.
    """
    if data.d != d or data.M != M:
        raise DimensionError(
            f"data have (d, M) = ({data.d}, {data.M}), expected ({d}, {M})"
        )
    if isinstance(data, Dataset):
        if data.n < 1:
            raise ParameterError("dataset must hold at least one row")
        w, b, estimates = _fit_rows(data, make_split(data, seed))
    else:
        cells = (data.size, data.total, data.gram, data.xty)
        w, b, estimates = _fit_cells(*(a[None] for a in cells))
    return GroupAffineRegressor(w=w[0], b=b[0]), _trial(estimates, 0)
