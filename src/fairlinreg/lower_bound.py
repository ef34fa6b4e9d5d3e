"""Minimax lower-bound machinery.

Hard-instance packing over sign patterns, randomized-greedy binary codes
with a per-block Hamming-distance guarantee, exact KL divergence between
conditional data laws, a two-point risk lower bound, and Fano-bound
assembly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import ModelParams, _frozen_array, _is_int, _rowdot, norm_diversity_factor
from .oracle import build_fdp


@dataclass(frozen=True)
class PackedFamily:
    """Hard-instance family indexed by sign matrices v in {-1,+1}^{M x (d-1)}.

    Every member has mu = 0 and per-group coefficient norm exactly B_s: the
    first coordinate carries sqrt(1 - eps_s^2) of the direction and the sign
    block spreads eps_s over the remaining d-1 coordinates.
    """

    d: int
    M: int
    B_s: np.ndarray    # (M,)
    eps_s: np.ndarray  # (M,)

    def __post_init__(self):
        object.__setattr__(self, "B_s", _frozen_array(self.B_s, "B_s"))
        object.__setattr__(self, "eps_s", _frozen_array(self.eps_s, "eps_s"))

    def beta_of(self, v: np.ndarray) -> np.ndarray:
        """Materialize the (M, d) coefficient matrix for a sign pattern v."""
        v = np.asarray(v)
        if v.shape != (self.M, self.d - 1):
            raise DimensionError(
                f"v has shape {v.shape}, expected ({self.M}, {self.d - 1})"
            )
        beta = np.empty((self.M, self.d))
        beta[:, 0] = self.B_s * np.sqrt(1.0 - self.eps_s ** 2)
        beta[:, 1:] = (
            self.B_s[:, None] * v * (self.eps_s / math.sqrt(self.d - 1))[:, None]
        )
        return beta

    def params_of(
        self, v: np.ndarray, p: np.ndarray, sigma_x: float, sigma_xi: float
    ) -> ModelParams:
        """The realized model for pattern v, with the tightest feasible B."""
        p = np.asarray(p, dtype=float)
        beta = self.beta_of(v)
        # B must cover both the max norm and the norm-diversity factor.
        B = max(float(self.B_s.max()), math.sqrt(norm_diversity_factor(p, self.B_s)))
        return ModelParams(
            d=self.d,
            M=self.M,
            beta=beta,
            mu=np.zeros((self.M, self.d)),
            p=p,
            sigma_x=sigma_x,
            sigma_xi=sigma_xi,
            B=B,
            U=1.0,
        )


def build_family(d: int, M: int, B_s, eps_s) -> PackedFamily:
    """Validate and assemble a packed hard-instance family."""
    if d < 2:
        raise ParameterError(f"need d >= 2, got d={d}")
    B_s = np.broadcast_to(np.asarray(B_s, dtype=float), (M,))
    eps_s = np.broadcast_to(np.asarray(eps_s, dtype=float), (M,))
    if np.any(B_s <= 0.0):
        raise ParameterError("B_s must be positive")
    if np.any(eps_s <= 0.0) or np.any(eps_s > 1.0):
        raise ParameterError(f"eps_s must lie in (0, 1], got {eps_s}")
    return PackedFamily(d=d, M=M, B_s=B_s, eps_s=eps_s)


def block_hamming(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-block Hamming distances of sign matrices, broadcast over leading axes."""
    return np.count_nonzero(np.asarray(v) != np.asarray(w), axis=-1)


@dataclass(frozen=True)
class CodeSet:
    """A set of sign matrices with a guaranteed per-block minimum distance."""

    codewords: np.ndarray  # (K, blocks, block_length) int8
    min_block_distance: int

    @property
    def size(self) -> int:
        return len(self.codewords)


def gv_code(
    block_length: int, blocks: int, min_dist: int, budget: int, seed: int
) -> CodeSet:
    """Randomized-greedy code search with a per-block distance criterion.

    Draw uniform sign matrices and accept each candidate whose Hamming
    distance to every accepted codeword is >= min_dist in every block.
    The achieved set size depends on the budget; it is reported, never
    asserted against an existential bound.

    All ``budget`` candidates are drawn at once (the same draws, in the same
    order, as one at a time) and the greedy runs as an elimination pass:
    accepting the first surviving candidate removes every later one too
    close to it, so the pass takes one step per accepted codeword.
    """
    if block_length < 1:
        raise ParameterError(f"block length must be >= 1, got {block_length}")
    if not _is_int(budget) or budget < 0:
        raise ParameterError(f"budget must be an integer >= 0, got {budget!r}")
    rng = np.random.default_rng(seed)
    draws = rng.choice((-1, 1), size=(budget, blocks, block_length)).astype(np.int8)
    signs = _block_signs(draws)  # (blocks, surviving candidates, block_length)
    live = np.arange(budget)
    # per survivor: its least block distance to the codewords accepted so far
    closest = np.full(budget, float(block_length))
    accepted = []
    achieved = float(block_length)  # max possible per-block distance
    while live.size:
        accepted.append(live[0])
        achieved = min(achieved, closest[0])
        dists = _block_hamming_from_signs(signs[:, 1:], signs[:, :1])[..., 0]
        if min_dist >= 1:
            ok = (dists >= min_dist).all(axis=0)
        else:
            ok = dists.any(axis=0)  # reject only duplicates
        closest = np.minimum(closest[1:], dists.min(axis=0, initial=block_length))[ok]
        live = live[1:][ok]
        signs = signs[:, 1:][:, ok]
    return CodeSet(codewords=draws[accepted], min_block_distance=int(achieved))


def _block_signs(codewords: np.ndarray) -> np.ndarray:
    """(K, blocks, L) sign matrices as a (blocks, K, L) float array for Gram products."""
    return np.ascontiguousarray(codewords.transpose(1, 0, 2), dtype=float)


def _block_hamming_from_signs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(blocks, R, C) per-block Hamming distances of two (blocks, ., L) sign stacks.

    Two +-1 rows of length L that agree in a places have dot product
    a - (L - a), so their Hamming distance is (L - dot) / 2; the dot
    products are small integers and exact in float.
    """
    return (rows.shape[-1] - rows @ cols.transpose(0, 2, 1)) / 2.0


def _check_shared(theta: ModelParams, theta_prime: ModelParams) -> None:
    if theta.d != theta_prime.d or theta.M != theta_prime.M:
        raise DimensionError("the two parameter sets have different (d, M)")
    if (
        theta.sigma_x != theta_prime.sigma_x
        or theta.sigma_xi != theta_prime.sigma_xi
        or not np.array_equal(theta.p, theta_prime.p)
    ):
        raise ParameterError("sigma_x, sigma_xi and p must be shared")


def kl_conditional(
    theta: ModelParams, theta_prime: ModelParams, n_counts
) -> float:
    """KL divergence between the conditional data laws given group counts.

    Per observation in group s the divergence is
    ||dmu||^2/(2 sigma_x^2) + sigma_x^2 ||dbeta||^2 / (2 sigma_xi^2)
    + <mu_s, dbeta>^2 / (2 sigma_xi^2), summed with weights n_s.
    """
    _check_shared(theta, theta_prime)
    n_counts = np.asarray(n_counts, dtype=float)
    if n_counts.shape != (theta.M,):
        raise DimensionError(f"n_counts must have length {theta.M}")
    if theta.sigma_xi <= 0.0:
        raise ParameterError("kl_conditional requires sigma_xi > 0")
    dmu = theta.mu - theta_prime.mu
    dbeta = theta.beta - theta_prime.beta
    sx2, sxi2 = np.square(theta.sigma_x), np.square(theta.sigma_xi)
    per = (
        np.einsum("ij,ij->i", dmu, dmu) / (2.0 * sx2)
        + sx2 * np.einsum("ij,ij->i", dbeta, dbeta) / (2.0 * sxi2)
        + np.einsum("ij,ij->i", theta.mu, dbeta) ** 2 / (2.0 * sxi2)
    )
    return float(n_counts @ per)


def kl_conditional_sample(
    theta: ModelParams,
    theta_prime: ModelParams,
    n_counts,
    n_mc: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo KL via exact Gaussian log-density ratios.

    Each rep draws one observation per group from theta and weighs its
    log-likelihood ratio by n_s; returns (mean, standard error) over reps.
    """
    _check_shared(theta, theta_prime)
    if not _is_int(n_mc) or n_mc < 2:
        raise ParameterError(f"n_mc must be an integer >= 2, got {n_mc!r}")
    n_counts = np.asarray(n_counts, dtype=float)
    if n_counts.shape != (theta.M,):
        raise DimensionError(f"n_counts must have length {theta.M}")
    rng = np.random.default_rng(seed)
    sx2, sxi2 = np.square(theta.sigma_x), np.square(theta.sigma_xi)
    # log N(x; mu, sx^2 I) - log N(x; mu', sx^2 I) is affine in x
    x_slope = 2.0 * (theta.mu - theta_prime.mu)
    x_shift = _rowdot(theta_prime.mu, theta_prime.mu) - _rowdot(theta.mu, theta.mu)
    total = np.zeros(n_mc)
    for s in range(theta.M):
        x = theta.mu[s] + theta.sigma_x * rng.standard_normal((n_mc, theta.d))
        x_beta = x @ theta.beta[s]
        y = x_beta + theta.sigma_xi * rng.standard_normal(n_mc)
        llr_x = (x @ x_slope[s] + x_shift[s]) / (2.0 * sx2)
        llr_y = ((y - x @ theta_prime.beta[s]) ** 2 - (y - x_beta) ** 2) / (2.0 * sxi2)
        total += n_counts[s] * (llr_x + llr_y)
    est = float(total.mean())
    se = float(total.std(ddof=1) / math.sqrt(n_mc))
    return est, se


def packed_pair_kl(
    family: PackedFamily,
    v: np.ndarray,
    v_prime: np.ndarray,
    n_counts,
    sigma_x: float,
    sigma_xi: float,
) -> np.ndarray:
    """Closed-form KL of packed pairs (mu = 0), broadcast over leading axes."""
    return _kl_of_distance(family, block_hamming(v, v_prime), n_counts, sigma_x, sigma_xi)


def _kl_of_distance(
    family: PackedFamily, d_h: np.ndarray, n_counts, sigma_x: float, sigma_xi: float
) -> np.ndarray:
    """Packed-pair KL from per-block Hamming distances d_h (..., M)."""
    n_counts = np.asarray(n_counts, dtype=float)
    per = (
        2.0
        * np.square(sigma_x)
        * family.B_s ** 2
        * n_counts
        * family.eps_s ** 2
        * d_h
        / (np.square(sigma_xi) * (family.d - 1))
    )
    return per.sum(axis=-1)


def packed_pair_separation(
    family: PackedFamily, v: np.ndarray, v_prime: np.ndarray, p, sigma_x: float
) -> np.ndarray:
    """Two-point risk separation of packed pairs, broadcast over leading axes.

    Equals one quarter of the exact L2 distance between the members' fair
    regressors — the value of the two-point lower bound at mu = 0.
    """
    return _separation_of_distance(family, block_hamming(v, v_prime), p, sigma_x)


def _separation_of_distance(
    family: PackedFamily, d_h: np.ndarray, p, sigma_x: float
) -> np.ndarray:
    """Packed-pair separation from per-block Hamming distances d_h (..., M)."""
    p = np.asarray(p, dtype=float)
    bar = float(p @ family.B_s)
    try:
        bar_sq = bar ** 2
    except OverflowError:
        raise ParameterError(
            f"the weighted norm p . B_s = {bar:.6g} is too large to square"
        ) from None
    per = p * bar_sq * np.square(sigma_x) * family.eps_s ** 2 * d_h / (family.d - 1)
    return per.sum(axis=-1)


# Pairs per step of the code's pair reduction: bounds its working memory
# (about _PAIR_CHUNK * M * 8 bytes per array) whatever the code size.
_PAIR_CHUNK = 8192


def _worst_pairs(
    code: CodeSet, families: list, n_counts: list, p, sigma_x: float, sigma_xi: float
) -> tuple[list[float], list[float]]:
    """Each family's largest pairwise KL and smallest pairwise separation over a code.

    families[k] with n_counts[k] is scored on every pair i < j of codewords.
    A pair's per-block Hamming distances do not depend on the family, so
    they are computed once, from per-block Gram products, in row chunks of
    at most _PAIR_CHUNK pairs, and every family is folded in chunk by chunk.
    Each pair's (M,) terms stay a contiguous last axis, so its sum, and
    every value, is the same as ``packed_pair_kl``/``packed_pair_separation``
    give for that pair.  A code of fewer than 2 codewords gives 0 and inf.
    """
    K = code.size
    signs = _block_signs(code.codewords)
    kl_max = [0.0] * len(families)
    eps_min = [math.inf] * len(families)
    start = 0
    while start < K - 1:
        stop = min(start + max(_PAIR_CHUNK // (K - 1 - start), 1), K - 1)
        # rows start..stop-1 against columns start+1..K-1; keep column j > row i
        d_h = _block_hamming_from_signs(signs[:, start:stop], signs[:, start + 1:])
        upper = np.triu(np.ones(d_h.shape[1:], dtype=bool))
        d_h = np.ascontiguousarray(d_h.transpose(1, 2, 0)[upper])  # (pairs, M)
        for k, (family, counts) in enumerate(zip(families, n_counts)):
            kl = _kl_of_distance(family, d_h, counts, sigma_x, sigma_xi)
            sep = _separation_of_distance(family, d_h, p, sigma_x)
            kl_max[k] = max(kl_max[k], float(kl.max()))
            eps_min[k] = min(eps_min[k], float(sep.min()))
        start = stop
    return kl_max, eps_min


@dataclass(frozen=True)
class TwoPointBound:
    """Two-point minimax lower bound on the worse of two excess risks.

    value includes the squared intercept-mismatch term; simplified keeps
    only the slope-difference term.
    """

    value: float
    simplified: float


def two_point_bound(theta: ModelParams, theta_prime: ModelParams) -> TwoPointBound:
    """Lower-bound inf_f max(E(f; theta), E(f; theta')) in closed form.

    Requires the mean shifts to be small: ||mu_s - mu'_s||^2 / (2 sigma_x^2)
    must be < 1 for every group.
    """
    _check_shared(theta, theta_prime)
    u = build_fdp(theta).fdp.w
    u_prime = build_fdp(theta_prime).fdp.w
    sx2 = np.square(theta.sigma_x)
    d = theta.d

    dmu = theta.mu - theta_prime.mu
    mu_bar = 0.5 * (theta.mu + theta_prime.mu)
    dmu_sq = np.einsum("ij,ij->i", dmu, dmu)
    d_s = dmu_sq / (2.0 * sx2)
    if np.any(d_s >= 1.0):
        raise ParameterError(
            f"mean shifts too large for the two-point bound: max d_s = {d_s.max():.6g} >= 1"
        )
    q_s = dmu_sq / (4.0 * sx2)

    v_s = u - u_prime
    dbeta = theta.beta - theta_prime.beta
    sbeta = theta.beta + theta_prime.beta
    const_shift = float(
        theta.p
        @ (
            np.einsum("ij,ij->i", dbeta, mu_bar)
            + 0.5 * np.einsum("ij,ij->i", sbeta, dmu)
        )
    )
    c_s = -0.5 * np.einsum("ij,ij->i", u + u_prime, dmu) + const_shift

    damp = np.exp(-d_s) / 4.0
    slope_term = sx2 * np.einsum("ij,ij->i", v_s, v_s) * (1.0 + q_s) ** -(1.0 + d / 2.0)
    intercept_term = c_s ** 2 * (1.0 + q_s) ** -(d / 2.0)
    value = float(theta.p @ (damp * (slope_term + intercept_term)))
    simplified = float(theta.p @ (damp * slope_term))
    return TwoPointBound(value=value, simplified=simplified)


def fano_value(epsilon: float, K: int, avg_kl: float) -> float:
    """Fano lower bound epsilon * (1 - (avg_kl + ln 2)/ln K), clipped at 0.

    avg_kl should upper-bound the mixture-averaged KL; the max pairwise KL
    over the code is a valid choice.
    """
    if K < 2:
        raise ParameterError(f"Fano bound needs K >= 2 hypotheses, got {K}")
    return max(epsilon * (1.0 - (avg_kl + math.log(2.0)) / math.log(K)), 0.0)


def _packing_B_s(d: int, M: int, B_s) -> np.ndarray:
    """B_s as an (M,) array, after checking the packing's geometry and B_s > 0 finite."""
    if not (d >= 2 and M >= 1 and M * (d - 1) > 16):
        raise ParameterError(f"need d >= 2, M >= 1 and M(d-1) > 16, got d={d}, M={M}")
    B_s = np.broadcast_to(np.asarray(B_s, dtype=float), (M,))
    if not np.all(np.isfinite(B_s) & (B_s > 0.0)):
        raise ParameterError(f"B_s must be positive and finite, got {B_s}")
    return B_s


def hard_instance_eps(
    d: int, M: int, sigma_xi: float, sigma_x: float, B_s, n_counts
) -> np.ndarray:
    """The per-group packing radii eps_s for the hard instance family.

    eps_s^2 = ((d-1)/16 - 1/M) * sigma_xi^2 / (2 sigma_x^2 B_s^2 n_s),
    clamped to (0, 1] with a warning when small n pushes it above 1.
    """
    B_s = _packing_B_s(d, M, B_s)
    n_counts = np.broadcast_to(np.asarray(n_counts, dtype=float), (M,))
    # an overflowed square gives a radius of 0, inf or NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        eps_sq = (
            ((d - 1) / 16.0 - 1.0 / M)
            * np.square(sigma_xi)
            / (2.0 * np.square(sigma_x) * B_s ** 2 * n_counts)
        )
    if not np.all(np.isfinite(eps_sq) & (eps_sq > 0.0)):
        raise ParameterError(
            "packing radius is 0 or not finite: sigma_xi = 0, or sigma_xi or sigma_x B_s n "
            "is too large to square"
        )
    eps = np.sqrt(eps_sq)
    if np.any(eps > 1.0):
        warnings.warn(
            "packing radius clamped to 1 for some groups (sample sizes too small)",
            stacklevel=2,
        )
        eps = np.minimum(eps, 1.0)
    return eps
