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
from .model import (
    ModelParams,
    _check_int,
    _check_real,
    _frozen_array,
    _rng,
    _rowdot,
    norm_diversity_factor,
)
from .oracle import build_fdp


@dataclass(frozen=True)
class PackedFamily:
    """Hard-instance family indexed by sign matrices v in {-1,+1}^{M x (d-1)}.

    Every member has mu = 0 and per-group coefficient norm exactly B_s: the
    first coordinate carries sqrt(1 - eps_s^2) of the direction and the sign
    block spreads eps_s over the remaining d-1 coordinates.  Construction
    checks the family: integers d >= 2 and M >= 1, B_s and eps_s one value
    or M of them, each B_s finite and positive, each eps_s in (0, 1].
    """

    d: int
    M: int
    B_s: np.ndarray    # (M,)
    eps_s: np.ndarray  # (M,)

    def __post_init__(self):
        object.__setattr__(self, "d", _check_int(self.d, "d", 2))
        object.__setattr__(self, "M", _check_int(self.M, "M", 1))
        B_s, eps_s = (_per_group(getattr(self, name), self.M, name) for name in ("B_s", "eps_s"))
        if not np.all(B_s > 0.0):
            raise ParameterError(f"B_s must be positive, got {B_s}")
        if not np.all((eps_s > 0.0) & (eps_s <= 1.0)):
            raise ParameterError(f"eps_s must lie in (0, 1], got {eps_s}")
        object.__setattr__(self, "B_s", B_s)
        object.__setattr__(self, "eps_s", eps_s)

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


def _per_group(values, M: int, name: str) -> np.ndarray:
    """``values`` as a read-only (M,) float array: finite numbers, one or M of them."""
    out = np.empty(M)
    try:
        out[:] = _frozen_array(values, name)
    except ValueError:
        raise DimensionError(f"{name} needs one value or M={M}, got {values!r}") from None
    out.setflags(write=False)
    return out


def build_family(d: int, M: int, B_s, eps_s) -> PackedFamily:
    """A packed hard-instance family; ``PackedFamily`` checks it."""
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


# Candidates per step of ``gv_code``'s greedy: its distances among a chunk's
# survivors cost _GV_CHUNK^2 per block, and its scan one step per survivor.
_GV_CHUNK = 64
# Accepted codewords per Gram product of a chunk against them: bounds that
# product to (blocks, _GV_SLICE, _GV_CHUNK) floats, 4 MB at 8 blocks, however
# many codewords the search has accepted.
_GV_SLICE = 1024
# Candidates per draw, a multiple of _GV_CHUNK: bounds the drawn signs to
# _GV_DRAW * blocks * block_length int64 values whatever the budget.
_GV_DRAW = 1024


def gv_code(
    block_length: int, blocks: int, min_dist: int, budget: int, seed: int
) -> CodeSet:
    """Randomized-greedy code search with a per-block distance criterion.

    Draw uniform sign matrices and accept each candidate whose Hamming
    distance to every accepted codeword is >= min_dist in every block.
    The achieved set size depends on the budget; it is reported, never
    asserted against an existential bound.

    The candidates are drawn _GV_DRAW at a time (the same draws, in the same
    order, as one at a time), and the greedy walks them in chunks of
    _GV_CHUNK.  Gram products against each _GV_SLICE accepted codewords give
    a chunk's block distances to the codewords accepted so far, and only the
    candidates far enough from all of them survive; one more gives the
    distances among the survivors, and a forward scan accepts each survivor
    still live and drops the later ones too close to it.  Codewords and
    distance are those of the one-at-a-time greedy, and only the accepted
    codewords are kept.  block_length and blocks are integers >= 1, and
    min_dist an integer >= 0, where 0 rejects only duplicates.
    """
    for name, value, least in (
        ("block_length", block_length, 1), ("blocks", blocks, 1),
        ("min_dist", min_dist, 0), ("budget", budget, 0),
    ):
        _check_int(value, name, least)
    rng = _rng(seed)
    codewords = [np.empty((0, blocks, block_length), dtype=np.int8)]
    # the accepted codewords' signs, room for every candidate: only the pages
    # of accepted ones are touched.  Made before any chunk's temporaries, so
    # that glibc does not trim it off the heap's top and fault it in again on
    # the next call
    codes = np.empty((blocks, budget, block_length))
    n_accepted = 0
    achieved = float(block_length)  # max possible per-block distance
    for start in range(0, budget, _GV_CHUNK):
        if start % _GV_DRAW == 0:
            size = (min(_GV_DRAW, budget - start), blocks, block_length)
            draws = rng.choice((-1, 1), size=size).astype(np.int8)
        drawn = draws[start % _GV_DRAW:start % _GV_DRAW + _GV_CHUNK]
        chunk = _block_signs(drawn)
        far = np.ones(chunk.shape[1], dtype=bool)
        closest = np.full(chunk.shape[1], float(block_length))
        for k in range(0, n_accepted, _GV_SLICE):
            dists = _block_hamming_from_signs(codes[:, k:min(k + _GV_SLICE, n_accepted)], chunk)
            far &= _compatible(dists, min_dist).all(axis=0)
            np.minimum(closest, dists.min(axis=(0, 1)), out=closest)
        survivors = np.flatnonzero(far)
        closest = closest[survivors]
        signs = chunk[:, survivors]
        inner = _block_hamming_from_signs(signs, signs)
        compatible = _compatible(inner, min_dist)
        live = np.ones(len(survivors), dtype=bool)
        taken = []
        for i in range(len(survivors)):
            if live[i]:
                taken.append(i)
                live &= compatible[i]
        near = inner.min(axis=0, initial=block_length)[np.ix_(taken, taken)]
        np.fill_diagonal(near, block_length)
        achieved = min(achieved, closest[taken].min(initial=achieved), near.min(initial=achieved))
        codewords.append(drawn[survivors[taken]])
        codes[:, n_accepted:n_accepted + len(taken)] = signs[:, taken]
        n_accepted += len(taken)
    return CodeSet(codewords=np.concatenate(codewords), min_block_distance=int(achieved))


def _compatible(dists: np.ndarray, min_dist: int) -> np.ndarray:
    """Which pairs of sign matrices may both be codewords, from (blocks, R, C) block distances.

    At least min_dist in every block, or, for min_dist 0, not equal.
    """
    if min_dist >= 1:
        return (dists >= min_dist).all(axis=0)
    return dists.any(axis=0)


def _block_signs(codewords: np.ndarray) -> np.ndarray:
    """(K, blocks, L) sign matrices as a (blocks, K, L) float array for Gram products."""
    return np.ascontiguousarray(codewords.transpose(1, 0, 2), dtype=float)


def _block_hamming_from_signs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(blocks, R, C) per-block Hamming distances of two (blocks, ., L) sign stacks.

    Two +-1 rows of length L that agree in a places have dot product
    a - (L - a), so their Hamming distance is (L - dot) / 2; the dot
    products are small integers and exact in float.  The distances overwrite
    the products, so a large stack holds one (blocks, R, C) array, not three.
    """
    dots = rows @ cols.transpose(0, 2, 1)
    return np.divide(np.subtract(rows.shape[-1], dots, out=dots), 2.0, out=dots)


def _check_counts(n_counts, M: int) -> np.ndarray:
    """n_counts as an (M,) float array of finite, nonnegative group counts."""
    n_counts = _frozen_array(n_counts, "n_counts")
    if n_counts.shape != (M,):
        raise DimensionError(f"n_counts must have length {M}")
    if np.any(n_counts < 0.0):
        raise ParameterError(f"n_counts must be nonnegative, got {n_counts}")
    return n_counts


def _check_shared(theta: ModelParams, theta_prime: ModelParams, n_counts=None):
    """``_check_counts`` of n_counts, once the models share (d, M), sigma_x, sigma_xi and p."""
    if theta.d != theta_prime.d or theta.M != theta_prime.M:
        raise DimensionError("the two parameter sets have different (d, M)")
    if (
        theta.sigma_x != theta_prime.sigma_x
        or theta.sigma_xi != theta_prime.sigma_xi
        or not np.array_equal(theta.p, theta_prime.p)
    ):
        raise ParameterError("sigma_x, sigma_xi and p must be shared")
    return None if n_counts is None else _check_counts(n_counts, theta.M)


def kl_conditional(theta: ModelParams, theta_prime: ModelParams, n_counts) -> float:
    """KL divergence between the conditional data laws given group counts.

    Per observation in group s the divergence is
    ||dmu||^2/(2 sigma_x^2) + sigma_x^2 ||dbeta||^2 / (2 sigma_xi^2)
    + <mu_s, dbeta>^2 / (2 sigma_xi^2), summed with weights n_s.
    """
    n_counts = _check_shared(theta, theta_prime, n_counts)
    _check_real(theta.sigma_xi, "sigma_xi", "> 0")
    dmu = theta.mu - theta_prime.mu
    dbeta = theta.beta - theta_prime.beta
    sx2, sxi2 = np.square(theta.sigma_x), np.square(theta.sigma_xi)
    per = (
        _rowdot(dmu, dmu) / (2.0 * sx2)
        + sx2 * _rowdot(dbeta, dbeta) / (2.0 * sxi2)
        + _rowdot(theta.mu, dbeta) ** 2 / (2.0 * sxi2)
    )
    return float(n_counts @ per)


# Feature values per chunk of ``kl_conditional_sample``'s draws: bounds its
# working memory to a few n_mc vectors plus one chunk, 256 kB, whatever d.
_MC_VALUES = 1 << 15


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
    Each group draws its (n_mc, d) features, then its n_mc noise terms, in
    chunks of _MC_VALUES // d rows: a generator's draws do not depend on how
    they are split across calls, and each row's arithmetic is the same, so
    the result is that of one whole-array draw.
    """
    n_counts = _check_shared(theta, theta_prime, n_counts)
    _check_real(theta.sigma_xi, "sigma_xi", "> 0")
    _check_int(n_mc, "n_mc", 2)
    rng = _rng(seed)
    sx2, sxi2 = np.square(theta.sigma_x), np.square(theta.sigma_xi)
    # log N(x; mu, sx^2 I) - log N(x; mu', sx^2 I) is affine in x
    x_slope = 2.0 * (theta.mu - theta_prime.mu)
    x_shift = _rowdot(theta_prime.mu, theta_prime.mu) - _rowdot(theta.mu, theta.mu)
    step = max(_MC_VALUES // theta.d, 1)
    chunks = [slice(start, min(start + step, n_mc)) for start in range(0, n_mc, step)]
    total = np.zeros(n_mc)
    # x @ beta_s, x @ beta'_s and x @ x_slope_s of every row: a group's noise
    # is drawn after all of its features
    x_beta, x_beta_prime, x_dmu = np.empty((3, n_mc))
    for s in range(theta.M):
        for rows in chunks:
            x = rng.standard_normal((rows.stop - rows.start, theta.d))
            x *= theta.sigma_x
            x += theta.mu[s]
            x_beta[rows] = x @ theta.beta[s]
            x_beta_prime[rows] = x @ theta_prime.beta[s]
            x_dmu[rows] = x @ x_slope[s]
        for rows in chunks:
            y = x_beta[rows] + theta.sigma_xi * rng.standard_normal(rows.stop - rows.start)
            llr_x = (x_dmu[rows] + x_shift[s]) / (2.0 * sx2)
            llr_y = ((y - x_beta_prime[rows]) ** 2 - (y - x_beta[rows]) ** 2) / (2.0 * sxi2)
            total[rows] += n_counts[s] * (llr_x + llr_y)
    del x_beta, x_beta_prime, x_dmu  # std's deviation array takes their place
    est = float(total.mean())
    se = float(total.std(ddof=1) / math.sqrt(n_mc))
    return est, se


def _flip_kl(B_s, eps_s, n_counts, sigma_x: float, sigma_xi: float) -> np.ndarray:
    """Per block s, the KL of packed members whose signs differ in all of block s.

    It is 2 sigma_x^2 B_s^2 n_s eps_s^2 / sigma_xi^2 = (d-1) a_s eps_s^2, and
    each differing sign adds a_s eps_s^2.
    """
    return 2.0 * np.square(sigma_x) * B_s ** 2 * n_counts / np.square(sigma_xi) * eps_s ** 2


def _flip_separation(family: PackedFamily, p, sigma_x: float) -> np.ndarray:
    """Per block s, the two-point separation of packed members whose signs differ in all of it.

    It is p_s bar^2 sigma_x^2 eps_s^2 with bar = p . B_s, and each differing
    sign adds 1/(d-1) of it.
    """
    p = np.asarray(p, dtype=float)
    bar = float(p @ family.B_s)
    try:
        bar_sq = bar ** 2
    except OverflowError:
        raise ParameterError(f"weighted norm p . B_s = {bar:.6g} is too large to square") from None
    return p * bar_sq * np.square(sigma_x) * family.eps_s ** 2


def _pair_sum(flips: np.ndarray, d_h: np.ndarray, block_length: int) -> np.ndarray:
    """A packed pair's KL or separation from its per-block Hamming distances d_h (..., M)."""
    terms = flips * d_h  # divided in place: a second chunk-sized array raises peak RSS
    return np.divide(terms, block_length, out=terms).sum(axis=-1)


def packed_pair_kl(
    family: PackedFamily,
    v: np.ndarray,
    v_prime: np.ndarray,
    n_counts,
    sigma_x: float,
    sigma_xi: float,
) -> np.ndarray:
    """Closed-form KL of packed pairs (mu = 0), broadcast over leading axes."""
    n_counts = _check_counts(n_counts, family.M)
    flips = _flip_kl(family.B_s, family.eps_s, n_counts, sigma_x, sigma_xi)
    return _pair_sum(flips, block_hamming(v, v_prime), family.d - 1)


def packed_pair_separation(
    family: PackedFamily, v: np.ndarray, v_prime: np.ndarray, p, sigma_x: float
) -> np.ndarray:
    """Two-point risk separation of packed pairs, broadcast over leading axes.

    Equals one quarter of the exact L2 distance between the members' fair
    regressors — the value of the two-point lower bound at mu = 0.
    """
    flips = _flip_separation(family, p, sigma_x)
    return _pair_sum(flips, block_hamming(v, v_prime), family.d - 1)


# Pairs per step of the code's pair reduction: bounds its working memory
# (about _PAIR_CHUNK * M * 8 bytes per array) whatever the code size.
_PAIR_CHUNK = 8192


def _fano_ladder(
    d: int, M: int, n_grid: list, B_s, sigma_x: float, sigma_xi: float, budget: int, seed: int
) -> tuple[list[ModelParams], int, list[float], list[float]]:
    """The Fano side of ``run_lower_bound_report``: each n's member, K, worst KL and separation.

    Before the code search it checks d, M and B_s as ``PackedFamily`` does,
    a nonempty n_grid of integers with round(n / M) >= 1 (no group's KL
    count is 0), sigma_x and sigma_xi as ``hard_instance_eps`` does, and an
    integer budget >= 2; K < 2 codewords is a ParameterError.  Every pair
    i < j of codewords is scored in chunks of at most _PAIR_CHUNK pairs,
    whose per-block Hamming distances come once for all n.  Each pair's (M,)
    terms stay a contiguous last axis, so every value is the one
    ``packed_pair_kl`` or ``packed_pair_separation`` gives.  The member is
    each n's family at the first codeword.
    """
    B_s = build_family(d, M, B_s, 1.0).B_s  # d, M and B_s, checked before p needs M
    n_grid = [_check_int(n, "each n_grid value", 1) for n in n_grid]
    p = np.full(M, 1.0 / M)
    n_counts = [np.round(n * p) for n in n_grid]
    if not n_grid or any(counts[0] < 1 for counts in n_counts):
        raise ParameterError(
            f"n_grid must be nonempty and every n must give each of the M={M} "
            f"groups at least one row (round(n / M) >= 1), got n_grid={n_grid}"
        )
    _check_int(budget, "code_budget", 2)
    families = [
        build_family(d, M, B_s, hard_instance_eps(d, M, sigma_xi, sigma_x, B_s, counts))
        for counts in n_counts
    ]
    kl_flips = [_flip_kl(f.B_s, f.eps_s, c, sigma_x, sigma_xi) for f, c in zip(families, n_counts)]
    sep_flips = [_flip_separation(f, p, sigma_x) for f in families]
    code = gv_code(d - 1, M, max((d - 1) // 8, 1), budget, seed)
    K = code.size
    if K < 2:
        raise ParameterError(f"Fano bound needs K >= 2 codewords, code_budget={budget} gave K={K}")
    signs = _block_signs(code.codewords)
    kl_max, eps_min = [0.0] * len(families), [math.inf] * len(families)
    start = 0
    while start < K - 1:
        stop = min(start + max(_PAIR_CHUNK // (K - 1 - start), 1), K - 1)
        # rows start..stop-1 against columns start+1..K-1; keep column j > row i
        d_h = _block_hamming_from_signs(signs[:, start:stop], signs[:, start + 1:])
        upper = np.triu(np.ones(d_h.shape[1:], dtype=bool))
        d_h = np.ascontiguousarray(d_h.transpose(1, 2, 0)[upper])  # (pairs, M)
        for k, (kl_flip, sep_flip) in enumerate(zip(kl_flips, sep_flips)):
            kl_max[k] = max(kl_max[k], float(_pair_sum(kl_flip, d_h, d - 1).max()))
            eps_min[k] = min(eps_min[k], float(_pair_sum(sep_flip, d_h, d - 1).min()))
        start = stop
    members = [f.params_of(code.codewords[0], p, sigma_x, sigma_xi) for f in families]
    return members, K, kl_max, eps_min


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
    dmu_sq = _rowdot(dmu, dmu)
    d_s = dmu_sq / (2.0 * sx2)
    if np.any(d_s >= 1.0):
        raise ParameterError(
            f"mean shifts too large for the two-point bound: max d_s = {d_s.max():.6g} >= 1"
        )
    q_s = dmu_sq / (4.0 * sx2)

    v_s = u - u_prime
    dbeta = theta.beta - theta_prime.beta
    sbeta = theta.beta + theta_prime.beta
    const_shift = float(theta.p @ (_rowdot(dbeta, mu_bar) + 0.5 * _rowdot(sbeta, dmu)))
    c_s = -0.5 * _rowdot(u + u_prime, dmu) + const_shift

    damp = np.exp(-d_s) / 4.0
    slope_term = sx2 * _rowdot(v_s, v_s) * (1.0 + q_s) ** -(1.0 + d / 2.0)
    intercept_term = c_s ** 2 * (1.0 + q_s) ** -(d / 2.0)
    value = float(theta.p @ (damp * (slope_term + intercept_term)))
    simplified = float(theta.p @ (damp * slope_term))
    return TwoPointBound(value=value, simplified=simplified)


def fano_value(epsilon: float, K: int, avg_kl: float) -> float:
    """Fano lower bound epsilon * (1 - (avg_kl + ln 2)/ln K), clipped at 0.

    avg_kl should upper-bound the mixture-averaged KL; the max pairwise KL
    over the code is a valid choice.  K must be an integer >= 2, and epsilon
    and avg_kl finite and >= 0 (ParameterError).
    """
    _check_int(K, "K", 2)
    for name, value in (("epsilon", epsilon), ("avg_kl", avg_kl)):
        _check_real(value, name, ">= 0")
    return max(epsilon * (1.0 - (avg_kl + math.log(2.0)) / math.log(K)), 0.0)


def hard_instance_eps(
    d: int, M: int, sigma_xi: float, sigma_x: float, B_s, n_counts
) -> np.ndarray:
    """The per-group packing radii eps_s for the hard instance family.

    eps_s^2 = ((d-1)/16 - 1/M) * sigma_xi^2 / (2 sigma_x^2 B_s^2 n_s): the
    radius at which members differing in all of block s are ((d-1)/16 - 1/M)
    apart in KL.  It is clamped to (0, 1] with a warning when small n pushes
    it above 1.  Needs M(d-1) > 16, d, M and B_s as ``PackedFamily`` checks
    them, finite sigma_x > 0 and sigma_xi > 0, and M positive counts.
    """
    B_s = build_family(d, M, B_s, 1.0).B_s
    if M * (d - 1) <= 16:
        raise ParameterError(f"need M(d-1) > 16, got d={d}, M={M}")
    for name, sigma in (("sigma_x", sigma_x), ("sigma_xi", sigma_xi)):
        _check_real(sigma, name, "> 0")
    n_counts = _check_counts(n_counts, M)
    if not np.all(n_counts > 0.0):
        raise ParameterError(f"n_counts must be positive for a packing radius, got {n_counts}")
    # an overflowed square gives a radius of 0, inf or NaN, rejected below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eps_sq = ((d - 1) / 16.0 - 1.0 / M) / _flip_kl(B_s, 1.0, n_counts, sigma_x, sigma_xi)
    if not np.all(np.isfinite(eps_sq) & (eps_sq > 0.0)):
        raise ParameterError(
            "packing radius is 0 or not finite: sigma_xi or sigma_x B_s n is too small "
            "or too large to square"
        )
    eps = np.sqrt(eps_sq)
    if np.any(eps > 1.0):
        warnings.warn(
            "packing radius clamped to 1 for some groups (sample sizes too small)",
            stacklevel=2,
        )
        eps = np.minimum(eps, 1.0)
    return eps
