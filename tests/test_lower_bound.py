"""Tests for the packing family, code search, KL formulas, and Fano assembly."""

import math
import tracemalloc

import numpy as np
import pytest

from _support import make_params
from fairlinreg import (
    DimensionError,
    GroupAffineRegressor,
    PackedFamily,
    ParameterError,
    build_family,
    build_fdp,
    fano_value,
    gv_code,
    hard_instance_eps,
    kl_conditional,
    kl_conditional_sample,
    mc_excess_risk,
    packed_pair_kl,
    packed_pair_separation,
    two_point_bound,
    validate_params,
)
from fairlinreg import lower_bound
from fairlinreg.lower_bound import _GV_CHUNK, _GV_SLICE, _MC_VALUES, block_hamming


def random_sign_matrix(rng, M, width):
    return rng.choice((-1, 1), size=(M, width)).astype(np.int8)


class TestPackedFamily:
    def test_norms_exact(self):
        rng = np.random.default_rng(0)
        family = build_family(6, 3, [1.0, 0.5, 2.0], [0.3, 0.9, 0.01])
        for _ in range(20):
            beta = family.beta_of(random_sign_matrix(rng, 3, 5))
            assert np.allclose(np.linalg.norm(beta, axis=1), family.B_s, atol=1e-12)

    def test_eps_one_boundary(self):
        family = build_family(4, 1, [1.0], [1.0])
        beta = family.beta_of(np.ones((1, 3), dtype=np.int8))
        assert beta[0, 0] == 0.0
        assert np.allclose(np.abs(beta[0, 1:]), 1.0 / math.sqrt(3))

    def test_single_flip_distance(self):
        d, B, eps = 5, 1.3, 0.4
        family = build_family(d, 2, [B, B], [eps, eps])
        v = np.ones((2, d - 1), dtype=np.int8)
        w = v.copy()
        w[0, 2] = -1
        diff = family.beta_of(v) - family.beta_of(w)
        assert np.sum(diff ** 2) == pytest.approx(4 * B ** 2 * eps ** 2 / (d - 1))

    def test_realized_params_are_valid(self):
        family = build_family(5, 2, [1.0, 0.3], [0.2, 0.8])
        params = family.params_of(
            np.ones((2, 4), dtype=np.int8), [0.5, 0.5], 1.0, 1.0
        )
        assert validate_params(params) == []
        assert np.all(params.mu == 0.0)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    def test_eps_domain_errors(self):
        with pytest.raises(ParameterError):
            build_family(4, 2, [1.0, 1.0], [0.5, 1.5])
        with pytest.raises(ParameterError):
            build_family(1, 2, [1.0, 1.0], [0.5, 0.5])
        # constructed directly, the family checks itself
        for d, B_s, eps_s in [(4, 1.0, 2.0), (1, 1.0, 0.5), (2.5, 1.0, 0.5), (4, 1.0, 0.0)]:
            with pytest.raises(ParameterError):
                PackedFamily(d=d, M=2, B_s=B_s, eps_s=eps_s)
        with pytest.raises(DimensionError):
            PackedFamily(d=4, M=2, B_s=[1.0, 1.0, 1.0], eps_s=0.5)
        family = PackedFamily(d=4, M=2, B_s=1.0, eps_s=[0.5, 1.0])
        assert family.B_s.shape == (2,) and not family.B_s.flags.writeable
        for v in (np.ones((2, 2)), np.ones((3, 3)), np.ones(6)):
            with pytest.raises(DimensionError):
                family.beta_of(v)


class TestGvCode:
    def test_min_dist_zero_dedups_only(self):
        code = gv_code(block_length=2, blocks=1, min_dist=0, budget=500, seed=0)
        assert code.size == 4  # all of {-1,1}^2 eventually drawn

    def test_single_block_reaches_gv_size(self):
        code = gv_code(block_length=8, blocks=1, min_dist=1, budget=10_000, seed=1)
        assert code.size >= 2
        assert code.min_block_distance >= 1

    def test_max_distance_exhaustive_small_case(self):
        code = gv_code(block_length=4, blocks=1, min_dist=4, budget=10_000, seed=2)
        assert code.size <= 2  # only antipodal pairs at full distance
        for i in range(code.size):
            for j in range(i + 1, code.size):
                assert block_hamming(code.codewords[i], code.codewords[j]).min() == 4

    def test_per_block_distance_guaranteed(self):
        code = gv_code(block_length=8, blocks=4, min_dist=1, budget=2_000, seed=3)
        assert code.size >= 2
        assert code.codewords.shape == (code.size, 4, 8)
        assert code.codewords.dtype == np.int8
        closest = min(
            block_hamming(code.codewords[i], code.codewords[j]).min()
            for i in range(code.size)
            for j in range(i + 1, code.size)
        )
        assert closest >= 1
        assert code.min_block_distance == closest


    @pytest.mark.parametrize(
        "block_length, blocks, min_dist, budget",
        [
            (2, 1, 0, 500),    # min_dist 0: duplicates only
            (3, 2, 0, 40),
            (4, 3, 5, 50),     # min_dist > block_length: one codeword
            (8, 4, 1, 0),      # budget 0
            (8, 4, 1, 1),      # budget 1
            (1, 6, 1, 300),    # block length 1
            (64, 2, 24, 200),  # block length >= 64
            (70, 3, 30, 150),
            (8, 4, 1, 2000),
            (16, 8, 2, 300),
            # the chunk edges of the greedy's walk
            (8, 4, 1, _GV_CHUNK - 1),
            (8, 4, 1, _GV_CHUNK),
            (8, 4, 1, _GV_CHUNK + 1),
            (8, 4, 1, 3 * _GV_CHUNK + 5),
            (4, 3, 5, 2 * _GV_CHUNK + 1),  # every chunk after the first rejected whole
            (2, 1, 0, 3 * _GV_CHUNK + 5),  # all 4 codewords found early, then only duplicates
            (2, 3, 0, 3 * _GV_CHUNK + 5),  # min_dist 0 over 3 and 4 blocks: duplicates only
            (1, 4, 0, 3 * _GV_CHUNK + 5),
            # more accepted codewords than one Gram product against them holds
            (11, 1, 1, 2 * _GV_SLICE + 100),
        ],
    )
    def test_equals_sequential_greedy(self, block_length, blocks, min_dist, budget):
        def sequential(seed):
            # reference: one candidate per step, checked against every accepted codeword
            rng = np.random.default_rng(seed)
            accepted = np.empty((0, blocks, block_length), dtype=np.int8)
            achieved = block_length
            for _ in range(budget):
                cand = rng.choice((-1, 1), size=(blocks, block_length)).astype(np.int8)
                dists = block_hamming(accepted, cand)
                if min_dist >= 1:
                    ok = (dists >= min_dist).all()
                else:
                    ok = dists.any(axis=1).all()
                if ok:
                    achieved = int(dists.min(initial=achieved))
                    accepted = np.concatenate((accepted, cand[None]))
            return accepted, achieved

        for seed in (0, 1, 17):
            code = gv_code(block_length, blocks, min_dist, budget, seed)
            codewords, achieved = sequential(seed)
            assert code.codewords.dtype == codewords.dtype
            assert code.codewords.shape == codewords.shape
            assert code.codewords.tobytes() == codewords.tobytes()
            assert type(code.min_block_distance) is int
            assert code.min_block_distance == achieved

    @pytest.mark.parametrize("budget", [-5, -1, 2.5, 3.0, "10", None, True])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ParameterError):
            gv_code(block_length=8, blocks=2, min_dist=1, budget=budget, seed=0)

    @pytest.mark.parametrize(
        "block_length, blocks, min_dist",
        [(0, 2, 1), (-1, 2, 1), (2.5, 2, 1), (8, 0, 1), (8, -1, 1), (8, 2.5, 1),
         (8, True, 1), (8, 2, -3), (8, 2, np.nan), (8, 2, 1.0), (8, 2, None)],
    )
    def test_bad_sizes_rejected_before_any_draw(self, block_length, blocks, min_dist):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError):
            gv_code(block_length, blocks, min_dist, budget=10, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            gv_code(block_length=8, blocks=2, min_dist=1, budget=30, seed=seed)

    def test_numpy_integer_budget(self):
        code = gv_code(block_length=8, blocks=2, min_dist=1, budget=np.int64(30), seed=0)
        assert code.codewords.tobytes() == gv_code(8, 2, 1, 30, 0).codewords.tobytes()


class TestBroadcastPairs:
    """A codeword against a stack of later ones equals the per-pair calls."""

    def test_block_hamming_row_against_stack(self):
        code = gv_code(block_length=8, blocks=4, min_dist=1, budget=300, seed=7)
        C = code.codewords
        for i in range(code.size - 1):
            per_pair = [block_hamming(C[i], C[j]) for j in range(i + 1, code.size)]
            assert np.array_equal(block_hamming(C[i], C[i + 1:]), per_pair)

    @pytest.mark.parametrize("d, M", [(9, 4), (17, 3), (5, 11)])
    def test_packed_pairs_row_against_stack(self, d, M):
        rng = np.random.default_rng(d * M)
        family = build_family(
            d, M, rng.uniform(0.3, 2.0, size=M), rng.uniform(0.05, 0.9, size=M)
        )
        C = rng.choice((-1, 1), size=(12, M, d - 1)).astype(np.int8)
        p = rng.dirichlet(np.ones(M))
        n_counts = rng.integers(1, 500, size=M)
        for i in range(len(C) - 1):
            kl = packed_pair_kl(family, C[i], C[i + 1:], n_counts, 1.3, 0.7)
            sep = packed_pair_separation(family, C[i], C[i + 1:], p, 1.1)
            assert kl.shape == sep.shape == (len(C) - 1 - i,)
            assert np.array_equal(
                kl,
                [packed_pair_kl(family, C[i], w, n_counts, 1.3, 0.7) for w in C[i + 1:]],
            )
            assert np.array_equal(
                sep, [packed_pair_separation(family, C[i], w, p, 1.1) for w in C[i + 1:]]
            )


class TestKl:
    def test_identical_params_zero(self):
        params = make_params([[1.0, 0.2], [0.3, 0.8]], B=2.0)
        assert kl_conditional(params, params, [10, 10]) == 0.0

    def test_packed_closed_form_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(3, 8))
            M = int(rng.integers(1, 4))
            B_s = rng.uniform(0.3, 2.0, size=M)
            eps_s = rng.uniform(0.05, 0.9, size=M)
            family = build_family(d, M, B_s, eps_s)
            v = random_sign_matrix(rng, M, d - 1)
            w = random_sign_matrix(rng, M, d - 1)
            p = np.full(M, 1.0 / M)
            n_counts = rng.integers(1, 500, size=M)
            theta = family.params_of(v, p, 1.3, 0.7)
            theta_prime = family.params_of(w, p, 1.3, 0.7)
            general = kl_conditional(theta, theta_prime, n_counts)
            closed = packed_pair_kl(family, v, w, n_counts, 1.3, 0.7)
            assert abs(general - closed) < 1e-10 * max(1.0, closed)

    def test_sample_based_kl_matches(self):
        rng = np.random.default_rng(5)
        family = build_family(5, 2, [1.0, 0.8], [0.4, 0.3])
        v = random_sign_matrix(rng, 2, 4)
        w = random_sign_matrix(rng, 2, 4)
        p = np.array([0.5, 0.5])
        theta = family.params_of(v, p, 1.0, 1.0)
        theta_prime = family.params_of(w, p, 1.0, 1.0)
        n_counts = [40, 60]
        exact = kl_conditional(theta, theta_prime, n_counts)
        est, se = kl_conditional_sample(theta, theta_prime, n_counts, 500_000, seed=6)
        assert abs(est - exact) <= 4 * se

    def test_unshared_or_noiseless_models_rejected(self):
        theta = make_params([[1.0, 0.2], [0.3, 0.8]], B=2.0)
        for other, error in [
            (make_params([[1.0, 0.2, 0.0], [0.3, 0.8, 0.0]], B=2.0), DimensionError),
            (make_params([[1.0, 0.2]], B=2.0), DimensionError),
            (make_params([[1.0, 0.2], [0.3, 0.8]], sigma_x=2.0, B=2.0), ParameterError),
        ]:
            with pytest.raises(error):
                kl_conditional(theta, other, [10, 10])
        noiseless = make_params([[1.0, 0.2], [0.3, 0.8]], sigma_xi=0.0, B=2.0)
        with pytest.raises(ParameterError, match="sigma_xi must be a finite number > 0"):
            kl_conditional(noiseless, noiseless, [10, 10])
        # the sampled KL divided by zero and returned a non-finite value
        with pytest.raises(ParameterError, match="sigma_xi must be a finite number > 0"):
            kl_conditional_sample(noiseless, noiseless, [10, 10], 100, 0)

    @pytest.mark.parametrize("seed", [-1, 0.5], ids=["negative", "float"])
    def test_sample_kl_bad_seed_rejected(self, seed):
        theta = make_params([[1.0, 0.2], [0.3, 0.8]], B=2.0)
        with pytest.raises(ParameterError, match="seed"):
            kl_conditional_sample(theta, theta, [10, 10], 100, seed)

    def test_sample_kl_with_nonzero_means(self):
        # exercises the mean-shift and cross terms of the general formula
        theta = make_params(
            [[1.0, 0.2], [0.5, 0.5]], mu=[[0.3, -0.1], [0.2, 0.4]], B=2.0
        )
        theta_prime = make_params(
            [[0.8, 0.3], [0.6, 0.2]], mu=[[0.1, 0.1], [0.0, 0.3]], B=2.0
        )
        n_counts = [30, 70]
        exact = kl_conditional(theta, theta_prime, n_counts)
        est, se = kl_conditional_sample(theta, theta_prime, n_counts, 500_000, seed=7)
        assert abs(est - exact) <= 4 * se


def _two_einsum_kl_sample(theta, theta_prime, n_counts, n_mc, seed):
    """The per-group loop with both x quadratics as einsums, as kl_conditional_sample was."""
    n_counts = np.asarray(n_counts, dtype=float)
    rng = np.random.default_rng(seed)
    sx2, sxi2 = np.square(theta.sigma_x), np.square(theta.sigma_xi)
    total = np.zeros(n_mc)
    for s in range(theta.M):
        x = theta.mu[s] + theta.sigma_x * rng.standard_normal((n_mc, theta.d))
        y = x @ theta.beta[s] + theta.sigma_xi * rng.standard_normal(n_mc)
        llr_x = (
            np.einsum("ij,ij->i", x - theta_prime.mu[s], x - theta_prime.mu[s])
            - np.einsum("ij,ij->i", x - theta.mu[s], x - theta.mu[s])
        ) / (2.0 * sx2)
        llr_y = (
            (y - x @ theta_prime.beta[s]) ** 2 - (y - x @ theta.beta[s]) ** 2
        ) / (2.0 * sxi2)
        total += n_counts[s] * (llr_x + llr_y)
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(n_mc))


# the rows of one chunk of kl_conditional_sample's draws at d = 5
_ROWS_D5 = _MC_VALUES // 5
_CHUNK_EDGES_D5 = [_ROWS_D5 - 1, _ROWS_D5, _ROWS_D5 + 1, 2 * _ROWS_D5 + 3]


class TestKlSampleReference:
    @pytest.mark.parametrize(
        "d, M, seed, n_mc",
        [
            pytest.param(d, M, seed, 20_000, id=f"{d}-{M}-{seed}")
            for d, M, seed in [(5, 2, 0), (5, 2, 123), (7, 3, 9)]
        ]
        + [pytest.param(5, 2, 4, n_mc, id=f"chunk_edge_{n_mc}") for n_mc in _CHUNK_EDGES_D5],
    )
    def test_packed_pairs_exactly(self, d, M, seed, n_mc):
        # mu = 0: the x log-ratio is exactly 0 in both forms
        rng = np.random.default_rng(seed)
        family = build_family(d, M, rng.uniform(0.5, 2.0, M), rng.uniform(0.1, 0.9, M))
        p = np.full(M, 1.0 / M)
        theta = family.params_of(random_sign_matrix(rng, M, d - 1), p, 1.3, 0.7)
        theta_prime = family.params_of(random_sign_matrix(rng, M, d - 1), p, 1.3, 0.7)
        n_counts = rng.integers(1, 100, size=M)
        args = (theta, theta_prime, n_counts, n_mc, seed)
        assert kl_conditional_sample(*args) == _two_einsum_kl_sample(*args)

    @pytest.mark.parametrize("n_mc", _CHUNK_EDGES_D5)
    def test_chunked_draws_equal_one_whole_draw(self, monkeypatch, n_mc):
        # nonzero means, so the x log-ratio is drawn and summed in chunks too
        rng = np.random.default_rng(n_mc)
        theta, theta_prime = (
            make_params(rng.uniform(-0.4, 0.4, (3, 5)), mu=rng.uniform(-0.4, 0.4, (3, 5)), B=2.0)
            for _ in range(2)
        )
        args = (theta, theta_prime, [30, 70, 5], n_mc, 11)
        chunked = kl_conditional_sample(*args)
        monkeypatch.setattr(lower_bound, "_MC_VALUES", 5 * n_mc)
        assert chunked == kl_conditional_sample(*args)

    def test_holds_a_few_draw_vectors_not_the_draw_matrix(self):
        # a whole (n_mc, d) feature draw and its temporaries peaked at about 20 n_mc floats
        family = build_family(5, 2, [1.0, 1.0], [0.3, 0.3])
        v = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
        p = np.full(2, 0.5)
        theta, theta_prime = (family.params_of(w, p, 1.0, 1.0) for w in (v, -v))
        n_mc = 400_000
        tracemalloc.start()
        try:
            kl_conditional_sample(theta, theta_prime, [50, 50], n_mc, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n_mc * 8

    def test_nonzero_means_to_rounding(self):
        # the pair of test_sample_kl_with_nonzero_means
        theta = make_params(
            [[1.0, 0.2], [0.5, 0.5]], mu=[[0.3, -0.1], [0.2, 0.4]], B=2.0
        )
        theta_prime = make_params(
            [[0.8, 0.3], [0.6, 0.2]], mu=[[0.1, 0.1], [0.0, 0.3]], B=2.0
        )
        args = (theta, theta_prime, [30, 70], 50_000, 7)
        got, expect = kl_conditional_sample(*args), _two_einsum_kl_sample(*args)
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")  # no ddof warning before the error
    @pytest.mark.parametrize("n_mc", [1, 0, -5, 2.5, True])
    def test_bad_n_mc_rejected(self, n_mc):
        theta = make_params([[1.0, 0.2], [0.5, 0.5]], B=2.0)
        with pytest.raises(ParameterError, match="n_mc"):
            kl_conditional_sample(theta, theta, [30, 70], n_mc, 0)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize(
        "n_counts", [[30], [30, 70, 5], 30, [-5, 10], [np.nan, 1], [np.inf, 1], ["a", 1]]
    )
    def test_bad_n_counts_rejected(self, n_counts):
        # a wrong length is a DimensionError, a negative or non-finite count a ParameterError
        error = DimensionError if np.shape(n_counts) != (2,) else ParameterError
        theta = make_params([[1.0, 0.2], [0.5, 0.5]], B=2.0)
        with pytest.raises(error):
            kl_conditional_sample(theta, theta, n_counts, 100, 0)
        with pytest.raises(error):
            kl_conditional(theta, theta, n_counts)
        family = build_family(2, 2, 1.0, 0.5)
        with pytest.raises(error):
            packed_pair_kl(family, np.ones((2, 1)), -np.ones((2, 1)), n_counts, 1.0, 1.0)


class TestTwoPointBound:
    def test_zero_at_equal_params(self):
        params = make_params([[1.0, 0.1], [0.4, 0.7]], B=2.0)
        bound = two_point_bound(params, params)
        assert bound.value == 0.0 and bound.simplified == 0.0

    def test_zero_mean_reduction(self):
        rng = np.random.default_rng(8)
        theta = make_params(rng.standard_normal((2, 3)), B=10.0)
        theta_prime = make_params(rng.standard_normal((2, 3)), B=10.0)
        bound = two_point_bound(theta, theta_prime)
        u = build_fdp(theta).fdp.w
        u_prime = build_fdp(theta_prime).fdp.w
        expect = float(
            theta.p @ (0.25 * np.einsum("ij,ij->i", u - u_prime, u - u_prime))
        )
        assert bound.value == pytest.approx(expect, rel=1e-12)
        assert bound.simplified == pytest.approx(expect, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        theta = make_params(
            rng.standard_normal((2, 3)), mu=0.3 * rng.standard_normal((2, 3)), B=10.0
        )
        theta_prime = make_params(
            rng.standard_normal((2, 3)), mu=0.3 * rng.standard_normal((2, 3)), B=10.0
        )
        a = two_point_bound(theta, theta_prime)
        b = two_point_bound(theta_prime, theta)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_large_mean_shift_rejected(self):
        theta = make_params([[1.0, 0.0]], mu=[[0.0, 0.0]])
        theta_prime = make_params([[1.0, 0.0]], mu=[[3.0, 0.0]], U=4.0)
        with pytest.raises(ParameterError):
            two_point_bound(theta, theta_prime)

    def test_dominated_by_candidate_risks(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            d = 3
            theta = make_params(
                rng.uniform(0.5, 1.5, size=(2, d)) * rng.choice([-1, 1], size=(2, d)),
                mu=0.2 * rng.standard_normal((2, d)),
                B=10.0,
            )
            theta_prime = make_params(
                rng.uniform(0.5, 1.5, size=(2, d)) * rng.choice([-1, 1], size=(2, d)),
                mu=0.2 * rng.standard_normal((2, d)),
                B=10.0,
            )
            bound = two_point_bound(theta, theta_prime).value
            o1, o2 = build_fdp(theta), build_fdp(theta_prime)
            avg = GroupAffineRegressor(
                w=0.5 * (o1.fdp.w + o2.fdp.w), b=0.5 * (o1.fdp.b + o2.fdp.b)
            )
            for cand in (o1.fdp, o2.fdp, avg):
                r1, se1 = mc_excess_risk(cand, theta, o1, 100_000, seed=11)
                r2, se2 = mc_excess_risk(cand, theta_prime, o2, 100_000, seed=12)
                assert bound <= max(r1, r2) + 4 * max(se1, se2)


class TestFanoValue:
    def test_zero_information(self):
        assert fano_value(0.8, 4, 0.0) == pytest.approx(0.8 * 0.5)

    def test_target_regime(self):
        K = 16
        avg_kl = math.log(K / 4.0) / 2.0
        assert fano_value(1.0, K, avg_kl) == pytest.approx(0.5)

    def test_vacuous_information_clipped(self):
        assert fano_value(1.0, 8, math.log(8)) == 0.0

    def test_small_code_rejected(self):
        with pytest.raises(ParameterError):
            fano_value(1.0, 1, 0.0)

    @pytest.mark.parametrize(
        "epsilon, K, avg_kl",
        [(1.0, 4.5, 0.0), (1.0, 4.0, 0.0), (1.0, True, 0.0), (np.nan, 4, 0.0),
         (np.inf, 4, 0.0), (-0.1, 4, 0.0), (0.1, 4, -5.0), (0.1, 4, np.nan),
         (0.1, 4, np.inf)],
        ids=["float_K", "integral_float_K", "bool_K", "nan_epsilon", "inf_epsilon",
             "negative_epsilon", "negative_kl", "nan_kl", "inf_kl"],
    )
    def test_bad_arguments_rejected(self, epsilon, K, avg_kl):
        # K = 4.5 passed, a NaN epsilon returned NaN, and a negative KL
        # returned more than epsilon
        with pytest.raises(ParameterError):
            fano_value(epsilon, K, avg_kl)


class TestHardInstanceEps:
    def test_formula_homogeneity(self):
        e1 = hard_instance_eps(9, 4, 1.0, 1.0, 1.0, [100, 100, 100, 100])
        e2 = hard_instance_eps(9, 4, 1.0, 1.0, 1.0, [200, 200, 200, 200])
        assert np.allclose(e1 ** 2, 2 * e2 ** 2)

    @pytest.mark.filterwarnings("error")
    def test_hypothesis_boundary_excluded(self):
        for d, M in [(17, 1), (9, 0), (9, -1), (1, 4), (0, -20), (9, 2.5), (9.0, 4)]:
            with pytest.raises(ParameterError):
                hard_instance_eps(d, M, 1.0, 1.0, 1.0, [100])
        with pytest.raises(DimensionError):
            hard_instance_eps(9, 4, 1.0, 1.0, [1.0, 1.0], [100])

    @pytest.mark.parametrize("B_s", [0.0, -1.0, np.nan, np.inf, 1e308])
    @pytest.mark.filterwarnings("error")  # rejected before a numpy warning
    def test_bad_B_s_rejected(self, B_s):
        with pytest.raises(ParameterError):
            hard_instance_eps(9, 4, 1.0, 1.0, B_s, [100] * 4)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, np.nan, np.inf, -np.inf, "1", True])
    @pytest.mark.parametrize("name", ["sigma_x", "sigma_xi"])
    def test_bad_sigma_rejected_by_name(self, name, sigma):
        # a negative sigma was squared into a valid radius, and sigma_x = 0
        # was reported as sigma_xi = 0
        sigmas = {"sigma_x": 1.0, "sigma_xi": 1.0, name: sigma}
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number > 0"):
            hard_instance_eps(9, 4, sigmas["sigma_xi"], sigmas["sigma_x"], 1.0, [10] * 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_x, sigma_xi", [(1e-200, 1.0), (1.0, 1e-200)])
    def test_sigma_too_small_to_square_rejected(self, sigma_x, sigma_xi):
        with pytest.raises(ParameterError, match="packing radius"):
            hard_instance_eps(9, 4, sigma_xi, sigma_x, 1.0, [10] * 4)

    def test_hand_evaluation(self):
        eps = hard_instance_eps(9, 4, 1.0, 1.0, 1.0, [100] * 4)
        assert np.allclose(eps ** 2, 0.00125)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize(
        "n_counts", [[-5, 10, 10, 10], [0, 10, 10, 10], [100] * 3, [100] * 5, 100.0, [100]]
    )
    def test_bad_n_counts_rejected(self, n_counts):
        # a wrong length or a scalar is a DimensionError, a zero or negative count a ParameterError
        error = DimensionError if np.shape(n_counts) != (4,) else ParameterError
        with pytest.raises(error, match="n_counts"):
            hard_instance_eps(9, 4, 1.0, 1.0, 1.0, n_counts)

    def test_clamping_warns(self):
        with pytest.warns(UserWarning):
            eps = hard_instance_eps(9, 4, 10.0, 1.0, 0.1, [1, 1, 1, 1])
        assert np.all(eps <= 1.0)


class TestSeparation:
    def test_packed_separation_is_quarter_oracle_distance(self):
        # the closed-form separation equals a quarter of the exact L2 distance
        # between the two members' fair regressors (the two-point bound value)
        from fairlinreg import gaussian_l2_distance

        rng = np.random.default_rng(13)
        family = build_family(6, 3, [1.0, 0.7, 1.2], [0.3, 0.5, 0.2])
        p = np.full(3, 1.0 / 3.0)
        v = random_sign_matrix(rng, 3, 5)
        w = random_sign_matrix(rng, 3, 5)
        theta = family.params_of(v, p, 1.1, 1.0)
        theta_prime = family.params_of(w, p, 1.1, 1.0)
        sep = packed_pair_separation(family, v, w, p, 1.1)
        exact = gaussian_l2_distance(
            build_fdp(theta).fdp, build_fdp(theta_prime).fdp, theta
        )
        assert sep == pytest.approx(exact / 4.0, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_norm_too_large_to_square_rejected(self):
        family = build_family(5, 2, [1e160, 1e160], [0.3, 0.3])
        v = np.ones((2, 4), dtype=np.int8)
        with pytest.raises(ParameterError, match="too large to square"):
            packed_pair_separation(family, v, -v, [0.5, 0.5], 1.0)
