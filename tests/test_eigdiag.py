"""Tests for the empirical second-moment eigenvalue diagnostics."""

import tracemalloc

import numpy as np
import pytest

from fairlinreg import (
    DimensionError,
    ParameterError,
    gram_eigs,
    max_inv_eig_expectation_bound,
    min_eig_tail_bound,
    min_eig_tail_check,
)
from fairlinreg import eigdiag
from fairlinreg.eigdiag import _tail_lambda_mins


class TestGramEigs:
    def test_basis_rows(self):
        d = 4
        diag = gram_eigs(np.eye(d))
        assert diag.lambda_min == pytest.approx(1.0 / d, abs=1e-14)
        assert diag.lambda_max == pytest.approx(1.0 / d, abs=1e-14)

    def test_rank_deficient(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5))  # m < d
        diag = gram_eigs(x)
        assert abs(diag.lambda_min) < 1e-10

    def test_closed_form_matches_eigensolver_d2(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal((int(rng.integers(1, 30)), 2))
            diag = gram_eigs(x)
            eigs = np.linalg.eigvalsh(x.T @ x / x.shape[0])
            assert diag.lambda_min == pytest.approx(eigs[0], abs=1e-10)
            assert diag.lambda_max == pytest.approx(eigs[1], abs=1e-10)

    def test_psd_always(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, d = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            diag = gram_eigs(rng.standard_normal((m, d)) * 3.0)
            assert diag.lambda_min >= -1e-10
            assert diag.lambda_min <= diag.lambda_max

    def test_marchenko_pastur_edge(self):
        # m = 100 d: lambda_min concentrates above the bulk edge (1-sqrt(d/m))^2
        rng = np.random.default_rng(3)
        d, m = 5, 500
        hits = 0
        for _ in range(500):
            diag = gram_eigs(rng.standard_normal((m, d)))
            hits += 0.6 <= diag.lambda_min <= 1.0
        assert hits / 500 >= 0.99

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            gram_eigs(np.array([[1.0, np.nan]]))

    def test_no_rows_rejected(self):
        with pytest.raises(ParameterError, match="at least one row"):
            gram_eigs(np.empty((0, 3)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_rejected(self):
        # finite rows whose second moments are beyond the float range
        with pytest.raises(ParameterError, match="overflows"):
            gram_eigs(np.array([[1e200, 0.0], [0.0, 1.0]]))


class TestTailCheck:
    def test_requires_enough_samples(self):
        with pytest.raises(ParameterError):
            min_eig_tail_check(np.zeros(2), 1.0, 2, 12, [0.1], 10, 0)

    def test_tiny_threshold_holds_nonvacuously(self):
        rows = min_eig_tail_check(
            np.zeros(2), 1.0, d=2, n=60, t_grid=[1e-12], reps=10_000, seed=4
        )
        (row,) = rows
        assert not row.vacuous
        assert row.bound < 1e-6
        assert row.empirical_tail == 0.0
        assert row.empirical_tail <= row.bound

    def test_vacuous_rows_flagged_not_asserted(self):
        rows = min_eig_tail_check(
            np.zeros(2), 1.0, d=2, n=60, t_grid=[0.5], reps=2_000, seed=5
        )
        (row,) = rows
        assert row.vacuous and row.bound >= 1.0
        # informational: the empirical mass below 0.5 is small but positive-ish
        assert 0.0 <= row.empirical_tail <= 0.2

    @pytest.mark.parametrize(
        "mu, sigma_x, d, n, reps",
        [
            pytest.param(np.zeros(2), 1.0, 2, 60, 300, id="mu0-1.0-2-60"),
            pytest.param([0.5, -1.0, 2.0], 2.5, 3, 40, 300, id="mu1-2.5-3-40"),
            # 20 reps to a chunk of the stack: 15 chunks
            pytest.param([0.5, -1.0, 2.0, 0.0], 0.7, 4, 400, 300, id="several_chunks"),
            # stacks of 273, 273 and 54 reps, each with its own streams
            pytest.param(np.zeros(2), 1.0, 2, 60, 600, id="partial_last_chunk"),
            # one rep larger than a chunk: a chunk per rep
            pytest.param(
                np.zeros(4), 1.0, 4, eigdiag._TAIL_VALUES // 4 + 1, 3, id="rep_above_chunk"
            ),
        ],
    )
    def test_lambda_mins_equal_a_per_rep_loop(self, mu, sigma_x, d, n, reps):
        # reference: the per-rep loop the stacked draw replaced, one gram_eigs
        # per rep, and the 2-d Gram eigensolve gram_eigs made before it
        seed = 3
        mu = np.broadcast_to(np.asarray(mu, dtype=float), (d,))
        expect = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            x = mu + sigma_x * rng.standard_normal((n, d))
            expect[r] = gram_eigs(x).lambda_min
            assert expect[r] == np.linalg.eigvalsh(x.T @ x / n)[0]
        assert np.array_equal(_tail_lambda_mins(mu, sigma_x, d, n, reps, seed), expect)
        t_grid = np.quantile(expect, [0.1, 0.5, 0.9])
        rows = min_eig_tail_check(mu, sigma_x, d, n, t_grid, reps, seed)
        assert [row.empirical_tail for row in rows] == [float(np.mean(expect < t)) for t in t_grid]

    def test_holds_a_chunk_of_reps_not_the_stack(self):
        # the whole (reps, n, d) stack peaked at about 1.2 times its own size
        reps, n, d = 4000, 200, 3
        tracemalloc.start()
        try:
            _tail_lambda_mins(np.zeros(d), 1.0, d, n, reps, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reps * n * d * 8 / 4

    def test_hashes_one_stack_of_stream_keys_at_a_time(self):
        # every rep's key hashed up front held about 11 MB here
        _tail_lambda_mins(np.zeros(2), 1.0, 2, 60, 1, 0)  # first-call allocations
        tracemalloc.start()
        try:
            _tail_lambda_mins(np.zeros(2), 1.0, 2, 60, 40_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("mu", [np.zeros(3), np.zeros(1), np.zeros((2, 2)), [[0.0]]])
    def test_mu_of_wrong_length_rejected_before_any_draw(self, monkeypatch, mu):
        # np.zeros(3) at d = 2 raised numpy's bare broadcast ValueError
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(eigdiag, "_tail_lambda_mins", no_draw)
        with pytest.raises(DimensionError, match="mu"):
            min_eig_tail_check(mu, 1.0, 2, 60, [0.5], 10, 0)

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    @pytest.mark.parametrize("sigma_x", [1e200, 1e308])
    def test_overflowing_draws_rejected(self, sigma_x):
        with pytest.raises(ParameterError):
            min_eig_tail_check(np.zeros(2), sigma_x, 2, 60, [0.5], 20, 0)

    @pytest.mark.parametrize(
        "change",
        [dict(seed=-1), dict(seed=2.0), dict(n=60.5), dict(t_grid=[0.5, np.nan]),
         dict(t_grid=[np.inf])],
        ids=["negative_seed", "float_seed", "float_n", "nan_t", "inf_t"],
    )
    def test_bad_seed_n_or_t_rejected_before_any_draw(self, monkeypatch, change):
        def no_draw(*args):
            raise AssertionError("drew")

        monkeypatch.setattr(eigdiag, "_tail_lambda_mins", no_draw)
        kwargs = dict(mu=np.zeros(2), sigma_x=1.0, d=2, n=60, t_grid=[0.5], reps=10, seed=0)
        with pytest.raises(ParameterError):
            min_eig_tail_check(**{**kwargs, **change})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reps", [0, -3, 2.5, True])
    def test_bad_reps_rejected(self, reps):
        with pytest.raises(ParameterError, match="reps"):
            min_eig_tail_check(np.zeros(2), 1.0, 2, 60, [0.5], reps, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_x", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma_x_rejected(self, sigma_x):
        with pytest.raises(ParameterError, match="sigma_x"):
            min_eig_tail_check(np.zeros(2), sigma_x, 2, 60, [0.5], 20, 0)

    def test_bound_formula(self):
        assert min_eig_tail_bound(0.0, 1.0, 60) == 0.0
        t, n = 1e-12, 60
        expect = (21.0 * np.exp(10.0) * t) ** (n / 6.0)
        assert min_eig_tail_bound(t, 1.0, n) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_bound_at_sigma_x_too_large_to_square(self):
        # sigma_x ** 2 on a float raised a bare OverflowError here
        assert min_eig_tail_bound(0.5, 1e200, 60) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_bound_past_the_float_range_is_inf(self):
        # the power overflows: a bound above 1 is vacuous, and reads inf
        assert min_eig_tail_bound(0.5, 1e-3, 6000) == np.inf

    @pytest.mark.parametrize("sigma_x", [0.0, -1.0, np.nan, np.inf])
    def test_bound_rejects_bad_sigma_x(self, sigma_x):
        # 0.0 raised a bare ZeroDivisionError here
        with pytest.raises(ParameterError, match="sigma_x"):
            min_eig_tail_bound(0.5, sigma_x, 60)


class TestInverseExpectationBound:
    def test_monte_carlo_mean_below_bound(self):
        # one-sided check: catches sign/inversion bugs, never expected to bind
        rng = np.random.default_rng(7)
        d, n = 2, 60
        vals = []
        for _ in range(200):
            x = rng.standard_normal((n, d))
            vals.append(1.0 / gram_eigs(x).lambda_min)
        bound = max_inv_eig_expectation_bound(1.0, d, n)
        assert np.isfinite(np.mean(vals))
        assert np.mean(vals) <= bound

    def test_precondition(self):
        with pytest.raises(ParameterError):
            max_inv_eig_expectation_bound(1.0, 2, 12)

    @pytest.mark.filterwarnings("error")
    def test_sigma_x_too_large_to_square(self):
        # sigma_x ** 2 on a float raised a bare OverflowError here
        assert max_inv_eig_expectation_bound(1e200, 2, 60) == 0.0

    @pytest.mark.parametrize("sigma_x", [0.0, -1.0, np.nan, np.inf])
    def test_bad_sigma_x_rejected(self, sigma_x):
        with pytest.raises(ParameterError, match="sigma_x"):
            max_inv_eig_expectation_bound(sigma_x, 2, 60)
