"""Tests for the empirical second-moment eigenvalue diagnostics."""

import numpy as np
import pytest

from fairlinreg import (
    ParameterError,
    gram_eigs,
    max_inv_eig_expectation_bound,
    min_eig_tail_bound,
    min_eig_tail_check,
)


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

    def test_bound_formula(self):
        assert min_eig_tail_bound(0.0, 1.0, 60) == 0.0
        t, n = 1e-12, 60
        expect = (21.0 * np.exp(10.0) * t) ** (n / 6.0)
        assert min_eig_tail_bound(t, 1.0, n) == pytest.approx(expect, rel=1e-12)


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
