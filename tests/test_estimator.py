"""Tests for sample splitting, OLS, and the assembled plugin estimator."""

import numpy as np
import pytest

from _support import make_params
from fairlinreg import (
    SingularMatrixError,
    build_fdp,
    evaluate,
    fit,
    make_split,
    ols,
    random_valid_params,
    sample_dataset,
)


class TestMakeSplit:
    @staticmethod
    def _single_group_data(n_s):
        params = make_params([[1.0, 0.0]])
        return sample_dataset(params, n_s, seed=0)

    @staticmethod
    def _block_sizes(plan, s):
        blocks = (plan.d1, plan.d2, plan.d3, plan.dp1, plan.dp2)
        return tuple(len(block[s]) for block in blocks)

    def test_nine_rows(self):
        plan = make_split(self._single_group_data(9), seed=1)
        assert self._block_sizes(plan, 0) == (3, 3, 3, 5, 4)

    def test_ten_rows(self):
        plan = make_split(self._single_group_data(10), seed=1)
        assert self._block_sizes(plan, 0) == (4, 3, 3, 5, 5)

    def test_one_row(self):
        plan = make_split(self._single_group_data(1), seed=1)
        assert self._block_sizes(plan, 0) == (1, 0, 0, 1, 0)

    def test_blocks_partition_each_group(self):
        params = make_params([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], B=2.0)
        data = sample_dataset(params, 500, seed=2)
        plan = make_split(data, seed=3)
        for s in range(3):
            idx = set(data.group_indices(s))
            three = [set(plan.d1[s]), set(plan.d2[s]), set(plan.d3[s])]
            assert set().union(*three) == idx
            assert sum(len(b) for b in three) == len(idx)
            two = [set(plan.dp1[s]), set(plan.dp2[s])]
            assert set().union(*two) == idx
            assert sum(len(b) for b in two) == len(idx)

    def test_seed_determinism(self):
        data = self._single_group_data(100)
        a, b = make_split(data, seed=5), make_split(data, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.d1 + a.dp1, b.d1 + b.dp1))


class TestOls:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(0)
        d = 4
        x = rng.standard_normal((2 * d, d))
        beta = rng.standard_normal(d)
        assert np.allclose(ols(x, x @ beta), beta, atol=1e-8)

    def test_scalar_slope(self):
        coef = ols(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        assert coef[0] == pytest.approx(2.0)

    def test_risk_scaling(self):
        # classical OLS risk: E||beta_hat - beta||^2 ~ sigma_xi^2 d / (sigma_x^2 n)
        rng = np.random.default_rng(1)
        d, n = 3, 100_000
        beta = rng.standard_normal(d)
        errs = []
        for _ in range(200):
            x = rng.standard_normal((n, d))
            y = x @ beta + rng.standard_normal(n)
            errs.append(np.sum((ols(x, y) - beta) ** 2))
        expect = d / n
        assert expect / 5 < np.mean(errs) < expect * 5

    def test_underdetermined_raises(self):
        with pytest.raises(SingularMatrixError):
            ols(np.ones((2, 3)), np.ones(2))

    def test_singular_gram_raises(self):
        x = np.ones((10, 2))  # rank 1
        with pytest.raises(SingularMatrixError):
            ols(x, np.ones(10))


class TestFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 0.0, rng)
        oracle = build_fdp(params)
        data = sample_dataset(params, 100_000, seed=5)
        regressor, estimates = fit(data, 3, 2, seed=6)
        assert np.max(np.abs(regressor.w - oracle.fdp.w)) < 1e-3
        # group-frequency noise enters through p_hat at the n^{-1/2} scale
        assert estimates.norm_hat_bar == pytest.approx(oracle.bar_norm, abs=5e-3)

    def test_all_gates_off_gives_zero_regressor(self):
        params = make_params([[1.0, 0.0], [0.0, 1.0]])
        data = sample_dataset(params, 20, seed=7)  # n_s <= 12d = 24
        regressor, estimates = fit(data, 2, 2, seed=8)
        assert np.all(regressor.w == 0.0) and np.all(regressor.b == 0.0)
        assert not estimates.gate_18d.any() and not estimates.gate_12d.any()
        assert np.all(estimates.norm_hat_s == 0.0)
        assert np.all(estimates.beta_prime_hat == 0.0)
        assert np.all(estimates.mu_prime_hat == 0.0)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        data = sample_dataset(params, 5000, seed=10)
        r1, e1 = fit(data, 3, 2, seed=11)
        r2, e2 = fit(data, 3, 2, seed=11)
        assert np.array_equal(r1.w, r2.w) and np.array_equal(r1.b, r2.b)
        assert np.array_equal(e1.mu_hat, e2.mu_hat)
        assert np.array_equal(e1.dir_hat, e2.dir_hat)

    def test_unit_directions_when_gated_on(self):
        rng = np.random.default_rng(12)
        params = random_valid_params(4, 3, 2.0, 1.0, 1.0, 1.0, rng)
        data = sample_dataset(params, 10_000, seed=13)
        _, estimates = fit(data, 4, 3, seed=14)
        norms = np.linalg.norm(estimates.dir_hat, axis=1)
        for s in range(3):
            expect = 1.0 if estimates.gate_18d[s] else 0.0
            assert norms[s] == pytest.approx(expect, abs=1e-12)
        assert estimates.p_hat.sum() == pytest.approx(1.0, abs=1e-12)

    def test_assembled_regressor_structural_identity(self):
        # the (w, b) packing must reproduce the component form pointwise
        rng = np.random.default_rng(15)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        data = sample_dataset(params, 4000, seed=16)
        regressor, est = fit(data, 3, 2, seed=17)
        const = float(
            est.p_hat @ np.einsum("ij,ij->i", est.beta_prime_hat, est.mu_prime_hat)
        )
        for _ in range(50):
            x = rng.standard_normal(3)
            s = int(rng.integers(2))
            component_form = (
                est.norm_hat_bar * float(est.dir_hat[s] @ (x - est.mu_hat[s])) + const
            )
            assert evaluate(regressor, x, s) == pytest.approx(component_form, abs=1e-12)
