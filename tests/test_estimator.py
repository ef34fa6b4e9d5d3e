"""Tests for sample splitting, OLS, and the assembled plugin estimator."""

import dataclasses

import numpy as np
import pytest

from _support import make_params
from fairlinreg import (
    Dataset,
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
    def _blocks(plan, s):
        return np.array_split(plan.three[s], 3) + np.array_split(plan.two[s], 2)

    def _block_sizes(self, plan, s):
        return tuple(len(block) for block in self._blocks(plan, s))

    def test_two_permutations(self):
        plan = make_split(self._single_group_data(9), seed=1)
        assert [f.name for f in dataclasses.fields(plan)] == ["three", "two"]

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
            blocks = self._blocks(plan, s)
            for cut in (blocks[:3], blocks[3:]):
                assert set().union(*map(set, cut)) == idx
                assert sum(len(b) for b in cut) == len(idx)

    def test_seed_determinism(self):
        data = self._single_group_data(100)
        a, b = make_split(data, seed=5), make_split(data, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.three + a.two, b.three + b.two))


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

    @staticmethod
    def _paper_estimates(data, plan, d, M):
        """Every estimate rebuilt from explicit index gathers of the paper's blocks."""
        counts = np.bincount(data.s, minlength=M)
        p_hat = counts / data.n
        norm_hat_s = np.zeros(M)
        dir_hat, mu_hat, beta_prime_hat, mu_prime_hat = np.zeros((4, M, d))
        for s in range(M):
            i1, i2, i3 = np.array_split(plan.three[s], 3)
            j1, j2 = np.array_split(plan.two[s], 2)
            if counts[s] > 18 * d:
                norm_hat_s[s] = np.linalg.norm(ols(data.x[i1], data.y[i1]))
                b2 = ols(data.x[i2], data.y[i2])
                dir_hat[s] = b2 / np.linalg.norm(b2)
            if len(i3):
                mu_hat[s] = data.x[i3].mean(axis=0)
            if counts[s] > 12 * d:
                beta_prime_hat[s] = ols(data.x[j1], data.y[j1])
                mu_prime_hat[s] = data.x[j2].mean(axis=0)
        return {
            "p_hat": p_hat,
            "norm_hat_s": norm_hat_s,
            "norm_hat_bar": float(p_hat @ norm_hat_s),
            "dir_hat": dir_hat,
            "mu_hat": mu_hat,
            "beta_prime_hat": beta_prime_hat,
            "mu_prime_hat": mu_prime_hat,
            "gate_18d": counts > 18 * d,
            "gate_12d": counts > 12 * d,
        }

    @pytest.mark.parametrize(
        "sizes",
        # d = 2: 18d = 36 and 12d = 24, so 61 passes both gates, 29 only the
        # 12d gate and 7 neither; no size divides by 2 or 3
        [(61, 29, 7), (55,)],
        ids=["gates_mixed", "M1"],
    )
    def test_estimates_use_the_paper_blocks(self, sizes):
        d, M = 2, len(sizes)
        rng = np.random.default_rng(18)
        s = rng.permutation(np.repeat(np.arange(M), sizes))
        x = rng.standard_normal((len(s), d)) + s[:, None]
        beta = rng.standard_normal((M, d))
        y = np.einsum("ij,ij->i", x, beta[s]) + rng.standard_normal(len(s))
        data = Dataset(x=x, s=s, y=y, M=M)
        _, estimates = fit(data, d, M, seed=19)
        expect = self._paper_estimates(data, make_split(data, seed=19), d, M)
        assert [f.name for f in dataclasses.fields(estimates)] == list(expect)
        for name, value in expect.items():
            assert np.array_equal(getattr(estimates, name), value), name
