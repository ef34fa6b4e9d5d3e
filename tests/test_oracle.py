"""Tests for the population fair regressor and its exact risk formulas."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairlinreg
from fairlinreg import (
    DegenerateDirectionError,
    GroupAffineRegressor,
    analytic_excess_risk,
    analytic_unfair_gap,
    build_fdp,
    mc_excess_risk,
    quantile_compose_fdp,
    random_valid_params,
    sample_dataset,
    true_regressor,
    unfairness,
)
from fairlinreg.oracle import _std_normal_cdf
from _support import make_params


class TestBuildFdp:
    def test_single_group_is_identity(self):
        params = make_params([[2.0, 1.0]], mu=[[0.3, -0.2]], B=3.0)
        oracle = build_fdp(params)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 2))
        fair = oracle.fdp.predict(x, np.zeros(20, dtype=int))
        star = x @ params.beta[0]
        assert np.allclose(fair, star, atol=1e-12)

    def test_already_fair_model_unchanged(self):
        beta = [[1.0, 2.0], [1.0, 2.0]]
        params = make_params(beta, mu=[[0.5, 0.1], [0.5, 0.1]], B=3.0)
        oracle = build_fdp(params)
        assert np.allclose(oracle.fdp.w, params.beta, atol=1e-12)
        assert np.allclose(oracle.fdp.b, 0.0, atol=1e-12)

    def test_one_dim_two_group_hand_case(self):
        # norms 1 and 3, balanced: shared slope magnitude 2 for both groups
        params = make_params([[1.0], [3.0]], B=3.0)
        oracle = build_fdp(params)
        assert oracle.bar_norm == pytest.approx(2.0)
        assert np.allclose(oracle.fdp.w, [[2.0], [2.0]])
        assert np.allclose(oracle.fdp.b, 0.0, atol=1e-15)

    def test_zero_norm_group_rejected(self):
        params = make_params([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateDirectionError):
            build_fdp(params)


class TestQuantileCompose:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d, M = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            params = random_valid_params(d, M, 2.0, 1.0, 1.0, 1.0, rng)
            oracle = build_fdp(params)
            s = rng.integers(M, size=200)
            x = params.mu[s] + rng.standard_normal((200, d))
            assert np.max(
                np.abs(oracle.fdp.predict(x, s) - quantile_compose_fdp(params, x, s))
            ) < 1e-9

    def test_group_mean_maps_to_shared_intercept(self):
        rng = np.random.default_rng(3)
        params = random_valid_params(4, 3, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        for s in range(3):
            out = quantile_compose_fdp(params, params.mu[s], s)
            assert out == pytest.approx(oracle.const_term, abs=1e-12)

    def test_single_group_identity(self):
        params = make_params([[1.0, -2.0]], mu=[[0.2, 0.4]], B=3.0)
        x = np.array([0.7, -1.3])
        assert quantile_compose_fdp(params, x, 0) == pytest.approx(
            float(params.beta[0] @ x), abs=1e-12
        )

    def test_precision_in_the_tails(self):
        # points many stds from the group mean must survive the cdf/ppf roundtrip
        params = make_params([[1.0], [2.0]], B=2.0)
        oracle = build_fdp(params)
        x = np.array([[8.0], [-8.0], [12.0]])
        s = np.zeros(3, dtype=int)
        direct = oracle.fdp.predict(x, s)
        composed = quantile_compose_fdp(params, x, s)
        assert np.max(np.abs(direct - composed)) < 1e-9

    def test_infinite_where_the_tail_underflows(self):
        # cdf(-40) underflows to 0, so the nearer-tail quantile is infinite
        params = make_params([[1.0], [2.0]], B=2.0)
        out = quantile_compose_fdp(params, np.array([[40.0], [-40.0]]), 0)
        assert out.tolist() == [np.inf, -np.inf]


class TestStandardNormal:
    def test_cdf_matches_scipy_ndtr(self):
        # within 4 ulp (< 1e-15 relative) for x >= 0; for x < 0 the CDF's
        # relative condition number grows like x^2, so rounding x / sqrt(2)
        # costs any erfc-based CDF, scipy's included, up to ~x^2 ulp
        from scipy.special import ndtr

        grid = np.linspace(-37.0, 37.0, 7401)
        got = np.array([_std_normal_cdf(x) for x in grid])
        rel = np.abs(got - ndtr(grid)) / ndtr(grid)
        bound = 4 * np.finfo(float).eps * (1.0 + np.minimum(grid, 0.0) ** 2)
        assert np.all(rel <= bound)

    def test_fresh_interpreter_never_imports_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import fairlinreg as F\n"
            "import fairlinreg.cli\n"
            "rng = np.random.default_rng(0)\n"
            "params = F.random_valid_params(3, 2, 1.5, 1.0, 1.0, 1.0, rng)\n"
            "data = F.sample_dataset(params, 2000, 1)\n"
            "regressor, _ = F.fit(data, 3, 2, 2)\n"
            "F.unfairness(regressor, params)\n"
            "F.quantile_compose_fdp(params, data.x, data.s)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(fairlinreg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestAnalyticExcessRisk:
    def test_zero_at_oracle(self):
        params = make_params([[1.0, 0.5], [0.3, 0.9]], B=2.0)
        oracle = build_fdp(params)
        assert analytic_excess_risk(oracle.fdp, oracle) == 0.0

    def test_pure_intercept_shift(self):
        params = make_params([[1.0, 0.5], [0.3, 0.9]], B=2.0)
        oracle = build_fdp(params)
        shifted = GroupAffineRegressor(w=oracle.fdp.w, b=oracle.fdp.b + 0.25)
        assert analytic_excess_risk(shifted, oracle) == pytest.approx(0.25 ** 2)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        f = GroupAffineRegressor(w=rng.standard_normal((2, 3)), b=rng.standard_normal(2))
        est, se = mc_excess_risk(f, params, oracle, 2_000_000, seed=5)
        assert abs(est - analytic_excess_risk(f, oracle)) <= 4 * se


class TestAnalyticUnfairGap:
    def test_zero_for_fair_model(self):
        params = make_params([[1.0, 2.0], [1.0, 2.0]], mu=[[0.1, 0.0], [0.1, 0.0]], B=3.0)
        oracle = build_fdp(params)
        assert analytic_unfair_gap(params, oracle) == pytest.approx(0.0, abs=1e-15)

    def test_hand_case(self):
        # norms 1 and 3, mu = 0: gap = 1/2 (1-2)^2 + 1/2 (3-2)^2 = 1
        params = make_params([[1.0], [3.0]], B=3.0)
        oracle = build_fdp(params)
        assert analytic_unfair_gap(params, oracle) == pytest.approx(1.0)

    def test_scaling_homogeneity(self):
        params = make_params([[1.0, 0.2], [0.4, 0.8]], mu=[[0.3, 0.1], [0.0, 0.2]], B=2.0)
        lam = 1.7
        scaled = make_params(
            lam * params.beta, mu=params.mu, B=lam * params.B
        )
        gap = analytic_unfair_gap(params, build_fdp(params))
        gap_scaled = analytic_unfair_gap(scaled, build_fdp(scaled))
        assert gap_scaled == pytest.approx(lam ** 2 * gap)

    def test_matches_monte_carlo_of_true_regressor(self):
        rng = np.random.default_rng(13)
        params = random_valid_params(3, 3, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        est, se = mc_excess_risk(true_regressor(params), params, oracle, 2_000_000, 6)
        assert abs(est - analytic_unfair_gap(params, oracle)) <= 4 * se


class TestParityAndOptimality:
    def test_exact_parity_analytic_and_empirical(self):
        rng = np.random.default_rng(17)
        params = random_valid_params(4, 3, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        report = unfairness(oracle.fdp, params)
        assert report.w2_max < 1e-12 and report.kol_max < 1e-12
        data = sample_dataset(params, 200_000, seed=8)
        outs = [oracle.fdp.predict(data.x[data.s == s], np.full((data.s == s).sum(), s))
                for s in range(3)]
        # empirical conditional moments coincide across groups
        means = [o.mean() for o in outs]
        stds = [o.std() for o in outs]
        assert max(means) - min(means) < 0.05
        assert max(stds) - min(stds) < 0.05

    def test_oracle_minimal_among_fair_perturbations(self):
        # any parity-preserving perturbation (shared slope-norm rescale plus
        # recentered intercepts) cannot beat the oracle's distance to f*
        rng = np.random.default_rng(19)
        params = random_valid_params(3, 3, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        base_gap = analytic_unfair_gap(params, oracle)
        from fairlinreg import gaussian_l2_distance

        star = true_regressor(params)
        for _ in range(1000):
            scale = float(np.exp(rng.normal(0.0, 0.3)))
            shift = float(rng.normal(0.0, 0.5))
            w = scale * oracle.fdp.w
            b = (oracle.const_term + shift) - np.einsum("ij,ij->i", w, params.mu)
            fair = GroupAffineRegressor(w=w, b=b)
            assert gaussian_l2_distance(star, fair, params) >= base_gap - 1e-9
