"""Tests for Wasserstein/Kolmogorov metrics and Monte Carlo excess risk."""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from _support import make_params
from fairlinreg import (
    DimensionError,
    GaussianLaw1D,
    GroupAffineRegressor,
    ParameterError,
    build_fdp,
    conditional_law,
    kolmogorov_gaussian,
    mc_excess_risk,
    random_valid_params,
    true_regressor,
    unfairness,
    w2_empirical,
    w2_gaussian,
)
from fairlinreg.metrics import _kolmogorov
from fairlinreg.oracle import _std_normal_cdf


class TestW2Gaussian:
    def test_identical_laws(self):
        assert w2_gaussian(GaussianLaw1D(0.3, 1.2), GaussianLaw1D(0.3, 1.2)) == 0.0

    def test_unit_mean_shift(self):
        assert w2_gaussian(GaussianLaw1D(0.0, 1.0), GaussianLaw1D(1.0, 1.0)) == 1.0

    def test_unit_std_gap(self):
        assert w2_gaussian(GaussianLaw1D(0.0, 1.0), GaussianLaw1D(0.0, 2.0)) == 1.0


class TestW2Empirical:
    def test_permutation_invariance_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(100)
        assert w2_empirical(xs, rng.permutation(xs)) == 0.0

    def test_pure_shift(self):
        assert w2_empirical([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_converges_to_analytic(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(1_000_000)
        ys = rng.standard_normal(1_000_000) + 1.0
        assert abs(w2_empirical(xs, ys) - 1.0) < 0.01

    def test_randomized_law_convergence(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m1, m2 = rng.uniform(-5, 5, size=2)
            s1, s2 = rng.uniform(0.1, 5, size=2)
            m = 20_000
            xs = m1 + s1 * rng.standard_normal(m)
            ys = m2 + s2 * rng.standard_normal(m)
            target = w2_gaussian(GaussianLaw1D(m1, s1), GaussianLaw1D(m2, s2))
            assert abs(w2_empirical(xs, ys) - target) < 3.0 / np.sqrt(m)

    def test_unequal_lengths_merged_grid(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(3001)
        ys = rng.standard_normal(5000) + 0.5
        got = w2_empirical(xs, ys)
        assert abs(got - 0.5) < 0.05
        # symmetric in its arguments
        assert got == pytest.approx(w2_empirical(ys, xs), abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            w2_empirical([], [1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "xs, ys",
        [([np.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [np.inf, 1.0]), ([-np.inf, 1.0], [-np.inf, 1.0]),
         ([0.0, np.nan, 1.0], [0.0, 1.0])],
        ids=["nan", "inf", "both_minus_inf", "unequal_lengths_nan"],
    )
    def test_nonfinite_input_rejected(self, xs, ys):
        # NaN or inf read nan or inf
        with pytest.raises(ParameterError, match="must be finite"):
            w2_empirical(xs, ys)


class TestConditionalLaw:
    def test_zero_slope_is_point_mass(self):
        params = make_params([[1.0, 0.0]])
        f = GroupAffineRegressor(w=np.zeros((1, 2)), b=np.array([2.5]))
        law = conditional_law(f, params, 0)
        assert law.mean == 2.5 and law.std == 0.0

    def test_oracle_law_identical_across_groups(self):
        rng = np.random.default_rng(4)
        params = random_valid_params(4, 3, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        laws = [conditional_law(oracle.fdp, params, s) for s in range(3)]
        for law in laws:
            assert law.mean == pytest.approx(oracle.const_term, abs=1e-12)
            assert law.std == pytest.approx(
                params.sigma_x * oracle.bar_norm, abs=1e-12
            )

    def test_matches_simulated_moments(self):
        from fairlinreg import sample_dataset

        rng = np.random.default_rng(5)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        f = GroupAffineRegressor(w=rng.standard_normal((2, 3)), b=rng.standard_normal(2))
        data = sample_dataset(params, 1_000_000, seed=6)
        for s in range(2):
            mask = data.s == s
            out = f.predict(data.x[mask], data.s[mask])
            law = conditional_law(f, params, s)
            m = mask.sum()
            assert abs(out.mean() - law.mean) < 5 * law.std / np.sqrt(m)
            assert abs(out.std() - law.std) < 5 * law.std / np.sqrt(2 * m)


    def test_bad_law_regressor_or_group_rejected(self):
        with pytest.raises(ParameterError, match="std"):
            GaussianLaw1D(0.0, -1.0)
        # a NaN or inf mean or std made every distance read nan
        for mean, std, name in [(np.nan, 1.0, "mean"), (np.inf, 1.0, "mean"),
                                (0.0, np.nan, "std"), (0.0, np.inf, "std")]:
            with pytest.raises(ParameterError, match=f"^{name} must be a finite number"):
                GaussianLaw1D(mean, std)
        params = make_params([[1.0, 0.0], [0.0, 1.0]])
        wide = GroupAffineRegressor(w=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(DimensionError, match="shape"):
            conditional_law(wide, params, 0)
        with pytest.raises(DimensionError, match="out of range"):
            conditional_law(GroupAffineRegressor(w=np.zeros((2, 2)), b=np.zeros(2)), params, 5)


class TestKolmogorov:
    def test_equal_std_closed_form(self):
        a, b = GaussianLaw1D(0.0, 1.0), GaussianLaw1D(1.5, 1.0)
        assert kolmogorov_gaussian(a, b) == pytest.approx(
            2 * norm.cdf(0.75) - 1, abs=1e-14
        )

    def test_point_masses(self):
        assert kolmogorov_gaussian(GaussianLaw1D(0.0, 0.0), GaussianLaw1D(0.0, 0.0)) == 0.0
        assert kolmogorov_gaussian(GaussianLaw1D(0.0, 0.0), GaussianLaw1D(1.0, 0.0)) == 1.0
        got = kolmogorov_gaussian(GaussianLaw1D(1.0, 0.0), GaussianLaw1D(0.0, 2.0))
        assert got == pytest.approx(float(norm.cdf(0.5)), abs=1e-14)

    def test_matches_dense_grid_sup(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = GaussianLaw1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 3)))
            b = GaussianLaw1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 3)))
            lo = min(a.mean - 8 * a.std, b.mean - 8 * b.std)
            hi = max(a.mean + 8 * a.std, b.mean + 8 * b.std)
            grid = np.linspace(lo, hi, 400_001)
            sup = np.max(np.abs(ndtr((grid - a.mean) / a.std) - ndtr((grid - b.mean) / b.std)))
            got = kolmogorov_gaussian(a, b)
            assert got == pytest.approx(sup, abs=1e-7)
            assert got >= sup - 1e-15  # a grid point never beats the supremum

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e150, 1e300])
    def test_stds_one_ulp_apart_at_any_scale(self, scale):
        # near the equal-std closed form; a crossing quadratic in raw t overflowed
        a = GaussianLaw1D(0.3 * scale, scale)
        b = GaussianLaw1D(-0.4 * scale, float(np.nextafter(scale, np.inf)))
        assert kolmogorov_gaussian(a, b) == pytest.approx(
            2 * norm.cdf(0.35) - 1, rel=1e-12
        )


def _kolmogorov_per_pair(a, b):
    """Reference: the crossing quadratic solved by one np.roots call per pair."""
    if a.std == 0.0 and b.std == 0.0:
        return 0.0 if a.mean == b.mean else 1.0
    if a.std == 0.0 or b.std == 0.0:
        point, gauss = (a, b) if a.std == 0.0 else (b, a)
        return float(_std_normal_cdf(abs(point.mean - gauss.mean) / gauss.std))
    if a.std == b.std:
        return float(2.0 * _std_normal_cdf(abs(a.mean - b.mean) / (2.0 * a.std)) - 1.0)
    m = (b.mean - a.mean) / a.std
    r = b.std / a.std
    inv_r2 = 1.0 / (r * r)
    roots = np.roots([inv_r2 - 1.0, -2.0 * m * inv_r2, m * m * inv_r2 + 2.0 * math.log(r)])
    roots = roots[np.abs(roots.imag) < 1e-12].real
    cdf = _std_normal_cdf
    return max((float(abs(cdf(z) - cdf((z - m) / r))) for z in roots), default=0.0)


class TestKolmogorovBatch:
    @staticmethod
    def edge_cases():
        up = lambda x: float(np.nextafter(x, np.inf))  # noqa: E731
        pairs = [
            ((0.0, 0.0), (0.0, 0.0)),  # two point masses, equal means
            ((0.0, 0.0), (1.0, 0.0)),  # two point masses, different means
            ((1.0, 0.0), (0.0, 2.0)),  # one point mass
            ((0.0, 3.0), (-2.0, 0.0)),
            ((0.0, 1.0), (1.5, 1.0)),  # equal stds
            ((0.2, 1.0), (0.2, 1.0)),
            ((0.0, 1.0), (0.5, 2.0)),  # the general case
            ((-1.0, 0.7), (2.0, 0.3)),
            ((0.5, 2.0), (0.5, 1.0)),
        ]
        for scale in (1e-160, 1.0, 1e150, 1e300):  # stds one ulp apart
            pairs.append(((0.3 * scale, scale), (-0.4 * scale, up(scale))))
            pairs.append(((0.3 * scale, up(scale)), (0.3 * scale, scale)))
        return [(GaussianLaw1D(*a), GaussianLaw1D(*b)) for a, b in pairs]

    @pytest.mark.filterwarnings("error")
    def test_batch_equals_single_calls(self):
        pairs = self.edge_cases()
        a, b = zip(*pairs)
        columns = [[getattr(law, f) for law in laws] for laws in (a, b) for f in ("mean", "std")]
        batch = _kolmogorov(*columns)
        assert batch.tolist() == [kolmogorov_gaussian(a, b) for a, b in pairs]

    @pytest.mark.filterwarnings("error")
    def test_equals_per_pair_np_roots(self):
        rng = np.random.default_rng(17)
        pairs = self.edge_cases() + [
            (GaussianLaw1D(*rng.normal(0, 2, 1), *rng.uniform(0.1, 3, 1)),
             GaussianLaw1D(*rng.normal(0, 2, 1), *rng.uniform(0.1, 3, 1)))
            for _ in range(300)
        ]
        for a, b in pairs:
            assert kolmogorov_gaussian(a, b) == pytest.approx(_kolmogorov_per_pair(a, b), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gap", [1e160, 1e300])
    @pytest.mark.parametrize("std_b", [0.5, 2.0, 1e10])
    def test_far_apart_laws_are_fully_separated(self, gap, std_b):
        # m * m in the crossing quadratic overflowed past ~1e154 standard deviations
        a = GaussianLaw1D(0.0, 1.0)
        for b in (GaussianLaw1D(gap, std_b), GaussianLaw1D(-gap, std_b)):
            assert kolmogorov_gaussian(a, b) == 1.0
            assert kolmogorov_gaussian(b, a) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean_b", [0.0, 1e10, 1e150])
    def test_std_ratio_too_large_to_square(self, mean_b):
        # near 0, where a's CDF climbs from 0 to 1, b's stays within 1e-9 of 1/2
        a, b = GaussianLaw1D(0.0, 1.0), GaussianLaw1D(mean_b, 1e160)
        assert kolmogorov_gaussian(a, b) == pytest.approx(0.5, abs=1e-9)
        assert kolmogorov_gaussian(b, a) == kolmogorov_gaussian(a, b)


class TestUnfairness:
    def test_oracle_scores_zero(self):
        rng = np.random.default_rng(8)
        params = random_valid_params(3, 4, 2.0, 1.0, 1.0, 1.0, rng)
        report = unfairness(build_fdp(params).fdp, params)
        assert report.w2_max < 1e-12
        assert report.kol_max < 1e-12
        assert report.avg_w2 < 1e-12

    def test_one_dim_hand_case(self):
        # f* with norms 1 and 3: conditional stds 1 and 3, means 0
        params = make_params([[1.0], [3.0]], B=3.0)
        report = unfairness(true_regressor(params), params)
        assert report.w2_max == pytest.approx(2.0)
        assert report.pairwise[0, 1] == pytest.approx(2.0)
        assert np.all(np.diag(report.pairwise) == 0.0)

    def test_pairwise_symmetric_nonnegative(self):
        rng = np.random.default_rng(9)
        params = random_valid_params(3, 4, 2.0, 1.0, 1.0, 1.0, rng)
        f = GroupAffineRegressor(w=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
        report = unfairness(f, params)
        assert np.array_equal(report.pairwise, report.pairwise.T)
        assert np.all(report.pairwise >= 0.0)
        assert report.w2_max == report.pairwise.max()

    def test_avg_w2_never_exceeds_w2_max(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            M, d = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            params = random_valid_params(d, M, 2.0, 1.0, 1.0, 1.0, rng)
            f = GroupAffineRegressor(
                w=rng.standard_normal((M, d)), b=rng.standard_normal(M)
            )
            report = unfairness(f, params)
            assert report.avg_w2 <= report.w2_max + 1e-12

    def test_parity_iff_identical_laws(self):
        params = make_params([[1.0, 0.0], [0.0, 1.0]], mu=[[0.5, 0.0], [0.0, 0.5]])
        f = GroupAffineRegressor(
            w=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.array([-0.5, -0.5])
        )
        laws = [conditional_law(f, params, s) for s in range(2)]
        assert laws[0].mean == pytest.approx(laws[1].mean, abs=1e-12)
        assert laws[0].std == pytest.approx(laws[1].std, abs=1e-12)
        assert unfairness(f, params).w2_max < 1e-12

    @pytest.mark.parametrize("M, d", [(3, 2), (2, 3), (1, 2)])
    def test_wrong_shaped_regressor_rejected(self, M, d):
        params = make_params([[1.0, 0.0], [0.0, 1.0]])
        f = GroupAffineRegressor(w=np.zeros((M, d)), b=np.zeros(M))
        with pytest.raises(DimensionError, match="shape"):
            unfairness(f, params)


class TestMcExcessRisk:
    def test_oracle_risk_exactly_zero(self):
        rng = np.random.default_rng(11)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        est, se = mc_excess_risk(oracle.fdp, params, oracle, 10_000, seed=1)
        assert est == 0.0

    def test_callable_regressor_supported(self):
        rng = np.random.default_rng(12)
        params = random_valid_params(2, 2, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)

        def shifted(x, s):
            return oracle.fdp.predict(x, s) + 0.5

        est, se = mc_excess_risk(shifted, params, oracle, 50_000, seed=2)
        assert est == pytest.approx(0.25, abs=1e-9)

    def test_zero_samples_rejected(self):
        rng = np.random.default_rng(13)
        params = random_valid_params(2, 2, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        for n_mc in (0, 2.5, True, "10"):
            with pytest.raises(ParameterError, match="n_mc"):
                mc_excess_risk(oracle.fdp, params, oracle, n_mc, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(14)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        oracle = build_fdp(params)
        f = GroupAffineRegressor(w=rng.standard_normal((2, 3)), b=rng.standard_normal(2))
        assert mc_excess_risk(f, params, oracle, 100_000, 5) == mc_excess_risk(
            f, params, oracle, 100_000, 5
        )
