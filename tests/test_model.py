"""Tests for the data-generating model, validation, and serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import make_params
from fairlinreg import (
    Dataset,
    DimensionError,
    GroupAffineRegressor,
    ModelParams,
    ParameterError,
    SweepConfig,
    evaluate,
    sample_dataset,
    to_dict,
    validate_params,
)
from fairlinreg.model import from_dict


class TestValidateParams:
    def test_orthonormal_pair_passes(self):
        # factor = (1/2 + 1/2)^2 * (1/2)(1 + 1) = 1 <= B^2
        params = make_params([[1.0, 0.0], [0.0, 1.0]], B=1.0)
        assert params.diversity_factor() == pytest.approx(1.0, abs=1e-15)
        assert validate_params(params) == []

    def test_max_norm_violation_reported(self):
        params = make_params([[2.0, 0.0], [0.0, 1.0]], B=1.0)
        report = validate_params(params)
        assert any("max-norm violated" in line for line in report)

    def test_equal_norms_at_boundary_pass(self):
        # all ||beta_s|| = B = 1: factor collapses to exactly 1 = B^2
        params = make_params([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], B=1.0)
        assert validate_params(params) == []

    def test_diversity_violation_reported(self):
        # very spread norms with B = max norm breach the second inequality
        params = make_params([[1.0, 0.0], [0.01, 0.0]], B=1.0)
        report = validate_params(params)
        assert any("norm-diversity violated" in line for line in report)

    def test_mean_norm_violation_reported(self):
        params = make_params([[1.0, 0.0]], mu=[[3.0, 0.0]], U=1.0)
        report = validate_params(params)
        assert any("mean-norm violated" in line for line in report)

    def test_probability_sum_checked(self):
        params = make_params([[1.0], [1.0]], p=[0.6, 0.6])
        assert any("sum to 1" in line for line in validate_params(params))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["sigma_x", "sigma_xi", "B", "U", "beta", "mu", "p"])
    def test_nonfinite_rejected(self, name, value):
        params = make_params([[1.0, 0.0], [0.0, 1.0]], B=1.0)
        field = getattr(params, name)
        if isinstance(field, np.ndarray):
            field = field.copy()
            field.flat[0] = value
        else:
            field = value
        with pytest.raises(ParameterError, match=f"^{name} must be .*finite"):
            dataclasses.replace(params, **{name: field})

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ModelParams(
                d=3, M=2, beta=np.ones((2, 2)), mu=np.zeros((2, 3)),
                p=[0.5, 0.5], sigma_x=1.0, sigma_xi=1.0, B=2.0, U=1.0,
            )


class TestSampleDataset:
    def test_near_noiseless_outputs_near_zero(self):
        params = make_params([[1.0, 0.0]], sigma_x=1e-9, sigma_xi=0.0)
        data = sample_dataset(params, 1000, seed=0)
        assert np.all(np.abs(data.y) < 1e-6)

    def test_group_frequencies(self):
        params = make_params([[1.0], [1.0]], p=[0.3, 0.7])
        data = sample_dataset(params, 1_000_000, seed=1)
        assert abs(data.group_counts[0] / data.n - 0.3) < 0.002

    def test_seed_determinism(self):
        params = make_params([[1.0, 2.0], [0.5, 1.0]], B=3.0)
        a = sample_dataset(params, 500, seed=42)
        b = sample_dataset(params, 500, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.s, b.s)
        c = sample_dataset(params, 500, seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_conditional_moments(self):
        mu = np.array([[1.0, -2.0], [0.0, 3.0]])
        params = make_params([[1.0, 0.0], [0.0, 1.0]], mu=mu, U=4.0, sigma_x=0.7)
        data = sample_dataset(params, 2_000_000, seed=3)
        for s in range(2):
            xs = data.x[data.s == s]
            m = xs.shape[0]
            se_mean = 0.7 / np.sqrt(m)
            assert np.all(np.abs(xs.mean(axis=0) - mu[s]) < 5 * se_mean)
            cov = np.cov(xs.T)
            se_cov = 0.7 ** 2 * np.sqrt(2.0 / m)
            assert np.all(np.abs(cov - 0.49 * np.eye(2)) < 5 * se_cov)

    def test_conditional_output_variance(self):
        # Var[Y | S=s] = sigma_x^2 ||beta_s||^2 + sigma_xi^2
        params = make_params([[2.0, 0.0], [0.0, 1.0]], B=2.5, sigma_xi=0.5)
        data = sample_dataset(params, 2_000_000, seed=4)
        for s, expect in [(0, 4.0 + 0.25), (1, 1.0 + 0.25)]:
            ys = data.y[data.s == s]
            se = expect * np.sqrt(2.0 / ys.size)
            assert abs(np.var(ys) - expect) < 5 * se

    def test_invalid_params_rejected(self):
        params = make_params([[2.0, 0.0]], B=1.0)
        with pytest.raises(ParameterError):
            sample_dataset(params, 10, seed=0)


class TestConstructorChecks:
    def test_non_integer_dimension_rejected(self):
        params = make_params([[1.0, 0.0], [0.0, 1.0]], B=1.0)
        for bad in ({"d": 3.7}, {"d": 2.0}, {"M": True}, {"M": "2"}):
            with pytest.raises(DimensionError):
                dataclasses.replace(params, **bad)

    def test_scalars_stored_as_float(self):
        params = make_params([[1.0, 0.0]], sigma_x=1, sigma_xi=0, B=2, U=1)
        assert '"sigma_x": 1.0' in params.to_json()
        for name in ("sigma_x", "sigma_xi", "B", "U"):
            assert type(getattr(params, name)) is float

    def test_regressor_nan_rejected(self):
        with pytest.raises(ParameterError, match="^w must be finite"):
            GroupAffineRegressor(w=[[1.0, np.nan]], b=[0.0])

    def test_dataset_inf_rejected(self):
        with pytest.raises(ParameterError, match="^x must be finite"):
            Dataset(x=[[1.0, np.inf]], s=[0], y=[0.0], M=1)

    @pytest.mark.parametrize(
        "beta",
        [
            "abc", None, [[1.0, None], [0.0, 1.0]], [[1.0, 0.0], [0.0]],
            [[True, False], [False, True]],
        ],
        ids=["string", "null", "null_cell", "ragged", "bool"],
    )
    def test_non_numeric_array_rejected_by_name(self, beta):
        params = make_params([[1.0, 0.0], [0.0, 1.0]], B=1.0)
        with pytest.raises(ParameterError, match="^beta must be a rectangular array of numbers"):
            dataclasses.replace(params, beta=beta)


class TestSerialization:
    @pytest.mark.parametrize(
        "obj",
        [
            make_params([[1.0, 2.0], [0.5, -1.0]], mu=[[0.1, 0.2], [0.0, 0.5]], B=3.0),
            SweepConfig(
                n_grid=[100, 200], d_grid=[2], M_grid=[2, 3], trials=3, seed=1,
                B=2.5, delta=0.2, out="results.csv",
            ),
            GroupAffineRegressor(w=[[0.1, -2.0], [1 / 3, 0.0]], b=[1e-300, -7.5]),
        ],
        ids=["ModelParams", "SweepConfig", "GroupAffineRegressor"],
    )
    def test_from_dict_inverts_to_dict(self, obj):
        back = from_dict(type(obj), json.loads(json.dumps(to_dict(obj))))
        assert type(back) is type(obj)
        assert to_dict(back) == to_dict(obj)

    def test_params_json_roundtrip(self):
        params = make_params([[1.0, 2.0], [0.5, -1.0]], mu=[[0.1, 0.2], [0.0, 0.5]], B=3.0)
        back = ModelParams.from_json(params.to_json())
        assert back.d == params.d and back.M == params.M
        assert np.array_equal(back.beta, params.beta)
        assert np.array_equal(back.mu, params.mu)
        assert back.B == params.B and back.U == params.U

    def test_params_json_field_names(self):
        obj = json.loads(make_params([[1.0]]).to_json())
        assert set(obj) == {"d", "M", "beta", "mu", "p", "sigma_x", "sigma_xi", "B", "U"}

    def test_dataset_csv_roundtrip(self, tmp_path):
        params = make_params([[1.0, 0.0], [0.0, 1.0]])
        data = sample_dataset(params, 64, seed=9)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x_1,x_2,s,y"
        back = Dataset.from_csv(path, M=2)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.s, data.s)
        assert np.array_equal(back.y, data.y)

    def test_dataset_csv_bytes(self, tmp_path):
        # reference: the csv module's default dialect, 17 significant digits
        import csv
        import io

        params = make_params([[1.0, 0.0], [0.0, 1.0]])
        data = sample_dataset(params, 20, seed=4)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["x_1", "x_2", "s", "y"])
        for x, s, y in zip(data.x, data.s, data.y):
            writer.writerow([f"{v:.17g}" for v in x] + [str(s + 1), f"{y:.17g}"])
        path = tmp_path / "data.csv"
        data.to_csv(path)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_csv_group_labels_one_based(self, tmp_path):
        params = make_params([[1.0], [1.0]])
        data = sample_dataset(params, 50, seed=2)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        labels = {int(line.split(",")[1]) for line in path.read_text().splitlines()[1:]}
        assert labels <= {1, 2}


class TestEvaluate:
    def test_constant_regressor(self):
        f = GroupAffineRegressor(w=np.zeros((1, 3)), b=np.array([3.0]))
        assert evaluate(f, [1.0, 2.0, 3.0], 0) == 3.0

    def test_coordinate_pick(self):
        f = GroupAffineRegressor(w=np.array([[1.0, 0.0]]), b=np.array([0.0]))
        assert evaluate(f, [2.0, 7.0], 0) == 2.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_manual_dot(self, seed):
        rng = np.random.default_rng(seed)
        d, M = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        w = rng.standard_normal((M, d))
        b = rng.standard_normal(M)
        x = rng.standard_normal(d)
        s = int(rng.integers(M))
        f = GroupAffineRegressor(w=w, b=b)
        manual = sum(w[s][j] * x[j] for j in range(d)) + b[s]
        assert evaluate(f, x, s) == pytest.approx(manual, abs=1e-12)

    def test_dimension_mismatch(self):
        f = GroupAffineRegressor(w=np.ones((1, 2)), b=np.zeros(1))
        with pytest.raises(DimensionError):
            evaluate(f, [1.0, 2.0, 3.0], 0)
        with pytest.raises(DimensionError):
            evaluate(f, [1.0, 2.0], 5)
