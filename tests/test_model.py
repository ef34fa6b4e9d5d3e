"""Tests for the data-generating model, validation, and serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import make_params
from fairlinreg import (
    ConfigError,
    Dataset,
    DimensionError,
    GroupAffineRegressor,
    ModelParams,
    PackedFamily,
    ParameterError,
    SweepConfig,
    evaluate,
    sample_dataset,
    to_dict,
    validate_params,
)
from fairlinreg.model import _CSV_CHUNK, _norm, _streams, from_dict, norm_diversity_factor


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

    def test_diversity_factor_of_a_zero_norm_rejected(self):
        params = make_params([[1.0, 0.0], [0.0, 0.0]], B=1.0)
        with pytest.raises(ParameterError, match="zero-norm"):
            params.diversity_factor()

    def test_mean_norm_violation_reported(self):
        params = make_params([[1.0, 0.0]], mu=[[3.0, 0.0]], U=1.0)
        report = validate_params(params)
        assert any("mean-norm violated" in line for line in report)

    @pytest.mark.filterwarnings("error")  # no overflow warning either
    def test_huge_mean_norms_measured_without_overflow(self):
        # ||mu_s||^2 overflows above ~1.3e154; the norm itself does not
        mu = [[1e200, 0.0], [0.0, -2e200]]
        params = make_params([[1.0, 0.0], [0.0, 1.0]], mu=mu, U=1e201)
        assert validate_params(params) == []
        report = validate_params(dataclasses.replace(params, U=1e200))
        assert report == ["mean-norm violated: max_s ||mu_s|| = 2e+200 > U = 1e+200"]

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


class TestScaleFreeNorms:
    @pytest.mark.parametrize("scale", [1e-200, 1e-3, 1e200, 1e300])
    def test_diversity_factor_ignores_scale(self, scale):
        # squares of norms above ~1e154 overflowed to inf times an underflowed 0
        p, norms = np.array([0.2, 0.3, 0.5]), np.array([1.0, 2.0, 3.5])
        base = norm_diversity_factor(p, norms)
        assert norm_diversity_factor(p, scale * norms) == pytest.approx(base, rel=1e-14)

    def test_beta_norms_match_numpy_to_the_bit(self):
        beta = np.random.default_rng(0).standard_normal((5, 7))
        params = make_params(beta)
        assert params.beta_norms.tolist() == [np.linalg.norm(row) for row in beta]

    def test_huge_beta_norms_are_finite(self):
        params = make_params([[3e300, 4e300], [0.0, 1e300]], B=1e301)
        assert params.beta_norms == pytest.approx([5e300, 1e300], rel=1e-15)

    def test_vector_norm_matches_numpy_to_the_bit(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 5, 10):
            v = rng.standard_normal(d)
            assert _norm(v) == np.linalg.norm(v)
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)


class TestSampleDataset:
    def test_near_noiseless_outputs_near_zero(self):
        params = make_params([[1.0, 0.0]], sigma_x=1e-9, sigma_xi=0.0)
        data = sample_dataset(params, 1000, seed=0)
        assert np.all(np.abs(data.y) < 1e-6)

    def test_group_frequencies(self):
        params = make_params([[1.0], [1.0]], p=[0.3, 0.7])
        data = sample_dataset(params, 1_000_000, seed=1)
        assert abs(data.group_counts[0] / data.n - 0.3) < 0.002

    def test_rows_sorted_by_group_from_one_multinomial(self):
        params = make_params([[1.0], [1.0], [1.0]], p=[0.5, 0.2, 0.3])
        data = sample_dataset(params, 1000, seed=5)
        assert np.all(np.diff(data.s) >= 0)
        expect = np.random.default_rng(5).multinomial(1000, params.p)
        assert np.array_equal(data.group_counts, expect)

    def test_seed_determinism(self):
        params = make_params([[1.0, 2.0], [0.5, 1.0]], B=3.0)
        a = sample_dataset(params, 500, seed=42)
        b = sample_dataset(params, 500, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.s, b.s)
        c = sample_dataset(params, 500, seed=43)
        assert not np.array_equal(a.x, c.x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, seed", [(10, -1), (10, 1.5), (10, "7"), (2.5, 0), (10.0, 0), (True, 0)]
    )
    def test_bad_seed_or_n_rejected(self, n, seed):
        with pytest.raises(ParameterError):
            sample_dataset(make_params([[1.0, 0.0]]), n, seed)

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

    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    def test_constructor_keeps_its_own_copy(self, view):
        # the caller's array stays writable, and no write to it or to the base
        # of a view passed in reaches the instance
        def passed(a):
            base = np.stack([a, a])
            return base, (base[0] if view else base[0].copy())

        params = make_params([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], B=1.0)
        cases = [
            (GroupAffineRegressor, {"w": np.zeros((2, 3)), "b": np.zeros(2)}, {}),
            (Dataset, {"x": np.zeros((4, 2)), "s": np.zeros(4, dtype=np.int64),
                       "y": np.zeros(4)}, {"M": 1}),
            (ModelParams, {"beta": params.beta, "mu": params.mu, "p": params.p},
             {k: v for k, v in to_dict(params).items() if k not in ("beta", "mu", "p")}),
            (PackedFamily, {"B_s": np.ones(2), "eps_s": np.full(2, 0.5)}, {"d": 3, "M": 2}),
        ]
        for cls, arrays, rest in cases:
            args = {name: passed(a) for name, a in arrays.items()}
            obj = cls(**{name: arg for name, (_, arg) in args.items()}, **rest)
            for name, (base, arg) in args.items():
                kept = getattr(obj, name).copy()
                assert arg.flags.writeable, (cls.__name__, name)
                arg += 1
                base += 1
                assert np.array_equal(getattr(obj, name), kept), (cls.__name__, name)

    def test_regressor_nan_rejected(self):
        with pytest.raises(ParameterError, match="^w must be finite"):
            GroupAffineRegressor(w=[[1.0, np.nan]], b=[0.0])

    def test_dataset_inf_rejected(self):
        with pytest.raises(ParameterError, match="^x must be finite"):
            Dataset(x=[[1.0, np.inf]], s=[0], y=[0.0], M=1)

    @pytest.mark.parametrize(
        "x, s, y, match",
        [
            ([1.0, 2.0], [0, 0], [0.0, 0.0], "shapes"),
            ([[1.0], [2.0]], [0], [0.0, 0.0], "shapes"),
            ([[1.0], [2.0]], [0, 0], [0.0], "shapes"),
            ([[1.0], [2.0]], [0, 2], [0.0, 0.0], "out of range"),
            ([[1.0], [2.0]], [-1, 0], [0.0, 0.0], "out of range"),
            # float labels were cast to int64: 0.5 and 1.7 read as 0 and 1
            ([[1.0], [2.0]], [0.5, 1.7], [0.0, 0.0], "need integers"),
            ([[1.0], [2.0]], [0.0, 1.0], [0.0, 0.0], "need integers"),
        ],
    )
    def test_dataset_bad_shapes_or_labels_rejected(self, x, s, y, match):
        with pytest.raises(DimensionError, match=match):
            Dataset(x=x, s=s, y=y, M=2)

    @pytest.mark.parametrize("M", [0, -1, 2.5, 2.0, "2", True, None])
    @pytest.mark.parametrize("n", [0, 1])
    def test_dataset_bad_group_count_rejected(self, n, M):
        # M = 2.5 constructed, M = 0 constructed on an empty dataset, and
        # M = '2' raised numpy's bare UFuncTypeError
        with pytest.raises(DimensionError, match="M must be an integer >= 1"):
            Dataset(x=np.zeros((n, 2)), s=np.zeros(n, dtype=np.int64), y=np.zeros(n), M=M)

    def test_regressor_shape_and_predict_width_rejected(self):
        with pytest.raises(DimensionError, match="b must be"):
            GroupAffineRegressor(w=np.zeros((2, 3)), b=np.zeros(3))
        f = GroupAffineRegressor(w=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(DimensionError, match="dimension 2, expected 3"):
            f.predict(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))

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

    @pytest.mark.filterwarnings("error")  # no numpy warning before the error
    @pytest.mark.parametrize(
        "text, match",
        [("x_1,x_2,s,y\n", "no data rows"), ("x_1,x_2,s,y\r\n\r\n", "no data rows"),
         ("s,y\n1,0.5\n", "header needs x columns")],
        ids=["header_only", "header_and_blank_line", "no_x_columns"],
    )
    def test_dataset_csv_without_x_columns_or_rows_rejected(self, tmp_path, text, match):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=match):
            Dataset.from_csv(path, M=2)

    @pytest.mark.parametrize("M", [0, 2.5, "2"])
    def test_dataset_csv_bad_group_count_rejected_before_reading(self, tmp_path, M):
        # the file does not exist: M is checked before it is opened
        with pytest.raises(DimensionError, match="M must be an integer >= 1"):
            Dataset.from_csv(tmp_path / "missing.csv", M=M)

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

    @pytest.mark.parametrize(
        "n, d",
        [
            (_CSV_CHUNK - 1, 2),
            (_CSV_CHUNK, 2),
            (_CSV_CHUNK + 1, 2),
            (2 * _CSV_CHUNK + 3, 3),
            (1, 2),
            (50, 1),
        ],
    )
    def test_dataset_csv_bytes_across_chunks(self, tmp_path, n, d):
        # references: the csv module as above, and the np.savetxt call the
        # chunked writer replaced
        import csv
        import io

        rng = np.random.default_rng(n)
        M = 1 if d == 1 else 3
        beta, mu = rng.standard_normal((M, d)), rng.standard_normal((M, d)) / 9
        params = make_params(beta, mu=mu, B=5.0)
        data = sample_dataset(params, n, seed=n + d)
        header = [f"x_{j + 1}" for j in range(d)] + ["s", "y"]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        for x, s, y in zip(data.x, data.s, data.y):
            writer.writerow([f"{v:.17g}" for v in x] + [str(s + 1), f"{y:.17g}"])
        old = tmp_path / "savetxt.csv"
        np.savetxt(
            old,
            np.column_stack([data.x, data.s + 1, data.y]),
            fmt=["%.17g"] * d + ["%d", "%.17g"],
            delimiter=",",
            header=",".join(header),
            comments="",
            newline="\r\n",
        )
        path = tmp_path / "data.csv"
        data.to_csv(path)
        assert path.read_bytes() == buf.getvalue().encode() == old.read_bytes()

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

    @pytest.mark.parametrize("s", [-1, 2, 0.5, 1.0, True], ids=["negative", "M", "half", "float", "bool"])
    def test_group_index_not_an_integer_in_range_rejected(self, s):
        f = GroupAffineRegressor(w=np.ones((2, 2)), b=np.zeros(2))
        with pytest.raises(DimensionError, match="group index"):
            evaluate(f, [1.0, 2.0], s)


class TestPredict:
    def test_labels_pick_their_group(self):
        f = GroupAffineRegressor(w=[[1.0, 0.0], [0.0, 1.0]], b=[0.5, -0.5])
        x = [[2.0, 7.0], [2.0, 7.0], [3.0, 4.0]]
        for labels in ([0, 1, 1], np.array([0, 1, 1], dtype=np.uint8)):
            assert f.predict(x, labels).tolist() == [2.5, 6.5, 3.5]
        assert f.predict(np.zeros((0, 2)), []).shape == (0,)

    @pytest.mark.parametrize(
        "s",
        [[0, -1], [0, 2], [0, 5], [0.0, 1.0], [0.5, 1.0], [True, False]],
        ids=["negative", "M", "above_M", "float", "half", "bool"],
    )
    def test_label_not_an_integer_in_range_rejected(self, s):
        # -1 wrapped to group M - 1, and a label >= M raised a bare IndexError
        f = GroupAffineRegressor(w=np.ones((2, 3)), b=np.zeros(2))
        with pytest.raises(DimensionError, match=r"integers in \[0, 2\)"):
            f.predict(np.zeros((2, 3)), s)

    @pytest.mark.parametrize(
        "x, s, match",
        [
            ([1.0, 2.0], 0, "2-d"),
            (np.zeros((1, 1, 2)), [0], "2-d"),
            (np.zeros((3, 2)), [0, 1], "one group label per row"),
            (np.zeros((3, 2)), np.zeros((3, 2), dtype=int), "one group label per row"),
            (np.zeros((3, 2)), 1, "one group label per row"),
        ],
        ids=["one_point", "3d", "short_labels", "2d_labels", "scalar_label"],
    )
    def test_x_not_2d_or_labels_not_one_per_row_rejected(self, x, s, match):
        # these raised numpy's bare ValueError from einsum, or broadcast a label
        f = GroupAffineRegressor(w=np.ones((2, 2)), b=np.zeros(2))
        with pytest.raises(DimensionError, match=match):
            f.predict(x, s)


class TestStreams:
    """``_streams`` against numpy's own ``SeedSequence``: the guard if numpy's hash ever changes."""

    SEEDS = [
        0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 2**130 + 7, np.int64(2**40 + 3)
    ]
    KEYS = [
        [(0,), (1,), (2**32 - 1,)],
        [(0, 0, 0), (2**32 - 1, 0, 7), (3, 2**32 - 1, 1), (2**32 - 1,) * 3],
    ]

    @pytest.mark.parametrize("keys", KEYS, ids=["length1", "length3"])
    @pytest.mark.parametrize("seed", SEEDS, ids=str)
    def test_bit_for_bit_numpy_seed_sequence(self, seed, keys):
        streams = list(_streams(seed, keys))
        assert len(streams) == len(keys)
        for key, rng in zip(keys, streams):
            expect = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            assert rng.bit_generator.state == expect.bit_generator.state
            assert rng.integers(0, 2**63, size=4).tolist() == expect.integers(0, 2**63, size=4).tolist()
            assert rng.standard_normal(3).tolist() == expect.standard_normal(3).tolist()

    def test_a_key_array(self):
        by_array = [rng.random() for rng in _streams(9, np.arange(5)[:, None])]
        assert by_array == [rng.random() for rng in _streams(9, [(k,) for k in range(5)])]

    def test_built_as_taken(self):
        # the generators are built one at a time: a later key's is not built yet
        streams = _streams(3, [(0,), (1,)])
        first = next(streams)
        assert first.random() == np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,))).random()
        assert len(list(streams)) == 1

    @pytest.mark.parametrize(
        "seed, keys",
        [
            (-1, [(0,)]),
            (1.5, [(0,)]),
            (True, [(0,)]),
            ("7", [(0,)]),
            (0, [(-1,)]),
            (0, [(2**32,)]),
            (0, [(0.5,)]),
            (0, [()]),
            (0, []),
        ],
        ids=["negative_seed", "float_seed", "bool_seed", "str_seed", "negative_key",
             "key_above_32_bits", "float_key", "empty_key", "no_keys"],
    )
    def test_bad_seed_or_key_rejected(self, seed, keys):
        with pytest.raises(ParameterError):
            _streams(seed, keys)
