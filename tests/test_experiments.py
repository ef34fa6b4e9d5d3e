"""Tests for sweep configuration, execution, determinism, and the CLI."""

import contextlib
import copy
import csv
import io
import json
import math
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from _support import make_params
from fairlinreg import (
    ConfigError,
    DegenerateDirectionError,
    DimensionError,
    FairRegressionError,
    ModelParams,
    ParameterError,
    SingularMatrixError,
    SweepConfig,
    analytic_excess_risk,
    build_family,
    build_fdp,
    component_errors,
    fit,
    fit_slope,
    gv_code,
    hard_instance_eps,
    packed_pair_kl,
    packed_pair_separation,
    parity_gap_margin,
    random_valid_params,
    run_lower_bound_report,
    run_sweep,
    sample_cell_stats,
    sample_dataset,
    unfairness,
    validate_params,
)
from fairlinreg import cli, experiments
from fairlinreg.cli import main
from fairlinreg.lower_bound import _PAIR_CHUNK, _fano_ladder
from fairlinreg.model import GroupAffineRegressor, norm_diversity_factor


class TestSweepConfig:
    def test_valid_roundtrip(self):
        cfg = SweepConfig.from_json(
            json.dumps(
                {"n_grid": [100], "d_grid": [2], "M_grid": [2], "trials": 3, "seed": 1}
            )
        )
        assert cfg.n_grid == (100,) and cfg.trials == 3

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_json(json.dumps({"n_grid": [10]}))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_json(
                json.dumps(
                    {
                        "n_grid": [10], "d_grid": [2], "M_grid": [2],
                        "trials": 1, "seed": 0, "bogus": 1,
                    }
                )
            )

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_grid=(0,), d_grid=(2,), M_grid=(2,), trials=1, seed=0)
        with pytest.raises(ConfigError):
            SweepConfig(n_grid=(10,), d_grid=(2,), M_grid=(2,), trials=0, seed=0)
        base = {"n_grid": [10], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 0}
        for bad in (
            {"n_grid": ["abc"]}, {"trials": 1.5}, {"seed": "x"},
            {"sigma_x": True}, {"B": False}, {"mc_samples": 0}, {"out": ""},
        ):
            with pytest.raises(ConfigError):
                SweepConfig.from_json(json.dumps({**base, **bad}))

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_json("{not json")


class TestRandomValidParams:
    def test_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d, M = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            params = random_valid_params(d, M, 1.5, 1.0, 1.0, 1.0, rng)
            assert validate_params(params) == []

    def test_norm_range(self):
        rng = np.random.default_rng(1)
        B = 2.0
        for _ in range(50):
            params = random_valid_params(4, 3, B, 1.0, 1.0, 1.0, rng)
            norms = params.beta_norms
            assert np.all(norms >= B / 4 - 1e-12) and np.all(norms <= B + 1e-12)

    @pytest.mark.parametrize("B", [1.0 + 1e-9, 1.0001, 1.5, 2.0, 3.0, 1e200])
    def test_every_norm_draw_meets_the_diversity_bound(self, B):
        # every model valid, with its norms in [B / min(4, B^2), B]
        rng = np.random.default_rng(1)
        norms = []
        for _ in range(20):
            params = random_valid_params(2, 6, B, 1.0, 1.0, 1.0, rng)
            assert validate_params(params) == []
            norms.append(params.beta_norms)
        norms = np.array(norms)
        assert np.all(norms >= B / min(4.0, B * B) * (1 - 1e-12))
        assert np.all(norms <= B * (1 + 1e-12))

    @pytest.mark.parametrize(
        "B", [1.0 + 1e-12, 1.0 + 1e-9, 1.0001, 1.1, 1.5, math.sqrt(2.0), 2.0, 3.0, 1e100, 1e200]
    )
    def test_every_corner_of_the_norm_range_meets_the_diversity_bound(self, B):
        # why one norm draw suffices: no corner of [B / min(4, B^2), B]^M, with
        # j norms at the top of the range and M - j at the bottom, gives
        # balanced groups a factor above B^2, and random and Nelder-Mead
        # searches of the interior found none above the largest corner
        low = B / min(4.0, B * B)
        for M in range(1, 65):
            corners = np.where(np.arange(M) < np.arange(M + 1)[:, None], B, low)
            factors = norm_diversity_factor(np.full(M, 1.0 / M), corners)
            assert np.all(factors <= B * B), M

    @pytest.mark.parametrize("B, M", [(0.5, 3), (0.5, 1), (1.0 - 1e-12, 2)])
    def test_unreachable_diversity_bound_rejected_before_drawing(self, B, M):
        # balanced groups have a diversity factor >= 1 > B^2
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="norm-diversity factor"):
            random_valid_params(3, M, B, 1.0, 1.0, 1.0, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("M", [1, 2, 3, 6])
    def test_B_one_accepted(self, M):
        # at B = 1 the norm range is the single point 1: every norm is exactly 1
        for seed in range(5):
            params = random_valid_params(3, M, 1.0, 1.0, 1.0, 1.0, np.random.default_rng(seed))
            assert validate_params(params) == []
            assert np.all(np.abs(params.beta_norms - 1.0) <= 1e-15)

    @staticmethod
    def _reference_draw(d, M, B, U, rng):
        """One model in the documented draw order: norms, directions, mean directions, radii."""
        p = np.full(M, 1.0 / M)
        while True:
            norms = np.exp(rng.uniform(math.log(B / min(4.0, B * B)), math.log(B), size=M))
            if norm_diversity_factor(p, norms) <= B * B:
                break
        dirs = rng.standard_normal((M, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mu_dirs = rng.standard_normal((M, d))
        mu_dirs /= np.linalg.norm(mu_dirs, axis=1, keepdims=True)
        radii = U * rng.random(M) ** (1.0 / d)
        return norms[:, None] * dirs, radii[:, None] * mu_dirs, p

    @pytest.mark.parametrize("B", [1.0 + 1e-9, 1.0001, 1.5, 1e200])
    @pytest.mark.parametrize("M", [1, 3, 6])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_batch_draw_matches_one_model_at_a_time(self, d, M, B):
        # a sweep job draws its models as one batch; each equals, to the bit,
        # random_valid_params on the same generator and the reference draw
        keys = [np.random.SeedSequence(17, spawn_key=(t,)) for t in range(5)]
        stack = experiments._draw_models(
            d, M, B, 0.7, 1.0, 1.0, [np.random.default_rng(key) for key in keys]
        )
        for t, key in enumerate(keys):
            params = random_valid_params(d, M, B, 0.7, 1.0, 1.0, np.random.default_rng(key))
            beta, mu, p = self._reference_draw(d, M, B, 0.7, np.random.default_rng(key))
            for name, expect in [
                ("beta", beta), ("mu", mu), ("p", p), ("norms", params.beta_norms),
            ]:
                assert getattr(stack, name)[t].tobytes() == expect.tobytes(), name
            for name in ("beta", "mu", "p"):
                assert getattr(params, name).tobytes() == getattr(stack, name)[t].tobytes()
        for name in ("sigma_x", "sigma_xi", "B", "U"):
            assert getattr(stack, name).shape == (5,)

    @pytest.mark.parametrize(
        "U, sigma_x, sigma_xi, match",
        [(-1.0, 1.0, 1.0, "U must be positive: -1.0; mean-norm violated"),
         (1.0, -1.0, 1.0, "sigma_x must be positive"),
         (1.0, 1.0, -1.0, "sigma_xi must be nonnegative")],
    )
    def test_stack_that_fails_a_constraint_rejected(self, U, sigma_x, sigma_xi, match):
        rngs = [np.random.default_rng(t) for t in range(3)]
        with pytest.raises(ConfigError, match="generated invalid params: " + match):
            experiments._draw_models(2, 3, 1.5, U, sigma_x, sigma_xi, rngs)
        with pytest.raises(ConfigError, match="generated invalid params: " + match):
            random_valid_params(2, 3, 1.5, U, sigma_x, sigma_xi, rngs[0])


class TestRunSweep:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = dict(n_grid=(400,), d_grid=(2,), M_grid=(2,), trials=1, seed=3)
        a = run_sweep(SweepConfig(**cfg, out=str(tmp_path / "a.csv")))
        b = run_sweep(SweepConfig(**cfg, out=str(tmp_path / "b.csv")))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.rows == b.rows

    def test_thread_count_invariance(self, tmp_path):
        cfg = dict(n_grid=(300, 600), d_grid=(2,), M_grid=(2, 3), trials=4, seed=5)
        one = run_sweep(SweepConfig(**cfg, out=str(tmp_path / "t1.csv")), threads=1)
        many = run_sweep(SweepConfig(**cfg, out=str(tmp_path / "t8.csv")), threads=8)
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t8.csv").read_bytes()
        assert one.rows == many.rows == run_sweep(SweepConfig(**cfg), threads=3).rows
        # jobs that span cells: 3 x 30 rows at one (d, M) make jobs of 64 and 26
        cfg = dict(n_grid=(30, 300, 4000), d_grid=(2,), M_grid=(3,), trials=30, seed=6)
        csvs = []
        for threads in (1, 2, 8):
            path = tmp_path / f"span{threads}.csv"
            run_sweep(SweepConfig(**cfg, out=str(path)), threads=threads)
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    @staticmethod
    def _record_jobs(monkeypatch) -> list:
        """Patch ``_run_trial`` to record each job's cells, rows and running thread."""
        jobs, run_trial = [], experiments._run_trial

        def recording(config, cells, rows):
            jobs.append((cells, rows, threading.get_ident()))
            return run_trial(config, cells, rows)

        monkeypatch.setattr(experiments, "_run_trial", recording)
        return jobs

    @pytest.mark.parametrize(
        "grid, trials, sizes",
        [
            (dict(n_grid=(16000, 32000, 64000), d_grid=(5,), M_grid=(3,)), 8, [24]),
            (dict(n_grid=(300, 600), d_grid=(2, 3), M_grid=(2,)), 3, [3, 3, 3, 3]),
            (dict(n_grid=(300, 600), d_grid=(2,), M_grid=(2,)), experiments.TRIAL_BATCH + 6,
             [64, 64, 12]),
        ],
        ids=["ladder", "d_changes", "full_batches"],
    )
    def test_job_boundaries(self, monkeypatch, grid, trials, sizes):
        # a job holds at most TRIAL_BATCH rows and ends where (d, M) changes
        config = SweepConfig(**grid, trials=trials, seed=42)
        jobs = self._record_jobs(monkeypatch)
        rows = run_sweep(config).rows
        assert [len(job) for _, job, _ in jobs] == sizes
        # the jobs' rows, joined, are every (cell_idx, trial) stream key in CSV order
        cells = jobs[0][0]
        keys = [(cell_idx, trial) for cell_idx in range(len(cells)) for trial in range(trials)]
        assert [row for _, job, _ in jobs for row in job] == keys
        for _, job, _ in jobs:
            assert len({cells[cell_idx][1:] for cell_idx, _ in job}) == 1
        # the rows on each side of every cut are the single-trial chain's
        for cut in np.cumsum(sizes)[:-1].tolist():
            for i in (cut - 1, cut):
                cell_idx, trial = divmod(i, trials)
                expect = self._single_trial_row(config, cell_idx, tuple(rows[i][:3]), trial)[1]
                assert rows[i] == expect

    def test_one_thread_runs_jobs_in_the_calling_thread(self, monkeypatch):
        config = SweepConfig(n_grid=(300, 600), d_grid=(2, 3), M_grid=(2,), trials=2, seed=7)
        jobs = self._record_jobs(monkeypatch)
        run_sweep(config, threads=1)
        assert [ident for *_, ident in jobs] == [threading.get_ident()] * 4
        jobs.clear()
        run_sweep(config, threads=2)
        assert len(jobs) == 4 and threading.get_ident() not in {ident for *_, ident in jobs}

    def test_prefix_stability(self):
        # a trial's row must not depend on how many trials share its batch; at
        # n = 30 every group is so small that all its cells draw their rows
        cfg = dict(n_grid=(30, 4000), d_grid=(2,), M_grid=(6,), seed=23)
        short = run_sweep(SweepConfig(**cfg, trials=3))
        long = run_sweep(SweepConfig(**cfg, trials=experiments.TRIAL_BATCH + 6))
        for n in (30, 4000):
            head = long.select(n=n).rows[:3]
            assert head == short.select(n=n).rows
            assert [row[4] for row in head] == [0, 1, 2]
        assert 1 in long.column("undersampled")

    @staticmethod
    def _single_trial_row(config, cell_idx, cell, trial):
        """One sweep row from the public single-trial functions, in the sweep's stream."""
        n, d, M = cell
        key = np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 0))
        params = random_valid_params(
            d, M, config.B, config.U, config.sigma_x, config.sigma_xi, np.random.default_rng(key)
        )
        stats_key = np.random.SeedSequence(config.seed, spawn_key=(cell_idx, trial, 1))
        regressor, estimates = fit(sample_cell_stats(params, n, stats_key), d, M, None)
        report = unfairness(regressor, params)
        return estimates, [
            n, d, M, config.B, trial,
            analytic_excess_risk(regressor, build_fdp(params)),
            report.w2_max,
            report.kol_max,
            *component_errors(params, estimates).values(),
            parity_gap_margin(report, estimates, params),
            int(experiments.undersampled(n, d, M, float(params.p.min()), config.delta)),
        ]

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(n_grid=(16000,), d_grid=(5,), M_grid=(3,), seed=31),  # a ladder cell
            dict(n_grid=(45,), d_grid=(2,), M_grid=(3,), seed=32),  # every gate off
            dict(n_grid=(300,), d_grid=(2,), M_grid=(2,), seed=33, B=1e200),
        ],
        ids=["ladder", "gates_off", "B_1e200"],
    )
    def test_batch_matches_single_trial_chain(self, cfg):
        # each row, to the bit, is what the public functions give for its trial
        config = SweepConfig(**cfg, trials=5)
        rows = run_sweep(config).rows
        with np.errstate(over="ignore"):
            estimates, expect = zip(
                *(self._single_trial_row(config, 0, rows[0][:3], t) for t in range(5))
            )
        assert rows == list(expect)
        values = np.array([row[5:] for row in rows], dtype=float)
        assert np.isinf(values).any() == (config.B == 1e200)
        gates = np.array([e.gate_12d for e in estimates])
        assert not gates.any() if config.n_grid == (45,) else gates.all()

    @pytest.mark.parametrize("threads", [0, -3, 1.5, True])
    def test_nonpositive_threads_rejected(self, threads):
        config = SweepConfig(n_grid=(300,), d_grid=(2,), M_grid=(2,), trials=1, seed=5)
        with pytest.raises(ConfigError, match="threads must be an integer >= 1"):
            run_sweep(config, threads=threads)

    def test_schema_tag_and_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        result = run_sweep(
            SweepConfig(
                n_grid=(200,), d_grid=(2,), M_grid=(2,), trials=1, seed=7, out=str(out)
            )
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=fairlinreg-sweep-3"
        assert lines[1].startswith("n,d,M,B,trial,excess_risk,")
        assert lines[1].split(",") == result.columns

    def test_table_access(self):
        result = run_sweep(
            SweepConfig(n_grid=(200, 400), d_grid=(2,), M_grid=(2,), trials=2, seed=7)
        )
        names = result.columns
        for row in result.rows:
            for name in ("n", "d", "M", "trial", "undersampled"):
                assert type(row[names.index(name)]) is int
        n = result.column("n")
        n[:] = -1.0  # a float copy: the table keeps its values
        assert n.dtype == float and list(result.column("n")) == [200, 200, 400, 400]
        cell = result.select(n=400, trial=1)
        assert [row[:5] for row in cell.rows] == [[400, 2, 2, 1.5, 1]]
        empty = result.select(n=300)
        assert empty.rows == [] and empty.columns == names
        assert empty.to_csv_text().splitlines() == [
            "# schema=fairlinreg-sweep-3", ",".join(names)
        ]

    @staticmethod
    def _csv_writer_text(result, schema):
        """The table as ``csv.writer`` writes it, each float as ``f"{v:.17g}"``."""
        buf = io.StringIO()
        buf.write(f"# schema={schema}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])
        return buf.getvalue()

    def test_csv_text_matches_the_csv_writer(self):
        table = experiments.SweepResult({
            "n": np.array([3, -7, 10**12, 0]),
            "value": np.array([np.inf, -np.inf, np.nan, 1e200]),
            "small": np.array([-0.0, 1e-310, 0.1, -2.5e-17]),
            "trial": np.array([0, 1, 2, 3]),
        })
        for result in (table, table.select(trial=2), table.select(trial=9)):
            for schema in ("fairlinreg-sweep-3", "fairlinreg-lower-bound-2"):
                assert result.to_csv_text(schema) == self._csv_writer_text(result, schema)
        sweep = run_sweep(
            SweepConfig(n_grid=(60, 400), d_grid=(2,), M_grid=(3,), trials=3, seed=7, B=1e200)
        )
        text = sweep.to_csv_text()
        assert "inf" in text and text == self._csv_writer_text(sweep, "fairlinreg-sweep-3")

    def test_nonnegative_outputs(self):
        result = run_sweep(
            SweepConfig(n_grid=(500,), d_grid=(3,), M_grid=(2,), trials=5, seed=9)
        )
        for name in (
            "excess_risk", "w2_unfairness", "kol_unfairness",
            "e_mean", "e_norm", "e_coef", "e_coef_prime", "e_mean_prime", "e_prob",
        ):
            assert np.all(result.column(name) >= 0.0)

    def test_undersampled_cells_flagged_with_zero_regressor_risk(self):
        # n so small that every gate is off: the zero regressor's closed-form risk
        result = run_sweep(
            SweepConfig(n_grid=(30,), d_grid=(3,), M_grid=(2,), trials=4, seed=11)
        )
        assert np.all(result.column("undersampled") == 1.0)
        from fairlinreg.experiments import _run_trial  # reproduce one trial's params

        for trial in range(4):
            rng = np.random.default_rng(
                np.random.SeedSequence(11, spawn_key=(0, trial, 0))
            )
            params = random_valid_params(3, 2, 1.5, 1.0, 1.0, 1.0, rng)
            oracle = build_fdp(params)
            zero = GroupAffineRegressor(w=np.zeros((2, 3)), b=np.zeros(2))
            expect = analytic_excess_risk(zero, oracle)
            assert result.column("excess_risk")[trial] == pytest.approx(expect)


class TestFitSlope:
    def test_exact_inverse_law(self):
        xs = np.array([10.0, 100.0, 1000.0, 10_000.0])
        slope, _, r2 = fit_slope(zip(xs, 3.0 / xs))
        assert slope == pytest.approx(-1.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_law(self):
        xs = np.array([4.0, 16.0, 64.0])
        slope, _, _ = fit_slope(zip(xs, 5.0 / np.sqrt(xs)))
        assert slope == pytest.approx(-0.5, abs=1e-10)

    def test_too_few_points_rejected(self):
        with pytest.raises(ParameterError):
            fit_slope([(1.0, 1.0), (2.0, 0.5)])

    def test_values_without_pairs_rejected(self):
        with pytest.raises(ParameterError, match="pairs"):
            fit_slope([1, 2, 3])

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            fit_slope([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])

    @pytest.mark.filterwarnings("error")  # inf raised a RuntimeWarning in polyfit
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_rejected(self, bad, column):
        # a NaN point slipped past the positivity check and gave (nan, nan, nan)
        pts = [[1.0, 1.0], [2.0, 0.5], [3.0, 0.2], [4.0, 0.1]]
        pts[2][column] = bad
        with pytest.raises(ParameterError, match="finite"):
            fit_slope(pts)


class TestLowerBoundReport:
    @pytest.mark.filterwarnings("error")
    def test_small_sandwich(self, tmp_path):
        out = tmp_path / "lb.csv"
        # B_s = 1e100 gives risks near 1e198, whose squared deviations would overflow
        for B_s in (1.0, 1e100):
            result = run_lower_bound_report(
                9, 4, [1000, 2000, 4000], B_s, 1.0, 1.0, seed=1,
                trials=8, code_budget=400, out=out,
            )
            fano = result.column("fano_value")
            risk = result.column("est_risk_mean")
            se = result.column("est_risk_se")
            assert np.all(np.isfinite(se) & (se > 0.0))
            assert np.all(fano <= risk + 4 * se)
            assert np.all(fano > 0.0)
            lines = out.read_text().splitlines()
            assert lines[0] == "# schema=fairlinreg-lower-bound-2"
            assert lines[1].split(",") == result.columns
            names = result.columns
            for row in result.rows:
                for name in ("d", "M", "n", "K"):
                    assert type(row[names.index(name)]) is int

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    def test_precondition(self):
        for d, M, B_s, n in [
            (3, 2, 1.0, 1000), (9, 0, 1.0, 1000), (9, -1, 1.0, 1000), (1, 4, 1.0, 1000),
            (9, 4, 0.0, 1000), (9, 4, np.nan, 1000), (9, 4, np.inf, 1000), (9, 4, 1.0, 0),
        ]:
            with pytest.raises(ParameterError):
                run_lower_bound_report(d, M, [n], B_s, 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            run_lower_bound_report(9.0, 4, [1000], 1.0, 1.0, 1.0, seed=0)
        with pytest.raises(DimensionError):
            run_lower_bound_report(9, 4, [1000], [1.0, 1.0], 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError, match="n_grid must be nonempty"):
            run_lower_bound_report(9, 4, [], 1.0, 1.0, 1.0, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_x, sigma_xi", [(1.0, 1e200), (1e160, 1.0)])
    def test_sigma_too_large_to_square_rejected(self, sigma_x, sigma_xi):
        # sigma ** 2 on a float above ~1.3e154 raised a bare OverflowError
        with pytest.raises(ParameterError, match="packing radius"):
            run_lower_bound_report(
                9, 4, [400], 1.0, sigma_x, sigma_xi, seed=0, trials=2, code_budget=50
            )

    def test_pair_reduction_matches_per_pair_loop(self):
        # reference: the explicit loop over every codeword pair
        n_grid, budget, seed = [1000, 4000], 200, 3
        for d, M in [
            (9, 4),
            (3, 9),   # M >= 8: each pair's M terms are summed pairwise
            (17, 8),  # min_dist 2, and more pairs than one chunk holds
        ]:
            result = run_lower_bound_report(
                d, M, n_grid, 1.0, 1.2, 0.8, seed=seed, trials=2, code_budget=budget
            )
            code = gv_code(d - 1, M, max((d - 1) // 8, 1), budget, seed)
            assert np.all(result.column("K") == code.size)
            if d == 17:
                assert code.size * (code.size - 1) // 2 > _PAIR_CHUNK
            p = np.full(M, 1.0 / M)
            pairs = [
                (code.codewords[i], code.codewords[j])
                for i in range(code.size)
                for j in range(i + 1, code.size)
            ]
            for n, kl, eps in zip(n_grid, result.column("kl"), result.column("epsilon")):
                n_counts = np.round(n * p)
                radii = hard_instance_eps(d, M, 0.8, 1.2, 1.0, n_counts)
                family = build_family(d, M, 1.0, radii)
                assert kl == max(
                    packed_pair_kl(family, v, w, n_counts, 1.2, 0.8) for v, w in pairs
                )
                assert eps == min(
                    packed_pair_separation(family, v, w, p, 1.2) for v, w in pairs
                )

    def test_csv_does_not_depend_on_trial_batch(self, monkeypatch):
        # 70 trials at each of 2 n span jobs at every batch size
        texts = set()
        for batch in (1, 7, 64):
            monkeypatch.setattr(experiments, "TRIAL_BATCH", batch)
            result = run_lower_bound_report(
                9, 4, [2000, 4000], 1.0, 1.0, 1.0, seed=5, trials=70, code_budget=100
            )
            texts.add(result.to_csv_text(experiments.LOWER_BOUND_SCHEMA))
        assert len(texts) == 1

    def test_pair_reduction_memory_is_bounded(self):
        # K ~ 800 codewords give ~3.2e5 pairs; all of them at once as an
        # (pairs, M) float array would alone take ~13 MB
        run_lower_bound_report(9, 4, [1000], 1.0, 1.0, 1.0, seed=0, trials=2, code_budget=20)
        tracemalloc.start()
        try:
            result = run_lower_bound_report(
                33, 5, [3000, 30000], 1.0, 1.0, 1.0, seed=9, trials=3, code_budget=800
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rows[0][result.columns.index("K")] > 700
        assert peak < 8e6

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=-1), dict(seed=1.5), dict(trials=2.5), dict(n_grid=[2000.7]),
            dict(sigma_x=-1.0), dict(sigma_x=0.0), dict(sigma_xi=-1.0), dict(sigma_xi=0.0),
            dict(sigma_x=np.nan), dict(sigma_xi=np.inf),
            dict(code_budget=0), dict(code_budget=1), dict(code_budget=-3),
            dict(code_budget=50.0), dict(code_budget=None),
        ],
        ids=[
            "negative_seed", "float_seed", "float_trials", "float_n",
            "negative_sigma_x", "zero_sigma_x", "negative_sigma_xi", "zero_sigma_xi",
            "nan_sigma_x", "inf_sigma_xi",
            "zero_budget", "one_budget", "negative_budget", "float_budget", "no_budget",
        ],
    )
    def test_bad_seed_trials_or_n_rejected_before_any_work(self, monkeypatch, change):
        def no_work(*args):
            raise AssertionError("gv_code ran")

        monkeypatch.setattr("fairlinreg.lower_bound.gv_code", no_work)
        kwargs = dict(n_grid=[2000], B_s=1, sigma_x=1, sigma_xi=1, seed=3, trials=4, code_budget=50)
        with pytest.raises(ParameterError):
            run_lower_bound_report(9, 4, **{**kwargs, **change})

    @pytest.mark.parametrize("budget", [2, 2000])
    def test_fewer_than_two_codewords_rejected_before_any_fit(self, monkeypatch, budget):
        # at d = 2 each block has one sign, so a 17-block code rarely holds two
        # codewords; the Fano bound then has no value, and no fit should run
        def no_fit(*args):
            raise AssertionError("_fit_job ran")

        monkeypatch.setattr(experiments, "_fit_job", no_fit)
        with pytest.raises(ParameterError, match="K >= 2 .* gave K=1"):
            run_lower_bound_report(
                2, 17, [2000], 1.0, 1.0, 1.0, seed=0, trials=2, code_budget=budget
            )

    @pytest.mark.parametrize("trials, batches", [(10, [20]), (40, [64, 16])])
    def test_one_batch_per_job(self, monkeypatch, trials, batches):
        # the report's (n, trial) rows are cut into jobs as a sweep's are, and
        # each job is drawn, fitted and scored as one batch
        calls, fit_job = [], experiments._fit_job

        def recording(*args):
            fitted = fit_job(*args)
            calls.append(fitted[0].tolist())
            return fitted

        monkeypatch.setattr(experiments, "_fit_job", recording)
        run_lower_bound_report(
            9, 4, [2000, 4000], 1.0, 1.0, 1.0, seed=5, trials=trials, code_budget=100
        )
        assert [len(ns) for ns in calls] == batches
        assert sum(calls, []) == [2000] * trials + [4000] * trials

    @pytest.mark.parametrize(
        "args, seed, trials, budget",
        [((9, 4, [2000, 32000], 1.0, 1.0, 1.0), 7, 10, 300),
         ((9, 4, [1000, 2000, 4000], [1, 2, 1, 2], 1.2, 0.8), 3, 70, 200)],
    )
    def test_each_trial_draws_from_its_stream(self, args, seed, trials, budget):
        # reference: n's trial t fitted alone on cell statistics drawn from
        # stream (n's index, t, 1), on the member the Fano side packs for n
        result = run_lower_bound_report(*args, seed=seed, trials=trials, code_budget=budget)
        d, M, n_grid = args[:3]
        members = _fano_ladder(*args, budget, seed)[0]
        for n_idx, (n, member) in enumerate(zip(n_grid, members)):
            oracle = build_fdp(member)
            risks = [
                analytic_excess_risk(fit(sample_cell_stats(
                    member, n, np.random.SeedSequence(seed, spawn_key=(n_idx, t, 1))
                ), d, M, None)[0], oracle)
                for t in range(trials)
            ]
            assert result.column("est_risk_mean")[n_idx] == np.mean(risks)

    def test_single_trial_rejected(self):
        # one trial has no standard error
        with pytest.raises(ParameterError):
            run_lower_bound_report(
                9, 4, [1000], 1.0, 1.0, 1.0, seed=0, trials=1, code_budget=50
            )

    def test_diversity_spread_increases_risk(self):
        # shrinking one group's norm target raises the diversity factor and
        # the measured estimation difficulty at fixed n
        rng = np.random.default_rng(2)
        risks = []
        for b1 in (1.0, 0.4, 0.1):
            B_s = np.array([b1, 1.0, 1.0, 1.0])
            from fairlinreg import build_family, fit, hard_instance_eps, sample_dataset

            eps = hard_instance_eps(9, 4, 1.0, 1.0, B_s, [500] * 4)
            family = build_family(9, 4, B_s, np.minimum(eps, 1.0))
            v = rng.choice((-1, 1), size=(4, 8)).astype(np.int8)
            params = family.params_of(v, np.full(4, 0.25), 1.0, 1.0)
            oracle = build_fdp(params)
            vals = []
            for t in range(30):
                data = sample_dataset(params, 2000, seed=100 * t + int(b1 * 10))
                f, _ = fit(data, 9, 4, seed=t)
                vals.append(analytic_excess_risk(f, oracle))
            risks.append(np.mean(vals))
        assert risks[0] < risks[1] < risks[2]


class TestCli:
    @pytest.fixture()
    def params_file(self, tmp_path):
        rng = np.random.default_rng(0)
        params = random_valid_params(3, 2, 1.5, 1.0, 1.0, 1.0, rng)
        path = tmp_path / "params.json"
        path.write_text(params.to_json())
        return path

    def test_generate_fit_evaluate_pipeline(self, tmp_path, params_file):
        data = tmp_path / "data.csv"
        reg = tmp_path / "reg.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["generate", "--params", str(params_file), "--n", "2000",
             "--seed", "1", "--out", str(data)]
        ) == 0
        assert main(
            ["fit", "--data", str(data), "--d", "3", "--M", "2",
             "--seed", "2", "--out", str(reg)]
        ) == 0
        assert main(
            ["evaluate", "--regressor", str(reg), "--params", str(params_file),
             "--out", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert payload["excess_risk"] >= 0.0
        assert list(payload["unfairness"]) == ["w2_max", "kol_max", "avg_w2", "pairwise"]
        fitted = json.loads(reg.read_text())
        assert list(fitted) == ["regressor", "estimates"]
        assert list(fitted["regressor"]) == ["w", "b"]
        assert list(fitted["estimates"]) == [
            "p_hat", "norm_hat_s", "norm_hat_bar", "dir_hat", "mu_hat",
            "beta_prime_hat", "mu_prime_hat", "gate_18d", "gate_12d",
        ]

    def test_sweep_thread_invariance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n_grid": [300], "d_grid": [2], "M_grid": [2], "trials": 3, "seed": 4}
            )
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(
            ["sweep", "--config", str(cfg), "--threads", "8", "--out", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lower_bound_subcommand(self, tmp_path):
        out = tmp_path / "lb.csv"
        assert main(
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "1000,2000",
             "--seed", "1", "--trials", "3", "--out", str(out)]
        ) == 0
        assert out.exists()

    def test_diagnose_subcommand(self, tmp_path):
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "suite,name,value,reference,ok"
        assert len(lines) > 3

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(
            ["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]
        ) == 2
        assert main(
            ["generate", "--params", str(tmp_path / "missing.json"), "--n", "10",
             "--out", str(tmp_path / "y.csv")]
        ) == 2
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps(
                {"n_grid": [300], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 4}
            )
        )
        assert main(["sweep", "--config", str(good), "--out", ""]) == 2
        assert main(["sweep", "--config", str(good)]) == 2  # neither --out nor 'out'
        latin1 = tmp_path / "latin1.bin"
        latin1.write_bytes(b'{"d": "\xe9"}\n')
        for argv in (
            ["generate", "--params", str(latin1), "--n", "10"],
            ["sweep", "--config", str(latin1)],
            ["fit", "--data", str(latin1), "--d", "1", "--M", "1"],
        ):
            assert main(argv + ["--out", str(tmp_path / "z")]) == 2

    def test_fit_zero_groups_exit_code(self, tmp_path, capsys):
        # rejected for its M, not for the labels of the file it then read
        data = tmp_path / "data.csv"
        data.write_text("x_1,s,y\n1,1,3\n")
        argv = ["fit", "--data", str(data), "--d", "1", "--M", "0"]
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        assert "M must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            "1,2,1,3\n1,2,1\n",     # short row
            "1,2,1,3\n1,abc,1,3\n",  # non-numeric cell
            "1,nan,1,3\n1,2,2,inf\n",  # non-finite values
            "1,2,0,3\n",             # group label outside 1..M
            "",                      # no data rows
        ],
        ids=["short_row", "non_numeric", "non_finite", "bad_label", "no_rows"],
    )
    def test_malformed_csv_exit_code(self, tmp_path, rows):
        data = tmp_path / "bad.csv"
        data.write_text("x_1,x_2,s,y\n" + rows)
        assert main(
            ["fit", "--data", str(data), "--d", "2", "--M", "2",
             "--seed", "0", "--out", str(tmp_path / "r.json")]
        ) == 2

    def test_malformed_json_exit_code(self, tmp_path, params_file):
        obj = json.loads(params_file.read_text())
        nan_params = tmp_path / "nan.json"
        nan_params.write_text(json.dumps({**obj, "sigma_x": float("nan")}))
        typo_params = tmp_path / "typo.json"
        typo_params.write_text(json.dumps({**obj, "beta": "abc"}))
        huge_d = tmp_path / "huge_d.json"
        no_d = {k: v for k, v in obj.items() if k != "d"}
        huge_d.write_text('{"d": 1e400, ' + json.dumps(no_d)[1:])
        bad_files = [nan_params, typo_params, huge_d]
        for k, field in enumerate(
            [{"d": 3.7}, {"M": 2.0}, {"M": True}, {"B": "1.5"}, {"sigma_x": "1"},
             {"extra": 1}, {"beta": None}, {"beta": [[1, None, 0], [0, 1, 0]]},
             {"beta": [[1, 0, 0], [0, 1]]},
             {"beta": [[True, False, True], [False, True, False]]}]
        ):
            path = tmp_path / f"bad{k}.json"
            path.write_text(json.dumps({**obj, **field}))
            bad_files.append(path)
        for bad in bad_files:
            assert main(
                ["generate", "--params", str(bad), "--n", "10",
                 "--out", str(tmp_path / "d.csv")]
            ) == 2
        assert not (tmp_path / "d.csv").exists()
        reg = tmp_path / "reg.json"
        for text in (
            '{"w": [[1.0]], "b": [0.0]}', "[1, 2]", '{"w": "abc"}',
            '{"w": [[NaN, 0, 0], [0, 0, 0]], "b": [0, 0]}',
        ):
            reg.write_text(text)
            assert main(
                ["evaluate", "--regressor", str(reg), "--params", str(params_file),
                 "--out", str(tmp_path / "m.json")]
            ) == 2
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--params", "{params}", "--n", "10", "--seed", "-1"],
            ["fit", "--data", "{data}", "--d", "3", "--M", "2", "--seed", "-1"],
            ["diagnose", "--seed", "-1"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "1000", "--seed", "-1"],
            ["generate", "--params", "{params}", "--n", "0"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "0"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "a,b"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "1", "--trials", "2"],
            ["lower-bound", "--d", "2", "--M", "4", "--n-grid", "1000"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "1000", "--B", "-1"],
            ["sweep", "--config", "{config}", "--threads", "0"],
            ["sweep", "--config", "{config}", "--threads", "-3"],
            ["lower-bound", "--d", "9", "--M", "0", "--n-grid", "100"],
            ["lower-bound", "--d", "9", "--M", "-1", "--n-grid", "100"],
            ["lower-bound", "--d", "1", "--M", "4", "--n-grid", "100"],
            ["lower-bound", "--d", "0", "--M", "-20", "--n-grid", "100"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "100", "--B", "0"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "100", "--B", "nan"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "100", "--B", "inf"],
            ["fit", "--data", "{data}", "--d", "4", "--M", "2"],
            ["evaluate", "--regressor", "{regressor}", "--params", "{params}"],
        ],
        ids=[
            "generate_seed", "fit_seed", "diagnose_seed", "lower_bound_seed",
            "generate_n0", "n_grid_0", "n_grid_not_ints", "n_grid_zero_group_count",
            "lower_bound_small_dM", "lower_bound_B",
            "threads_0", "threads_negative",
            "lower_bound_M0", "lower_bound_M_negative", "lower_bound_d1",
            "lower_bound_d0_M_negative", "lower_bound_B0", "lower_bound_B_nan",
            "lower_bound_B_inf", "fit_d_mismatch", "evaluate_regressor_shape",
        ],
    )
    @pytest.mark.filterwarnings("error")  # no warning may precede the error line
    def test_flag_fault_exit_code(self, tmp_path, params_file, capsys, argv):
        data = tmp_path / "data.csv"
        assert main(
            ["generate", "--params", str(params_file), "--n", "200", "--out", str(data)]
        ) == 0
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"n_grid": [300], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 4}
            )
        )
        regressor = tmp_path / "reg.json"  # (M, d) = (1, 2); the params need (2, 3)
        regressor.write_text('{"w": [[1.0, 0.0]], "b": [0.0]}')
        argv = [
            arg.format(params=params_file, data=data, config=config, regressor=regressor)
            for arg in argv
        ]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    def test_repeated_calls_share_one_parser(self, tmp_path, params_file, capsys):
        # the parser is built on the first call; later calls, whatever their
        # subcommand, see the same help text and exit codes
        def exit_of(argv):
            with pytest.raises(SystemExit) as info:
                main(argv)
            return info.value.code, capsys.readouterr()

        helps = [["--help"], ["sweep", "--help"], ["lower-bound", "--help"], ["fit"], ["bogus"]]
        first = [exit_of(argv) for argv in helps]
        assert [code for code, _ in first] == [0, 0, 0, 2, 2]
        assert first[0][1].out == cli.build_parser.__wrapped__().format_help()
        bad_sweep = tmp_path / "b.json"
        bad_sweep.write_text(json.dumps(
            {"n_grid": [300], "d_grid": [2], "M_grid": [3], "trials": 1, "seed": 4, "B": 0.5}
        ))
        calls = [
            (["sweep", "--config", str(bad_sweep), "--out", str(tmp_path / "s.csv")], 2),
            (["generate", "--params", str(params_file), "--n", "50",
              "--out", str(tmp_path / "d.csv")], 0),
            (["fit", "--data", str(tmp_path / "d.csv"), "--d", "3", "--M", "2",
              "--out", str(tmp_path / "r.json")], 0),
            (["lower-bound", "--d", "9", "--M", "0", "--n-grid", "100",
              "--out", str(tmp_path / "lb.csv")], 2),
        ]
        for _ in range(2):
            assert [main(argv) for argv, _ in calls] == [code for _, code in calls]
            capsys.readouterr()
            assert [exit_of(argv) for argv in helps] == first
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_parses_in_many_threads(self):
        # more threads than cores, switching often: each parse must see only its own argv
        argvs = [
            ["generate", "--params", f"p{k}.json", "--n", str(100 + k), "--out", f"d{k}.csv"]
            if k % 2 else
            ["lower-bound", "--d", str(k), "--M", "4", "--n-grid", f"{k},2000", "--out", "x"]
            for k in range(400)
        ]
        fresh = cli.build_parser.__wrapped__()
        expect = [vars(fresh.parse_args(argv)) for argv in argvs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(cli.build_parser().parse_args, argv) for argv in argvs]
                parsed = [vars(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert parsed == expect

    def test_invalid_params_share_one_message(self, tmp_path, params_file, capsys):
        obj = {**json.loads(params_file.read_text()), "B": 0.5}
        params = tmp_path / "bad_B.json"
        params.write_text(json.dumps(obj))
        invalid = ModelParams.from_json(json.dumps(obj))
        messages = []
        for draw in (sample_dataset, sample_cell_stats):
            with pytest.raises(ParameterError) as exc:
                draw(invalid, 100, 0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("invalid model parameters: max-norm violated")
        assert main(
            ["generate", "--params", str(params), "--n", "100", "--out", str(tmp_path / "d.csv")]
        ) == 2
        assert capsys.readouterr().err == f"error: {messages[0]}\n"

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning may precede it
    def test_overflowing_draw_is_one_error_line(self, tmp_path, params_file, capsys):
        params = tmp_path / "huge_sigma_x.json"
        params.write_text(json.dumps({**json.loads(params_file.read_text()), "sigma_x": 1e308}))
        assert main(
            ["generate", "--params", str(params), "--n", "100", "--out", str(tmp_path / "d.csv")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["B", "sigma_x"])
    def test_huge_scale_sweep_succeeds(self, tmp_path, capsys, field):
        # the Kolmogorov crossing quadratic, formed in raw units, overflowed here
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n_grid": [2000], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 4,
             field: 1e150}
        ))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    @pytest.mark.parametrize(
        "extra", [{"B": 1.0001, "M_grid": [6]}, {"B": 1e200}, {"B": 1.0, "M_grid": [2, 6]}]
    )
    def test_extreme_B_sweep_succeeds(self, tmp_path, capsys, extra):
        # B = 1.0001 spent every norm draw, B = 1e200 overflowed the diversity
        # factor, and B = 1 with M >= 2 was rejected; squared errors past the
        # float range read inf
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n_grid": [300], "d_grid": [2], "M_grid": [2], "trials": 2, "seed": 4, **extra}
        ))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = out.read_text().splitlines()[1:]
        columns = header.split(",")
        assert len(rows) == 2 * len(extra.get("M_grid", [2]))
        for row in rows:
            values = dict(zip(columns, row.split(",")))
            assert np.isfinite(float(values["w2_unfairness"]))
            assert float(values["excess_risk"]) > 0.0

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    def test_evaluate_risk_past_float_range_is_inf(self, tmp_path, params_file, capsys):
        # sigma_x ** 2 on a float above ~1.3e154 raised OverflowError, a traceback
        params = tmp_path / "huge_sigma_x.json"
        params.write_text(json.dumps({**json.loads(params_file.read_text()), "sigma_x": 1e200}))
        regressor = tmp_path / "reg.json"
        regressor.write_text('{"w": [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]], "b": [0.0, 0.0]}')
        out = tmp_path / "metrics.json"
        assert main(
            ["evaluate", "--regressor", str(regressor), "--params", str(params),
             "--out", str(out)]
        ) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["excess_risk"] == np.inf

    def test_huge_B_does_not_overflow(self, tmp_path, params_file, capsys):
        # B ** 2 on a float above ~1.3e154 raised OverflowError, a traceback
        params = tmp_path / "huge_B.json"
        params.write_text(json.dumps({**json.loads(params_file.read_text()), "B": 1e308}))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n_grid": [300], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 4, "B": 1e308}
        ))
        for argv in (
            ["generate", "--params", str(params), "--n", "100"],
            ["sweep", "--config", str(config)],
        ):
            assert main(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, code",
        [
            (ConfigError, 2), (ParameterError, 2), (DimensionError, 2),
            (SingularMatrixError, 3), (DegenerateDirectionError, 3),
            (FairRegressionError, 3), (FloatingPointError, 3),
        ],
    )
    def test_exit_code_follows_error_class(self, tmp_path, monkeypatch, capsys, exc, code):
        def raise_it(seed):
            raise exc("injected")

        monkeypatch.setattr(cli, "_diagnose_rows", raise_it)
        assert main(["diagnose", "--out", str(tmp_path / "diag.csv")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "injected" in err

    def test_allocation_failure_exit_code(self, tmp_path, params_file, monkeypatch, capsys):
        def too_large(params, n, seed):
            raise MemoryError(f"Unable to allocate an array with {n} rows")

        monkeypatch.setattr(cli, "sample_dataset", too_large)
        assert main(
            ["generate", "--params", str(params_file), "--n", "1000000000000000",
             "--out", str(tmp_path / "d.csv")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lower_bound_single_trial_exit_code(self, tmp_path):
        assert main(
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "1000",
             "--trials", "1", "--out", str(tmp_path / "lb.csv")]
        ) == 2

    def test_numerical_error_exit_code(self, tmp_path, params_file):
        # a dataset too small for OLS but past the gates cannot exist, so force
        # a singular fit by duplicating one row beyond the gate threshold
        data = tmp_path / "tiny.csv"
        n = 80  # > 18d = 54 per group not guaranteed; craft directly
        header = "x_1,x_2,x_3,s,y\n"
        row = "1,1,1,1,3\n"
        data.write_text(header + row * n)
        code = main(
            ["fit", "--data", str(data), "--d", "3", "--M", "1",
             "--seed", "0", "--out", str(tmp_path / "r.json")]
        )
        assert code == 3


# What a hand-edited input file gets wrong, as JSON tokens (also written
# verbatim into CSV cells): strings, bools, null, overflow, NaN, negative or
# non-integral numbers, nested lists.
FUZZ_TOKENS = st.one_of(
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(["true", "false", "null", "1e400", "NaN", "[[1, 2], [3]]", "[]"]),
    st.integers(-50, -1).map(str),
    st.floats(-50, 50).filter(lambda v: v != round(v)).map(repr),
)
OP = st.sampled_from(["replace", "add", "drop"])


def _fuzz_json(obj: dict, data) -> str:
    """obj as JSON with one field or nested cell replaced, a field added, or one dropped."""
    obj = copy.deepcopy(obj)
    key = data.draw(st.sampled_from(sorted(obj)))
    op = data.draw(OP)
    if op == "drop":
        del obj[key]
        return json.dumps(obj)
    if op == "add":
        obj["unknown_field"] = "@FUZZ@"
    else:
        parent, index = obj, key
        while isinstance(parent[index], list) and parent[index] and data.draw(st.booleans()):
            parent, index = parent[index], data.draw(st.integers(0, len(parent[index]) - 1))
        parent[index] = "@FUZZ@"
    return json.dumps(obj).replace('"@FUZZ@"', data.draw(FUZZ_TOKENS))


def _fuzz_csv(text: str, data) -> str:
    """A CSV with one header field or cell replaced, a column added, or one dropped."""
    grid = [line.split(",") for line in text.splitlines()]
    row = data.draw(st.integers(0, len(grid) - 1))
    col = data.draw(st.integers(0, len(grid[0]) - 1))
    op = data.draw(OP)
    if op == "replace":
        grid[row][col] = data.draw(FUZZ_TOKENS)
    elif op == "add":
        token = data.draw(FUZZ_TOKENS)
        grid = [grid[0] + ["extra"]] + [cells + [token] for cells in grid[1:]]
    else:
        grid = [cells[:col] + cells[col + 1:] for cells in grid]
    return "\n".join(",".join(cells) for cells in grid) + "\n"


class TestCliFuzz:
    """Malformed input files reach the CLI: each run exits 0, 2 or 3 and raises nothing.

    Accepted inputs stay tiny (n <= 200, d = M = 2, one trial) so a run is fast.
    """

    PARAMS = random_valid_params(2, 2, 1.5, 1.0, 1.0, 1.0, np.random.default_rng(0))
    CONFIG = {
        "n_grid": [200], "d_grid": [2], "M_grid": [2], "trials": 1, "seed": 3,
        "B": 1.5, "U": 1.0, "sigma_x": 1.0, "sigma_xi": 1.0, "delta": 0.1,
        "out": "unused.csv",  # --out overrides it, so runs write only to a temp dir
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "{config}"],
            ["lower-bound", "--d", "9", "--M", "4", "--n-grid", "4000000000", "--trials", "2",
             "--out", "{out}"],
        ],
        ids=["sweep", "lower_bound"],
    )
    def test_a_group_of_a_billion_rows_exits_2(self, tmp_path, argv):
        # numpy draws hypergeometrics from fewer than 10^9 rows
        config = tmp_path / "big.json"
        config.write_text(json.dumps(
            {"n_grid": [2_000_000_000], "d_grid": [2], "M_grid": [1], "trials": 1, "seed": 4,
             "out": str(tmp_path / "sweep.csv")}
        ))
        argv = [arg.format(config=config, out=tmp_path / "lb.csv") for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert "too large to split" in err.getvalue()

    @pytest.mark.parametrize("command", ["generate", "sweep", "fit"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_in_contract(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "input", str(Path(tmp) / "out")
            if command == "generate":
                src.write_text(_fuzz_json(json.loads(self.PARAMS.to_json()), data))
                argv = ["generate", "--params", str(src), "--n", "50", "--out", out]
            elif command == "sweep":
                src.write_text(_fuzz_json(self.CONFIG, data))
                argv = ["sweep", "--config", str(src), "--out", out]
            else:
                sample_dataset(self.PARAMS, 120, seed=1).to_csv(src)
                src.write_text(_fuzz_csv(src.read_text(), data))
                argv = ["fit", "--data", str(src), "--d", "2", "--M", "2", "--out", out]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3)
