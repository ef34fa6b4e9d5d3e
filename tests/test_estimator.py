"""Tests for sample splitting, OLS, and the assembled plugin estimator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import make_params
from fairlinreg import (
    CellStats,
    Dataset,
    DimensionError,
    ParameterError,
    SingularMatrixError,
    analytic_excess_risk,
    build_fdp,
    evaluate,
    fit,
    make_split,
    ols,
    random_valid_params,
    sample_cell_stats,
    sample_dataset,
)
from fairlinreg.estimator import (
    HYPERGEOM_MAX,
    MAX_GRAM_CONDITION,
    _cell_table,
    _half_split,
    _sample_cells,
    _solve_normal_equations,
    _well_conditioned,
)
from fairlinreg.model import _ModelStack


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

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        data = self._single_group_data(100)
        with pytest.raises(ParameterError, match="seed"):
            make_split(data, seed)
        with pytest.raises(ParameterError, match="seed"):
            fit(data, 2, 1, seed)


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

    @pytest.mark.parametrize("factor, singular", [(1.01, True), (0.99, False)])
    def test_condition_gate(self, factor, singular):
        # Gram = diag(1, 1 / c) has condition number c
        c = factor * MAX_GRAM_CONDITION
        x = np.diag([1.0, 1.0 / np.sqrt(c)])
        if singular:
            with pytest.raises(SingularMatrixError, match="condition estimate"):
                ols(x, np.ones(2))
        else:
            assert np.all(np.isfinite(ols(x, np.ones(2))))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lstsq_when_ill_conditioned(self, seed):
        # Gram condition 1e8: the normal equations lose about eps * 1e8 ~ 2e-8
        rng = np.random.default_rng(seed)
        m, d = 200, 4
        u, _ = np.linalg.qr(rng.standard_normal((m, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x = (u * np.geomspace(1.0, 1e-4, d)) @ v.T
        y = x @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
        ref = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.linalg.norm(ols(x, y) - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_singular_gram_raises(self):
        x = np.ones((10, 2))  # rank 1
        with pytest.raises(SingularMatrixError):
            ols(x, np.ones(10))


SPECTRA = {
    "geometric": lambda d, c: np.geomspace(1.0, 1.0 / c, d),
    "one small": lambda d, c: np.r_[np.ones(d - 1), 1.0 / c][-d:],
    "one large": lambda d, c: np.r_[c, np.ones(d - 1)][:d] / c,
}


def gram_with_conditions(rng, d, conditions, scale=1.0, spectrum="geometric"):
    """A stack of d x d Gram matrices, one per condition c: eigenvalues from scale to scale / c.

    ``spectrum`` spaces the eigenvalues geometrically, or puts all but the
    smallest (or all but the largest) at one end.
    """
    stack = []
    for c in conditions:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        g = (q * (scale * SPECTRA[spectrum](d, c))) @ q.T
        stack.append(np.tril(g) + np.tril(g, -1).T)  # exactly symmetric, as XᵀX is
    return np.array(stack)


def reference_gate(gram):
    """The condition gate with ``eigvalsh`` on every matrix: its message, or None if it passes."""
    eig = np.linalg.eigvalsh(gram)
    lo, hi = eig[..., 0], eig[..., -1]
    condition = np.divide(hi, lo, out=np.full(np.shape(lo), np.inf), where=lo > 0.0)
    if np.any(condition > MAX_GRAM_CONDITION):
        return (
            f"Gram matrix condition estimate {condition.max():.3g} exceeds {MAX_GRAM_CONDITION:.0e}"
        )
    return None


def gate(gram):
    """``_solve_normal_equations``'s gate message, or None if it solves."""
    try:
        _solve_normal_equations(gram, np.ones(gram.shape[:-1]))
    except SingularMatrixError as exc:
        return str(exc)
    return None


class TestGramGate:
    """The Cholesky screen changes no decision and no message of the eigvalsh gate."""

    @staticmethod
    def _no_eigvalsh(monkeypatch):
        def refuse(gram):
            raise AssertionError("eigvalsh ran on a screened stack")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)

    @pytest.mark.parametrize(
        "d, scale", [(1, 1.0), (5, 1.0), (9, 1.0), (12, 1.0), (9, 1e200), (9, 1e-200)]
    )
    @pytest.mark.filterwarnings("error")  # huge or tiny entries overflow nothing
    def test_well_conditioned_stack_skips_eigvalsh(self, monkeypatch, d, scale):
        gram = gram_with_conditions(np.random.default_rng(d), d, [1.0, 10.0, 100.0] * 40, scale)
        want = np.linalg.solve(gram, np.ones(gram.shape[:-1] + (1,)))[..., 0]
        assert reference_gate(gram) is None
        self._no_eigvalsh(monkeypatch)
        assert np.array_equal(_solve_normal_equations(gram, np.ones(gram.shape[:-1])), want)

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.filterwarnings("error")
    def test_one_failing_matrix_gives_the_reference_message(self, scale, spectrum):
        conditions = [3.0] * 20 + [1.01e12] + [3.0] * 5
        gram = gram_with_conditions(np.random.default_rng(7), 12, conditions, scale, spectrum)
        assert _well_conditioned(gram).tolist() == [True] * 20 + [False] + [True] * 5
        assert gate(gram) == reference_gate(gram) is not None
        assert gate(gram[20]) == reference_gate(gram[20])  # one matrix, not a stack

    @pytest.mark.parametrize("low", [0.0, -1.0])
    @pytest.mark.filterwarnings("error")
    def test_singular_or_indefinite_matrix_reads_inf(self, low):
        gram = np.tile(np.eye(4), (6, 1, 1))
        gram[3] = np.diag([2.0, 1.0, low, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        assert not _well_conditioned(gram).any()
        message = "Gram matrix condition estimate inf exceeds 1e+12"
        assert gate(gram) == reference_gate(gram) == message
        assert gate(gram[3]) == message

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_or_zero_matrix_is_never_cleared(self):
        bad_matrices = (
            np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]), np.zeros((3, 3)), -np.eye(3)
        )
        for bad in bad_matrices:
            assert _well_conditioned(np.array([np.eye(3), bad])).tolist() == [True, False]

    @given(
        d=st.integers(1, 12),
        log_conditions=st.lists(st.floats(0.0, 14.0), min_size=1, max_size=8),
        log_scale=st.floats(-150.0, 150.0),
        spectrum=st.sampled_from(sorted(SPECTRA)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_same_decision_and_message_as_eigvalsh(
        self, d, log_conditions, log_scale, spectrum, seed
    ):
        gram = gram_with_conditions(
            np.random.default_rng(seed), d, 10.0 ** np.array(log_conditions), 10.0 ** log_scale,
            spectrum,
        )
        assert gate(gram) == reference_gate(gram)


class TestFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 0.0, rng)
        oracle = build_fdp(params)
        data = sample_dataset(params, 100_000, seed=5)
        regressor, estimates = fit(data, 3, 2, seed=6)
        # without noise every OLS block is exact, so w is the oracle's at p = p_hat
        at_p_hat = build_fdp(dataclasses.replace(params, p=estimates.p_hat))
        assert np.max(np.abs(regressor.w - at_p_hat.fdp.w)) < 1e-9
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

    @pytest.mark.filterwarnings("error")  # rejected before any division warns
    def test_empty_dataset_rejected(self):
        empty = Dataset(x=np.zeros((0, 2)), s=np.zeros(0, dtype=np.int64), y=np.zeros(0), M=2)
        with pytest.raises(ParameterError, match="at least one row"):
            fit(empty, 2, 2, seed=0)

    @staticmethod
    def _huge_second_group(n_huge):
        # group 0: 300 standard rows; group 1: n_huge rows near 1e200, whose
        # XᵀX overflows
        rng = np.random.default_rng(23)
        huge = 1e200 * (1.0 + rng.standard_normal((n_huge, 2)))
        x = np.vstack([rng.standard_normal((300, 2)), huge])
        s = np.repeat([0, 1], [300, n_huge])
        return Dataset(x=x, s=s, y=x @ np.ones(2), M=2)

    @pytest.mark.filterwarnings("error")  # a gated-off block is never formed into a solve
    def test_gated_off_huge_group_fits_without_warning(self):
        regressor, estimates = fit(self._huge_second_group(20), 2, 2, seed=24)  # 20 <= 12d
        assert estimates.gate_18d.tolist() == [True, False]
        assert not estimates.gate_12d[1]
        assert np.all(np.isfinite(regressor.w)) and np.all(np.isfinite(regressor.b))
        assert np.all(regressor.w[1] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_gated_huge_group_raises_singular(self):
        with pytest.raises(SingularMatrixError, match="condition estimate"):
            fit(self._huge_second_group(200), 2, 2, seed=24)  # 200 > 18d

    def test_singular_message_names_the_first_failing_block(self):
        # both groups pass the gates; group 0's second column is 1e-7 times
        # its first (condition ~1e14), group 1's is zero (condition inf)
        rng = np.random.default_rng(29)
        x = rng.standard_normal((400, 2))
        x[:200, 1] *= 1e-7
        x[200:, 1] = 0.0
        data = Dataset(x=x, s=np.repeat([0, 1], 200), y=x[:, 0], M=2)
        rows = make_split(data, seed=30).blocks(0)[0]  # group 0's norm block
        with pytest.raises(SingularMatrixError) as first:
            ols(x[rows], x[rows, 0])
        assert "inf" not in str(first.value)
        with pytest.raises(SingularMatrixError) as exc:
            fit(data, 2, 2, seed=30)
        assert str(exc.value) == str(first.value)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        params = random_valid_params(3, 2, 2.0, 1.0, 1.0, 1.0, rng)
        data = sample_dataset(params, 5000, seed=10)
        r1, e1 = fit(data, 3, 2, seed=11)
        r2, e2 = fit(data, 3, 2, seed=11)
        assert np.array_equal(r1.w, r2.w) and np.array_equal(r1.b, r2.b)
        assert np.array_equal(e1.mu_hat, e2.mu_hat)
        assert np.array_equal(e1.dir_hat, e2.dir_hat)

    def test_row_order_free(self):
        # sample_dataset sorts rows by group; a CSV may hold them in any order
        rng = np.random.default_rng(20)
        params = random_valid_params(3, 3, 2.0, 1.0, 1.0, 1.0, rng)
        data = sample_dataset(params, 3000, seed=21)
        order = rng.permutation(data.n)
        shuffled = Dataset(x=data.x[order], s=data.s[order], y=data.y[order], M=3)
        _, sorted_est = fit(data, 3, 3, seed=22)
        regressor, est = fit(shuffled, 3, 3, seed=22)
        assert np.array_equal(est.p_hat, sorted_est.p_hat)
        assert np.array_equal(est.gate_18d, sorted_est.gate_18d)
        assert np.array_equal(est.gate_12d, sorted_est.gate_12d)
        assert np.all(np.isfinite(regressor.w)) and np.all(np.isfinite(regressor.b))

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


def _cells_from_rows(data, plan):
    """The CellStats of a dataset under a split, each cell gathered explicitly."""
    M, d = data.M, data.d
    size = np.zeros((M, 3, 2), dtype=np.int64)
    total, xty = np.zeros((2, M, 3, 2, d))
    gram = np.zeros((M, 3, 2, d, d))
    for s in range(M):
        halves = np.array_split(plan.two[s], 2)
        for i, third in enumerate(np.array_split(plan.three[s], 3)):
            for j, half in enumerate(halves):
                idx = np.intersect1d(third, half)
                x, y = data.x[idx], data.y[idx]
                size[s, i, j] = len(idx)
                total[s, i, j], gram[s, i, j], xty[s, i, j] = x.sum(axis=0), x.T @ x, x.T @ y
    return CellStats(size=size, total=total, gram=gram, xty=xty)


class TestCellStats:
    def test_cell_table_margins_are_the_block_sizes(self):
        rng = np.random.default_rng(30)
        counts = np.concatenate([np.arange(200), rng.integers(200, 10**6, size=100)])
        table = _cell_table(counts[None], [rng])[0]
        assert table.shape == (len(counts), 3, 2) and np.all(table >= 0)
        for count, cells in zip(counts, table):
            thirds = [len(b) for b in np.array_split(np.arange(count), 3)]
            halves = [len(b) for b in np.array_split(np.arange(count), 2)]
            assert cells.sum(axis=1).tolist() == thirds
            assert cells.sum(axis=0).tolist() == halves

    @pytest.mark.parametrize("sizes", [(61, 29, 7), (55,)], ids=["gates_mixed", "M1"])
    def test_fit_on_the_cells_of_a_split_matches_the_row_route(self, sizes):
        # same blocks, so the same estimates up to the order of summation
        d, M = 2, len(sizes)
        rng = np.random.default_rng(31)
        s = rng.permutation(np.repeat(np.arange(M), sizes))
        x = rng.standard_normal((len(s), d)) + s[:, None]
        y = np.einsum("ij,ij->i", x, rng.standard_normal((M, d))[s]) + rng.standard_normal(len(s))
        data = Dataset(x=x, s=s, y=y, M=M)
        cells = _cells_from_rows(data, make_split(data, seed=32))
        _, from_rows = fit(data, d, M, seed=32)
        _, from_cells = fit(cells, d, M, None)
        for f in dataclasses.fields(from_rows):
            a, b = getattr(from_rows, f.name), getattr(from_cells, f.name)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12), f.name

    def test_same_law_as_the_row_route(self):
        # d = 3: group 3 holds ~12 rows, so it is gated off and most of its
        # cells hold at most d rows and are drawn as rows
        from scipy.stats import ks_2samp

        d, M, n, trials = 3, 3, 600, 2000
        rng = np.random.default_rng(33)
        params = make_params(
            0.6 * rng.standard_normal((M, d)), mu=0.3 * rng.standard_normal((M, d)),
            p=[0.49, 0.49, 0.02], B=3.0,
        )
        oracle = build_fdp(params)
        draws = {"rows": [], "cells": []}
        small_cells = 0
        for t in range(trials):
            data = sample_dataset(params, n, np.random.SeedSequence(34, spawn_key=(t, 0)))
            draws["rows"].append(fit(data, d, M, np.random.SeedSequence(34, spawn_key=(t, 1))))
            cells = sample_cell_stats(params, n, np.random.SeedSequence(35, spawn_key=(t,)))
            small_cells += int(np.sum((cells.size > 0) & (cells.size <= d)))
            draws["cells"].append(fit(cells, d, M, None))
        assert small_cells > trials
        laws = {}
        for route, fits in draws.items():
            gates = np.array([[e.gate_18d, e.gate_12d] for _, e in fits])
            assert np.all(gates[:, :, :2]) and not np.any(gates[:, :, 2])
            laws[route] = (
                [analytic_excess_risk(r, oracle) for r, _ in fits],
                [e.norm_hat_bar for _, e in fits],
            )
        for rows, cells in zip(laws["rows"], laws["cells"]):
            assert ks_2samp(rows, cells).pvalue > 0.01

    def test_batched_draw_matches_one_trial_at_a_time(self):
        # one batch mixing n = 30, whose cells all hold at most d rows and so
        # draw their rows, with n = 4000, keyed as a sweep keys its trials
        d, M, seed = 2, 6, 23
        cells = [(0, 30), (1, 4000), (0, 30), (0, 30), (1, 4000), (1, 4000), (0, 30)]
        keys = [(cell_idx, trial) for trial, (cell_idx, _) in enumerate(cells)]
        ns = [n for _, n in cells]
        params = [
            random_valid_params(
                d, M, 1.5, 1.0, 1.0, 1.0,
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, 0))),
            )
            for key in keys
        ]
        seqs = [np.random.SeedSequence(seed, spawn_key=(*key, 1)) for key in keys]
        batch = _sample_cells(_ModelStack.of(params), ns, [np.random.default_rng(q) for q in seqs])
        for t, (model, n, seq) in enumerate(zip(params, ns, seqs)):
            one = sample_cell_stats(model, n, seq)
            for name, value in zip(("size", "total", "gram", "xty"), batch):
                assert np.array_equal(value[t], getattr(one, name)), (t, name)
            big = one.size > d
            assert big.all() if n == 4000 else ((one.size > 0) & ~big).any()

    def test_seed_determinism(self):
        params = random_valid_params(3, 2, 1.5, 1.0, 1.0, 1.0, np.random.default_rng(36))
        a, b = (sample_cell_stats(params, 5000, seed=37) for _ in range(2))
        for name in ("size", "total", "gram", "xty"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.n == 5000 and (a.M, a.d) == (2, 3)

    @pytest.mark.parametrize("n, seed", [(100, -1), (100, 1.5), (2.5, 0)])
    def test_bad_seed_or_n_rejected(self, n, seed):
        params = random_valid_params(3, 2, 1.5, 1.0, 1.0, 1.0, np.random.default_rng(36))
        with pytest.raises(ParameterError):
            sample_cell_stats(params, n, seed)

    def test_ill_conditioned_block_raises(self):
        # the norm block of group 0 (cells (0, 0) and (0, 1)) has condition 1e13
        d, M = 2, 1
        size = np.full((M, 3, 2), 20)
        gram = np.tile(np.eye(d), (M, 3, 2, 1, 1))
        gram[0, 0] = np.diag([1.0, 1e-13])
        stats = CellStats(size=size, total=np.zeros((M, 3, 2, d)), gram=gram, xty=np.ones((M, 3, 2, d)))
        with pytest.raises(SingularMatrixError, match="condition estimate"):
            fit(stats, d, M, None)

    def test_bad_shapes_and_sizes_rejected(self):
        good = dict(size=np.ones((2, 3, 2)), total=np.zeros((2, 3, 2, 4)),
                    gram=np.zeros((2, 3, 2, 4, 4)), xty=np.zeros((2, 3, 2, 4)))
        for name, bad in (("size", np.ones((2, 2, 3))), ("gram", np.zeros((2, 3, 2, 4))),
                          ("xty", np.zeros((2, 3, 2, 3)))):
            with pytest.raises(DimensionError):
                CellStats(**{**good, name: bad})
        with pytest.raises(ParameterError):
            CellStats(**{**good, "size": -np.ones((2, 3, 2))})
        with pytest.raises(ParameterError):
            CellStats(**{**good, "gram": np.full((2, 3, 2, 4, 4), np.inf)})
        with pytest.raises(DimensionError):
            fit(CellStats(**good), 3, 2, None)


class TestHalfSplit:
    """``_half_split`` against ``multivariate_hypergeometric``: the guard if numpy's sampler changes."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(40)
        for count in [*range(12), 101, 1000, 99_999, *rng.integers(12, 10**6, size=30).tolist()]:
            thirds = [(count + 2 - j) // 3 for j in range(3)]
            uneven = rng.multinomial(count, [0.6, 0.1, 0.3]).tolist()
            for half in {0, count, (count + 1) // 2, count // 2, int(rng.integers(count + 1))}:
                yield thirds, half
                yield uneven, half

    def test_values_and_generator_state_equal_numpy(self):
        cases = list(self._cases())
        # counts 0, 1 and 2, odd and even counts, and the half at 0 and at the whole group
        assert {sum(t) for t, _ in cases} >= {0, 1, 2, 3, 4}
        assert any(h == 0 < sum(t) for t, h in cases) and any(h == sum(t) > 0 for t, h in cases)
        for i, (thirds, half) in enumerate(cases):
            expect, rng = np.random.default_rng(i), np.random.default_rng(i)
            assert _half_split(rng, thirds, half) == expect.multivariate_hypergeometric(
                thirds, half
            ).tolist()
            assert rng.bit_generator.state == expect.bit_generator.state

    @pytest.mark.parametrize("count, ok", [(HYPERGEOM_MAX - 1, True), (HYPERGEOM_MAX, False)])
    def test_group_size_limit(self, count, ok):
        # numpy's multivariate_hypergeometric took groups of fewer than 10^9 rows
        counts = np.array([[3, count]])
        if ok:
            table = _cell_table(counts, [np.random.default_rng(0)])
            assert table[0, 1].sum() == count
        else:
            with pytest.raises(ParameterError, match="too large"):
                _cell_table(counts, [np.random.default_rng(0)])
