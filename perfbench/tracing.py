"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the fairlinreg modules at every module
attribute through which they are reached (``fairlinreg.estimator.fit`` and
``fairlinreg.experiments.fit`` are the same function bound under two names),
so calls made between layers are seen as well as calls from the benchmark.
Each call opens a span with its parent; when the span closes its duration
and self time (duration minus the time its child spans cover) are folded into
per-name totals, so memory stays bounded on jobs with ~10^5 calls.  Counters
read from arguments and results are kept beside the spans.  Nothing in the
package changes on disk and every patch is undone when ``installed`` exits.

A target that a later version of the package no longer has is recorded as
absent; the metrics that depend on it read 0 and are listed as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict


def _arg(bound, name):
    return bound.arguments[name]


def _sample_bytes(bound, result, counts):
    params, n = _arg(bound, "params"), int(_arg(bound, "n"))
    counts["model.sample_dataset.bytes_computed"] += n * (params.d + 2) * 8


def _to_csv_rows(bound, result, counts):
    counts["model.csv.rows"] += _arg(bound, "self").n


def _from_csv_rows(bound, result, counts):
    counts["model.csv.rows"] += result.n


def _fit_gates(bound, result, counts):
    estimates = result[1]
    counts["estimator.groups"] += estimates.gate_18d.size
    counts["estimator.gate18_off"] += int((~estimates.gate_18d).sum())
    counts["estimator.gate12_off"] += int((~estimates.gate_12d).sum())


def _ols_rows(bound, result, counts):
    counts["estimator.ols.rows"] += len(_arg(bound, "x_rows"))


def _gv_counts(bound, result, counts):
    counts["lower_bound.gv_code.candidates"] += int(_arg(bound, "budget"))
    counts["lower_bound.gv_code.accepted"] += result.size


def _eps_clamps(bound, result, counts):
    counts["lower_bound.hard_instance_eps.clamps"] += int((result >= 1.0).sum())


def _undersampled(bound, result, counts):
    counts["experiments.undersampled"] += int(bool(result))


def _nonzero_exit(bound, result, counts):
    counts["cli.nonzero_exits"] += int(result != 0)


# (span name, module under fairlinreg, attribute path, counter hook)
TARGETS = [
    ("model.sample_dataset", "model", "sample_dataset", _sample_bytes),
    ("model.to_csv", "model", "Dataset.to_csv", _to_csv_rows),
    ("model.from_csv", "model", "Dataset.from_csv", _from_csv_rows),
    ("estimator.fit", "estimator", "fit", _fit_gates),
    ("estimator.make_split", "estimator", "make_split", None),
    ("estimator.ols", "estimator", "ols", _ols_rows),
    ("oracle.build_fdp", "oracle", "build_fdp", None),
    ("oracle.analytic_excess_risk", "oracle", "analytic_excess_risk", None),
    ("metrics.unfairness", "metrics", "unfairness", None),
    ("metrics.kolmogorov_gaussian", "metrics", "kolmogorov_gaussian", None),
    ("metrics.w2_empirical", "metrics", "w2_empirical", None),
    ("eigdiag.min_eig_tail_check", "eigdiag", "min_eig_tail_check", None),
    ("eigdiag.gram_eigs", "eigdiag", "gram_eigs", None),
    ("lower_bound.gv_code", "lower_bound", "gv_code", _gv_counts),
    ("lower_bound.block_hamming", "lower_bound", "block_hamming", None),
    ("lower_bound.packed_pair_kl", "lower_bound", "packed_pair_kl", None),
    ("lower_bound.packed_pair_separation", "lower_bound", "packed_pair_separation", None),
    ("lower_bound.hard_instance_eps", "lower_bound", "hard_instance_eps", _eps_clamps),
    ("experiments.random_valid_params", "experiments", "random_valid_params", None),
    ("experiments.component_errors", "experiments", "component_errors", None),
    ("experiments.parity_gap_margin", "experiments", "parity_gap_margin", None),
    ("experiments.undersampled", "experiments", "undersampled", _undersampled),
    ("experiments.trial", "experiments", "_run_trial", None),
    ("experiments.to_csv_text", "experiments", "SweepResult.to_csv_text", None),
    ("cli.main", "cli", "main", _nonzero_exit),
    ("cli.generate", "cli", "_cmd_generate", None),
    ("cli.fit", "cli", "_cmd_fit", None),
    ("cli.evaluate", "cli", "_cmd_evaluate", None),
    ("cli.diagnose", "cli", "_cmd_diagnose", None),
]

# Counter -> the span whose hook feeds it, so a missing target marks it absent.
COUNTER_SOURCE = {
    "model.sample_dataset.bytes_computed": "model.sample_dataset",
    "model.csv.rows": "model.to_csv",
    "estimator.groups": "estimator.fit",
    "estimator.gate18_off": "estimator.fit",
    "estimator.gate12_off": "estimator.fit",
    "estimator.ols.rows": "estimator.ols",
    "lower_bound.gv_code.candidates": "lower_bound.gv_code",
    "lower_bound.gv_code.accepted": "lower_bound.gv_code",
    "lower_bound.hard_instance_eps.clamps": "lower_bound.hard_instance_eps",
    "experiments.undersampled": "experiments.undersampled",
    "cli.nonzero_exits": "cli.main",
}


class Tracer:
    """Span and counter store; ``installed()`` patches the package while active."""

    def __init__(self):
        self._local = threading.local()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.parents = defaultdict(int)  # (parent name, child name) -> calls
        self.counts = defaultdict(float)
        self.absent: set[str] = set()
        self.hook_errors: set[str] = set()

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped so each call records a span named ``name``."""
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.parents[(parent, name)] += 1
            if hook is not None:
                try:
                    hook(sig.bind(*args, **kwargs), result, self.counts)
                except (KeyError, AttributeError, TypeError, IndexError):
                    self.hook_errors.add(name)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Patch every target (and ``extra`` (name, owner, attr) triples) for the block."""
        undo = []
        try:
            for name, module_name, path, hook in TARGETS:
                self._patch_target(name, module_name, path, hook, undo)
            for name, owner, attr in extra:
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch_target(self, name, module_name, path, hook, undo) -> None:
        try:
            module = importlib.import_module(f"fairlinreg.{module_name}")
        except ImportError:
            self.absent.add(name)
            return
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.absent.add(name)
            return
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # A method: patch the class, which every caller shares.
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = self.wrap(name, raw, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fairlinreg" or mod_name.startswith("fairlinreg.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, alias, raw))
                    setattr(mod, alias, wrapped)

    def is_absent(self, span: str) -> bool:
        return span in self.absent or span in self.hook_errors


def _time(*spans):
    return ("time", spans)


# Per-layer metric -> (unit, how it is computed from the tracer).
# "time"/"self"/"calls"/"count" values are per traced job; "ratio" is num/den.
PER_LAYER = {
    "model.sample_dataset.s": ("s", _time("model.sample_dataset")),
    "model.sample_dataset.calls": ("count", ("calls", "model.sample_dataset")),
    "model.sample_dataset.bytes_computed": ("bytes", ("count", "model.sample_dataset.bytes_computed")),
    "model.to_csv.s": ("s", _time("model.to_csv")),
    "model.from_csv.s": ("s", _time("model.from_csv")),
    "model.csv.rows": ("count", ("count", "model.csv.rows")),
    "estimator.fit.s": ("s", _time("estimator.fit")),
    "estimator.fit.self_s": ("s", ("self", "estimator.fit")),
    "estimator.make_split.s": ("s", _time("estimator.make_split")),
    "estimator.ols.s": ("s", _time("estimator.ols")),
    "estimator.ols.calls": ("count", ("calls", "estimator.ols")),
    "estimator.ols.rows": ("count", ("count", "estimator.ols.rows")),
    "estimator.gate18_off_ratio": ("ratio", ("ratio", "estimator.gate18_off", "estimator.groups")),
    "estimator.gate12_off_ratio": ("ratio", ("ratio", "estimator.gate12_off", "estimator.groups")),
    "oracle.build_fdp.s": ("s", _time("oracle.build_fdp")),
    "oracle.analytic_excess_risk.s": ("s", _time("oracle.analytic_excess_risk")),
    "metrics.unfairness.s": ("s", _time("metrics.unfairness")),
    "metrics.kolmogorov_gaussian.calls": ("count", ("calls", "metrics.kolmogorov_gaussian")),
    "metrics.kolmogorov_gaussian.s": ("s", _time("metrics.kolmogorov_gaussian")),
    "metrics.w2_empirical.s": ("s", _time("metrics.w2_empirical")),
    "eigdiag.min_eig_tail_check.s": ("s", _time("eigdiag.min_eig_tail_check")),
    "eigdiag.gram_eigs.calls": ("count", ("calls", "eigdiag.gram_eigs")),
    "lower_bound.gv_code.s": ("s", _time("lower_bound.gv_code")),
    "lower_bound.gv_code.candidates": ("count", ("count", "lower_bound.gv_code.candidates")),
    "lower_bound.gv_code.accept_ratio": ("ratio", ("ratio", "lower_bound.gv_code.accepted", "lower_bound.gv_code.candidates")),
    "lower_bound.block_hamming.calls": ("count", ("calls", "lower_bound.block_hamming")),
    "lower_bound.pair_reduction.s": ("s", _time("lower_bound.packed_pair_kl", "lower_bound.packed_pair_separation")),
    "lower_bound.packed_pair_kl.calls": ("count", ("calls", "lower_bound.packed_pair_kl")),
    "lower_bound.hard_instance_eps.clamps": ("count", ("count", "lower_bound.hard_instance_eps.clamps")),
    "experiments.random_valid_params.s": ("s", _time("experiments.random_valid_params")),
    "experiments.component_errors.s": ("s", _time("experiments.component_errors")),
    "experiments.parity_gap_margin.s": ("s", _time("experiments.parity_gap_margin")),
    "experiments.trial.s": ("s", _time("experiments.trial")),
    "experiments.trial.self_s": ("s", ("self", "experiments.trial")),
    "experiments.to_csv_text.s": ("s", _time("experiments.to_csv_text")),
    "experiments.select_column.s": ("s", _time("experiments.select_column")),
    "experiments.undersampled_ratio": ("ratio", ("ratio", "experiments.undersampled", ("calls", "experiments.undersampled"))),
    "cli.generate.s": ("s", _time("cli.generate")),
    "cli.fit.s": ("s", _time("cli.fit")),
    "cli.evaluate.s": ("s", _time("cli.evaluate")),
    "cli.diagnose.s": ("s", _time("cli.diagnose")),
    "cli.nonzero_exits": ("count", ("count", "cli.nonzero_exits")),
}


def _spans_of(rule) -> list[str]:
    kind, *refs = rule
    if kind == "time":
        return list(refs[0])
    out = []
    for ref in refs:
        if isinstance(ref, tuple):
            out.append(ref[1])
        elif kind in ("calls", "self"):
            out.append(ref)
        else:
            out.append(COUNTER_SOURCE[ref])
    return out


def layer_metrics(tracer: Tracer, jobs: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from a tracer that recorded ``jobs`` traced jobs.

    Returns (values, absent metric names).  Times, calls and counts are per
    job; ratios are taken over all traced jobs.
    """
    def read(ref):
        if isinstance(ref, tuple):  # ("calls", span)
            return tracer.calls[ref[1]]
        return tracer.counts[ref]

    values, absent = {}, []
    for metric, (_, rule) in PER_LAYER.items():
        if any(tracer.is_absent(span) for span in _spans_of(rule)):
            values[metric] = 0.0
            absent.append(metric)
            continue
        kind = rule[0]
        if kind == "time":
            value = sum(tracer.total_s[span] for span in rule[1]) / jobs
        elif kind == "self":
            value = tracer.self_s[rule[1]] / jobs
        elif kind == "calls":
            value = tracer.calls[rule[1]] / jobs
        elif kind == "count":
            value = tracer.counts[rule[1]] / jobs
        else:
            den = read(rule[2])
            value = read(rule[1]) / den if den else 0.0
        values[metric] = float(value)
    return values, absent
