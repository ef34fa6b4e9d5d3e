"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs once per trace mode on a seed that was not used while the
benchmark was built, with the shortest run length (one cycle).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 424242
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    """(untraced result, traced result, traced detail) for one workload."""
    out = {}
    for trace in (0, 1):
        proc = _run(request.param, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(result_line), json.loads(detail_line)["detail"])
    return out


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_names_and_units_match_spec(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_checks_pass_on_a_new_seed(runs):
    for trace in (0, 1):
        result, detail = runs[trace]
        assert result["correct"] and result["failed"] == 0, detail["failures"]
        assert result["attempted"] >= 3


def test_end_to_end_metrics_are_positive(runs):
    result, _ = runs[0]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_and_matches_untraced(runs):
    result, detail = runs[1]
    assert detail["absent"] == []
    assert detail["timings_s"]["traced_job"]["n"] >= 1
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_environment_is_recorded(runs):
    env = runs[0][1]["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_version",
                "blas_threads", "sweep_threads", "loadavg_at_start"):
        assert key in env
    assert env["blas_threads"] == 1 and 1 <= env["sweep_threads"] <= env["nproc"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_patches_every_alias_and_restores(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import fairlinreg
        import fairlinreg.estimator
        import fairlinreg.experiments
        import tracing
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
    original = fairlinreg.estimator.ols
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("model.gone", "model", "no_such_function", None),
    ])
    tracer = tracing.Tracer()
    params = fairlinreg.ModelParams(
        d=2, M=2, beta=[[1.0, 0.0], [0.0, 1.0]], mu=[[0.0, 0.0], [0.5, 0.0]],
        p=[0.5, 0.5], sigma_x=1.0, sigma_xi=1.0, B=1.5, U=1.0,
    )
    data = fairlinreg.sample_dataset(params, 1000, 0)
    with tracer.installed():
        fairlinreg.experiments.fit(data, 2, 2, 1)  # the alias another layer calls
        fairlinreg.estimator.fit(data, 2, 2, 1)
    assert fairlinreg.estimator.ols is original
    assert tracer.calls["estimator.fit"] == 2
    assert tracer.calls["estimator.ols"] == 2 * 3 * 2  # 3 OLS fits per group
    assert tracer.parents[("estimator.fit", "estimator.ols")] == 12
    assert 0 < tracer.self_s["estimator.fit"] < tracer.total_s["estimator.fit"]
    assert tracer.is_absent("model.gone")
