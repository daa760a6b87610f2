"""Smoke tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Each workload runs at its smallest size (one set-up, one timed trial) and
every correctness check must reject a slightly perturbed output.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
from narxident import (  # noqa: E402
    HEATING_SYSTEM,
    heating_experiment,
    make_validation_data,
    run_identification,
    validate,
)
from narxident.regression import build_regression  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smallest_size_reports_every_metric(workload):
    result = harness.run(workload, seed=0, seconds=1e-9, trace=1, src=ROOT / "src",
                         setup_repeats=1, min_trials=1)
    assert result.attempted == 1 and result.failed == 0
    for item in SPEC["end_to_end"] + SPEC["per_layer"]:
        value, unit, better = result.metrics[item["name"]]
        assert np.isfinite(value) and unit == item["unit"] and better == item["better"]
    ids = {s["id"] for s in result.spans}
    assert all(s["parent"] in ids for s in result.spans if s["parent"] is not None)
    assert all(s["end"] >= s["start"] and s["trial"] == 0 for s in result.spans)
    estimation_calls = result.metrics["estimation.els_core.calls"][0]
    assert (estimation_calls == 0) == (workload == "simulate-validate")


def test_untraced_run_and_tracer_removal():
    from narxident import regression

    before = regression.free_run_simulate
    harness.run("simulate-validate", seed=1, seconds=1e-9, trace=1, src=ROOT / "src",
                setup_repeats=1, min_trials=1)
    assert regression.free_run_simulate is before
    result = harness.run("simulate-validate", seed=1, seconds=1e-9, trace=0,
                         src=ROOT / "src", setup_repeats=1, min_trials=1)
    assert result.spans == [] and "estimation.els_core.calls" not in result.metrics


def test_trial_time_in_gauges(monkeypatch):
    monkeypatch.setattr(harness, "GAUGE_INTERVAL_S", 0.0)  # a gauge run between trials
    result = harness.run("simulate-validate", seed=1, seconds=1e-9, trace=0,
                         src=ROOT / "src", setup_repeats=1, min_trials=2)
    assert all(rec["gauge_s"] > 0 for rec in result.trials)
    expected = sum(rec["wall_s"] / rec["gauge_s"] for rec in result.trials) / 2
    assert result.metrics["trial_time_gauges"][0] == pytest.approx(expected)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "heating-identify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def heating():
    defn = heating_experiment()
    result = run_identification(defn, seed=0)
    val = make_validation_data(defn, seed=0)
    return defn, result, val, validate(result.model, val, "free_run")


def _perturbed(result, **model_changes):
    return dataclasses.replace(result, model=dataclasses.replace(result.model, **model_changes))


def test_selected_prefix_check(heating):
    _, result, _, _ = heating
    checks.selected_prefix(result)
    with pytest.raises(checks.CheckFailed):
        terms = result.model.process_terms
        checks.selected_prefix(_perturbed(result, process_terms=terms[::-1]))


def test_final_estimate_check(heating):
    defn, result, _, _ = heating
    checks.final_estimate(result, defn.selection)
    theta = np.asarray(result.model.theta)
    with pytest.raises(checks.CheckFailed):
        checks.final_estimate(_perturbed(result, theta=theta * (1 + 1e-6)), defn.selection)
    with pytest.raises(checks.CheckFailed):
        checks.final_estimate(_perturbed(result, theta=np.where(theta == theta[0], np.nan, theta)),
                              defn.selection)
    residuals = result.report.residuals.copy()
    residuals[len(residuals) // 2] += 1e-6 * np.max(np.abs(result.data.y))
    with pytest.raises(checks.CheckFailed):
        report = dataclasses.replace(result.report, residuals=residuals)
        checks.final_estimate(dataclasses.replace(result, report=report), defn.selection)


def test_final_estimate_check_without_trusting_els(heating, monkeypatch):
    """With the re-estimation made to agree with whatever was reported,
    the orthogonality and row-0 checks still catch a wrong estimate."""
    defn, result, _, _ = heating
    psi, _ = build_regression(result.model.process_terms, result.data)

    def check(theta, residuals):
        monkeypatch.setattr(checks, "els_core",
                            lambda *a: types.SimpleNamespace(theta=theta, residuals=residuals))
        report = dataclasses.replace(result.report, residuals=residuals)
        checks.final_estimate(dataclasses.replace(_perturbed(result, theta=theta), report=report),
                              defn.selection)

    theta, residuals = np.asarray(result.model.theta), result.report.residuals
    check(theta, residuals)
    with pytest.raises(checks.CheckFailed, match="row-0"):
        check(theta * (1 + 1e-6), residuals)
    # a residual that leans on the first column but keeps row 0 intact
    lean = 1e-6 * np.max(np.abs(result.data.y)) * psi[:, 0] / np.max(np.abs(psi[:, 0]))
    lean[0] = 0.0
    with pytest.raises(checks.CheckFailed, match="orthogonal"):
        check(theta, residuals + lean)


def test_hammerstein_check(heating):
    _, result, _, _ = heating
    checks.hammerstein(HEATING_SYSTEM, result.data.u, result.clean_output)
    y = result.clean_output.copy()
    y[1000] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.hammerstein(HEATING_SYSTEM, result.data.u, y)


def test_free_run_feedback_check(heating):
    _, result, val, out = heating
    checks.free_run_feedback(result.model, val.u, out.prediction)
    y = out.prediction.copy()
    y[len(y) // 2] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.free_run_feedback(result.model, val.u, y)
