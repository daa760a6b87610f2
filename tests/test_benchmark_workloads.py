"""The benchmark's workloads still run against the package.

``perfbench/harness.py`` calls the experiment API (``heating_experiment``,
``make_validation_data``, ``run_identification`` and the config's
``design``, ``selection`` and ``system``).  Each workload in
``BENCHMARK.json`` is set up, runs one trial and passes its correctness
checks here, so a change to that API fails this suite, not only a
benchmark run.  The checks also run on a least-squares identification,
which no workload makes.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from narxident import SelectionConfig, heating_experiment, run_identification

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the harness imports its siblings by their bare names
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_sets_up_runs_a_trial_and_passes_its_checks(name, monkeypatch):
    for sibling in ("checks", "tracing"):
        _load(sibling, monkeypatch)
    harness = _load("harness", monkeypatch)
    workload = harness.WORKLOADS[name]()
    workload.setup(val_seed=5)
    record, outputs = workload.trial(11)
    assert record.failed is None
    workload.check(outputs)


def test_checks_pass_on_a_least_squares_identification(monkeypatch):
    # the workloads identify with extended least squares; this takes the
    # least-squares branch of the final-estimate check
    checks = _load("checks", monkeypatch)
    config = replace(heating_experiment(), selection=SelectionConfig(n_noise_terms=0))
    assert config.selection.estimator == "ls"
    result = run_identification(config, seed=11)
    checks.selected_prefix(result)
    checks.final_estimate(result, config.selection)
