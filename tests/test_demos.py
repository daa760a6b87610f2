"""Smoke test: each narrative demo runs end to end."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


#: each demo's ``main`` arguments; the Monte Carlo sweep runs a 2x1 grid
#: instead of its default 4x5
ARGUMENTS = {
    "heating_identification": {},
    "bouc_wen_hysteresis": {},
    "valve_models": {},
    "monte_carlo_sweep": {"ratios": (0.05, 0.1), "trials": 1},
}


def test_every_demo_is_run():
    assert sorted(ARGUMENTS) == sorted(p.stem for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", list(ARGUMENTS))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(**ARGUMENTS[name])
    out = capsys.readouterr().out
    assert out.strip()
    assert "diverged" not in out
