"""Model-file serialization and CSV artifact export."""

import dataclasses

import numpy as np
import pytest

from narxident import ParameterError, TimeSeriesData, load_model, preset_models, save_model
from narxident.modelio import (
    aic_to_csv,
    model_from_text,
    model_to_text,
    ranking_to_csv,
    report_to_text,
    residuals_to_csv,
)
from narxident.estimation import EstimationReport
from narxident.selection import AicCurve


@pytest.mark.parametrize("name", [
    "heating_narx", "pzt_narx", "valve_constrained_narx",
    "valve_compensation_narx", "valve_inverse_narx",
])
def test_model_round_trip(name, tmp_path):
    model = preset_models()[name].model
    path = tmp_path / f"{name}.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.process_terms == model.process_terms
    assert back.theta == model.theta
    assert back.meta == model.meta
    assert back.ts == model.ts
    assert back.direction == model.direction


def test_model_text_is_byte_stable():
    model = preset_models()["heating_narx"].model
    assert model_to_text(model) == model_to_text(model)


def test_model_text_keeps_full_precision():
    model = preset_models()["heating_narx"].model
    back = model_from_text(model_to_text(model))
    for a, b in zip(model.theta, back.theta):
        assert a == b  # exact, not approximate


def test_model_from_text_rejects_malformed():
    with pytest.raises(ParameterError):
        model_from_text("not a model")
    with pytest.raises(ParameterError):
        model_from_text("# narxident model v1\nts = 1.0\n[process]\n")
    # a second [process] line used to drop every term read before it, and a
    # repeated header key to keep its last value
    text = model_to_text(preset_models()["heating_narx"].model)
    with pytest.raises(ParameterError, match=r"second \[process\] line"):
        model_from_text(text + "[process]\ny(k-1)\t0.5\n")
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("ts ="))
    with pytest.raises(ParameterError, match="repeats header key 'ts'"):
        model_from_text("\n".join(lines[:at + 1] + ["ts = 2.0"] + lines[at + 1:]))


@pytest.mark.parametrize("field", ["theta", "degree"])
def test_model_from_text_rejects_non_numeric_values(field):
    lines = model_to_text(preset_models()["heating_narx"].model).splitlines()
    if field == "theta":
        i = lines.index("[process]") + 1
        lines[i] = lines[i].split("\t")[0] + "\tabc"
    else:
        lines = ["degree = three" if ln.startswith("degree =") else ln for ln in lines]
    with pytest.raises(ParameterError):
        model_from_text("\n".join(lines))


@pytest.mark.parametrize("field, value", [
    ("theta", "nan"), ("theta", "inf"), ("theta", "-inf"),
    ("ts", "nan"), ("ts", "inf"), ("ts", "-1"), ("ts", "0"),
])
def test_model_from_text_rejects_non_finite_theta_and_bad_ts(field, value):
    lines = model_to_text(preset_models()["heating_narx"].model).splitlines()
    if field == "theta":
        i = lines.index("[process]") + 1
        lines[i] = lines[i].split("\t")[0] + "\t" + value
    else:
        lines = [f"ts = {value}" if ln.startswith("ts =") else ln for ln in lines]
    with pytest.raises(ParameterError, match=field):
        model_from_text("\n".join(lines))


@pytest.mark.parametrize("ts", [float("nan"), float("inf"), -1.0, 0.0, True, "a", None])
def test_time_series_rejects_non_finite_or_nonpositive_ts(ts):
    # one rule for records and models; NarxModel used to accept ts=-1.0, and
    # TimeSeriesData ts=True, with ts="a" a TypeError
    with pytest.raises(ParameterError, match="ts"):
        TimeSeriesData([0.0, 1.0], [0.0, 1.0], ts=ts)
    with pytest.raises(ParameterError, match="ts"):
        dataclasses.replace(preset_models()["heating_narx"].model, ts=ts)


def test_ranking_and_aic_csv(tmp_path):
    from narxident import build_regression, frols_rank, generate_candidates
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, 300)
    y = np.r_[0.0, 2 * u[:-1]] + 0.01 * rng.standard_normal(300)
    cs = generate_candidates(1, 1, 1)
    ranking = frols_rank(cs, *build_regression(cs, TimeSeriesData(u, y, ts=1.0)))
    p1 = tmp_path / "err.csv"
    ranking_to_csv(ranking, p1)
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "term,err,cumulative_err"
    assert len(lines) == 1 + len(ranking.ordered_terms)

    curve = AicCurve(j_values=np.array([-10.0, np.nan]), converged=(True, False),
                     iterations=(4, 0))
    p2 = tmp_path / "aic.csv"
    aic_to_csv(curve, p2)
    assert p2.read_text() == ("n_theta,j_aic,converged,iterations\n"
                              "1,-10.0,True,4\n2,nan,False,0\n")


def test_residuals_csv(tmp_path):
    path = tmp_path / "res.csv"
    residuals_to_csv([0.5, -0.25], path)
    assert path.read_text().strip().splitlines() == ["k,residual", "0,0.5", "1,-0.25"]


def test_report_text():
    report = EstimationReport(theta=np.array([1.5]), residuals=np.array([0.0, 0.1]),
                              process_variance=0.0025, iterations=4, converged=True,
                              noise_theta=np.array([0.2]), change_norms=(0.5, 1e-9))
    text = report_to_text(report)
    assert "iterations = 4" in text
    assert "converged = True" in text
    assert "1.5" in text and "0.2" in text
