"""Command-line interface: artifact round trips and error paths."""

import dataclasses
import filecmp
import json

import numpy as np
import pytest

from narxident import (
    default_config,
    heating_experiment,
    load_config,
    preset_models,
    save_model,
    sine_input,
)
from narxident.cli import main


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def test_presets_list_and_show(capsys):
    code, out = run(["presets", "list"], capsys)
    assert code == 0
    assert "heating_narx" in out.out
    code, out = run(["presets", "show", "heating_narx"], capsys)
    assert code == 0
    assert "u(k-2)^2" in out.out


def test_presets_show_unknown_fails(capsys):
    code, out = run(["presets", "show", "nope"], capsys)
    assert code == 1
    assert "unknown preset" in out.err
    code, out = run(["presets", "show"], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and "needs a preset name" in out.err


def test_missing_config_and_experiment_fails(capsys):
    code, out = run(["identify"], capsys)
    assert code == 1
    assert "--config" in out.err


def test_valve_guard(capsys):
    code, out = run(["identify", "--experiment", "valve"], capsys)
    assert code == 1
    assert "experimental data that is not distributed" in out.err


def test_valve_guard_for_config_files(tmp_path, capsys):
    cfg = tmp_path / "valve.json"
    cfg.write_text('{"system": "valve", "candidates": {"degree": 3, "n_y": 2, "n_u": 1, '
                   '"tau_d": 1, "variables": ["y", "u"]}}')
    code, out = run(["identify", "--config", str(cfg)], capsys)
    assert code == 1
    assert "experimental data that is not distributed" in out.err


@pytest.mark.parametrize("section, key, value", [
    ("design", "frequencies", 5),
    ("candidates", "degree", "3"),
])
def test_wrong_type_config_value_is_reported(tmp_path, capsys, section, key, value):
    d = json.loads(HEATING_CONFIG)
    d[section][key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    code, out = run(["identify", "--config", str(cfg)], capsys)
    assert code == 1
    assert f"config field '{section}.{key}' must be" in out.err


HEATING_CONFIG = """\
{
  "system": "heating",
  "design": {
    "frequencies": [
      0.001,
      0.005
    ],
    "segment_lengths": [
      1000,
      1000
    ],
    "operating_points": [
      0.3,
      0.5,
      0.7
    ],
    "amplitudes": [
      0.2,
      0.2,
      0.2
    ],
    "sample_rate": 0.5,
    "filter_order": 5
  },
  "candidates": {
    "degree": 3,
    "n_y": 3,
    "n_u": 3,
    "tau_d": 2,
    "variables": [
      "y",
      "u"
    ]
  },
  "estimator": {
    "zeta": 1e-08,
    "max_iterations": 30,
    "n_noise_terms": 1
  },
  "noise_ratio": 0.05,
  "seed": 0,
  "output_dir": "."
}
"""


def test_init_config_heating_golden_bytes(tmp_path):
    cfg = tmp_path / "heating.json"
    assert run(["init-config", "--experiment", "heating", "--output", str(cfg)]) == 0
    assert cfg.read_text() == HEATING_CONFIG


def test_design_input_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["design-input", "--experiment", "heating", "--seed", "9",
                "--output-dir", str(a)]) == 0
    assert run(["design-input", "--experiment", "heating", "--seed", "9",
                "--output-dir", str(b)]) == 0
    assert filecmp.cmp(a / "input.csv", b / "input.csv", shallow=False)
    lines = (a / "input.csv").read_text().strip().splitlines()
    assert lines[0] == "k,u"
    assert len(lines) == 2001
    assert (a / "design_input.log").exists()


@pytest.mark.parametrize("key, value", [("amplitudes", "[1e400, 0.2, 0.2]"),
                                        ("operating_points", "[0.3, -1e400, 0.7]")])
def test_design_input_rejects_a_non_finite_design(tmp_path, capsys, key, value):
    # JSON reads 1e400 as inf, which used to fill input.csv with inf and nan
    d = json.loads(HEATING_CONFIG)
    d["design"][key] = "OVERFLOW"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d).replace('"OVERFLOW"', value))
    code, out = run(["design-input", "--config", str(cfg), "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and "finite" in out.err
    assert not (tmp_path / "input.csv").exists()


@pytest.mark.parametrize("command", ["design-input", "simulate"])
def test_config_without_a_design_is_reported(tmp_path, capsys, command):
    d = json.loads(HEATING_CONFIG)
    d["design"] = None
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(d))
    code, out = run([command, "--config", str(cfg), "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "config has no input-design section" in out.err
    assert not (tmp_path / "input.csv").exists() and not (tmp_path / "data.csv").exists()


def test_init_config_then_simulate(tmp_path):
    cfg = tmp_path / "exp.json"
    assert run(["init-config", "--experiment", "heating", "--output", str(cfg)]) == 0
    assert run(["simulate", "--config", str(cfg), "--seed", "1",
                "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "data.csv").read_text().strip().splitlines()
    assert lines[0] == "k,u,y,y_clean"
    assert len(lines) == 2001
    for line in lines[1:]:
        _, u, y, _ = line.split(",")
        float(u), float(y)  # raises on a cell that is not a plain number
    # the record reads back as validation data
    save_model(preset_models()["heating_narx"].model, tmp_path / "model.txt")
    assert run(["validate", "--config", str(cfg), "--output-dir", str(tmp_path),
                "--model", str(tmp_path / "model.txt"),
                "--data", str(tmp_path / "data.csv")]) == 0


def test_identify_validate_round_trip(tmp_path, capsys):
    # identify writes a model file that validate can consume
    out = tmp_path / "run"
    assert run(["identify", "--experiment", "heating", "--seed", "1",
                "--output-dir", str(out)]) == 0
    for artifact in ("model.txt", "err_ranking.csv", "aic_curve.csv",
                     "residuals.csv", "report.txt", "identify.log"):
        assert (out / artifact).exists(), artifact
    capsys.readouterr()
    code, captured = run(["validate", "--experiment", "heating", "--seed", "1",
                          "--output-dir", str(out), "--model", str(out / "model.txt")],
                         capsys)
    assert code == 0
    assert "MAPE" in captured.out
    lines = (out / "prediction.csv").read_text().strip().splitlines()
    assert lines[0] == "k,y,y_hat"


@pytest.mark.parametrize("command, log, artifact", [
    ("design-input", "design_input.log", "input.csv"), ("identify", "identify.log", "model.txt")])
def test_log_is_the_resolved_config_and_reruns_the_command(tmp_path, command, log, artifact):
    out, again = tmp_path / "run", tmp_path / "again"
    assert run([command, "--experiment", "heating", "--seed", "5", "--output-dir", str(out)]) == 0
    resolved = dataclasses.replace(default_config("heating"), seed=5, output_dir=str(out))
    assert load_config(out / log) == resolved
    assert run([command, "--config", str(out / log), "--output-dir", str(again)]) == 0
    assert filecmp.cmp(out / artifact, again / artifact, shallow=False)


def test_monte_carlo_csv(tmp_path):
    out = tmp_path / "mc"
    assert run(["monte-carlo", "--experiment", "heating", "--seed", "0",
                "--ratios", "0.1,0.2", "--trials", "1",
                "--output-dir", str(out)]) == 0
    lines = (out / "monte_carlo.csv").read_text().strip().splitlines()
    assert lines[0] == "ratio,mean_mape,std_mape,failures"
    assert len(lines) == 3


def test_monte_carlo_bad_ratio_is_reported(tmp_path, capsys):
    code, out = run(["monte-carlo", "--experiment", "heating", "--ratios", "0,abc",
                     "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and "'abc'" in out.err


@pytest.mark.parametrize("command", ["simulate", "design-input", "monte-carlo"])
def test_negative_seed_is_reported(tmp_path, capsys, command):
    code, out = run([command, "--experiment", "heating", "--seed", "-1",
                     "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and "seed" in out.err


def test_negative_config_seed_is_reported(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    assert run(["init-config", "--experiment", "heating", "--output", str(cfg)]) == 0
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "seed": -1}))
    code, out = run(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.err.startswith("error: ") and "seed" in out.err


def _validate_preset(tmp_path, capsys, *extra, edit=lambda text: text):
    """``validate`` on the heating preset's model file, edited by ``edit``."""
    path = tmp_path / "model.txt"
    save_model(preset_models()["heating_narx"].model, path)
    path.write_text(edit(path.read_text()))
    return run(["validate", "--experiment", "heating", "--output-dir", str(tmp_path),
                "--model", str(path), *extra], capsys)


@pytest.mark.parametrize("flag", ["--config", "--model", "--data"])
def test_missing_file_is_reported(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing")
    if flag == "--config":
        code, out = run(["identify", "--config", missing], capsys)
    elif flag == "--model":
        code, out = run(["validate", "--experiment", "heating", "--output-dir", str(tmp_path),
                         "--model", missing], capsys)
    else:
        code, out = _validate_preset(tmp_path, capsys, "--data", missing)
    assert code == 1
    assert out.err.startswith("error: ") and "No such file" in out.err and missing in out.err


@pytest.mark.parametrize("row", ["1,abc,0.2", "1,0.5"])
def test_validate_reports_a_bad_data_row(tmp_path, capsys, row):
    # a non-numeric cell, and a row too short to have a y cell
    data = tmp_path / "data.csv"
    data.write_text(f"k,u,y\n0,0.1,0.2\n{row}\n")
    code, out = _validate_preset(tmp_path, capsys, "--data", str(data))
    assert code == 1
    assert out.err.startswith("error: ") and f"{data}, line 3" in out.err


def test_validate_reports_a_non_numeric_model_field(tmp_path, capsys):
    code, out = _validate_preset(tmp_path, capsys,
                                 edit=lambda text: text.replace("degree = ", "degree = x"))
    assert code == 1 and out.err.startswith("error: ")


@pytest.mark.parametrize("bound", ["nan", "0", "-1"])
def test_validate_rejects_nan_and_nonpositive_bound(tmp_path, capsys, bound):
    for mode in ("free_run", "one_step"):
        code, out = _validate_preset(tmp_path, capsys, "--bound", bound, "--mode", mode)
        assert code == 1, mode
        assert out.err.startswith("error: ") and "bound" in out.err


@pytest.mark.parametrize("source", ["data", "sine"])
def test_free_run_validate_reports_a_record_with_nothing_to_score(tmp_path, capsys, source):
    # the preset's largest lag is 2, so a free run from a 2-sample record
    # predicts no sample
    if source == "data":
        data = tmp_path / "data.csv"
        data.write_text("k,u,y\n0,0.5,0.2\n1,0.5,0.2\n")
        extra = ["--data", str(data)]
    else:
        extra = ["--sine-frequency", "0.002", "--sine-samples", "2"]
    code, out = _validate_preset(tmp_path, capsys, *extra)
    assert code == 1
    assert out.err.startswith("error: ") and "no predicted samples" in out.err


def test_validate_has_no_noise_ratio(tmp_path, capsys):
    # validation records are noise-free, so the flag would change nothing
    with pytest.raises(SystemExit) as exc:
        _validate_preset(tmp_path, capsys, "--noise-ratio", "0.1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --noise-ratio" in capsys.readouterr().err


def test_validate_on_generated_sine(tmp_path, capsys):
    # --sine-frequency validates against the experiment's system driven by a sinusoid
    model = preset_models()["heating_narx"].model
    save_model(model, tmp_path / "model.txt")
    code, out = run(["validate", "--experiment", "heating", "--output-dir", str(tmp_path),
                     "--model", str(tmp_path / "model.txt"), "--sine-frequency", "0.002",
                     "--sine-amplitude", "0.2", "--sine-offset", "0.5",
                     "--sine-samples", "300"], capsys)
    assert code == 0 and "free_run MAPE" in out.out
    rows = (tmp_path / "prediction.csv").read_text().strip().splitlines()[1:]
    u = sine_input(0.2, 0.002, 0.0, 0.5, 300, model.ts)
    y = [float(row.split(",")[1]) for row in rows]
    assert y == list(heating_experiment().simulate(u))


def test_validate_writes_an_inverse_model_prediction_against_the_input(tmp_path, capsys):
    # an inverse model predicts the record's u, which the printed MAPE scores,
    # so prediction.csv holds u beside it; it used to write y under "y"
    from narxident import VALVE_BOUC_WEN, TimeSeriesData, mape, save_csv, simulate_bouc_wen

    inverse = preset_models()["valve_inverse_narx"].model
    u = 0.5 + 0.25 * np.sin(2 * np.pi * 0.1 * np.arange(600) * inverse.ts)
    save_csv(tmp_path / "data.csv",
             TimeSeriesData(u, simulate_bouc_wen(VALVE_BOUC_WEN, u).y, ts=inverse.ts))
    save_model(inverse, tmp_path / "model.txt")
    code, out = run(["validate", "--experiment", "heating", "--output-dir", str(tmp_path),
                     "--model", str(tmp_path / "model.txt"), "--data", str(tmp_path / "data.csv")],
                    capsys)
    assert code == 0
    header, *rows = (tmp_path / "prediction.csv").read_text().strip().splitlines()
    assert header == "k,u,u_hat"
    k, ref, pred = (list(col) for col in zip(*(map(float, row.split(",")) for row in rows)))
    # a free run's first two samples are the record's, and are not scored
    assert k == list(range(600)) and ref == list(u) and pred[:2] == ref[:2]
    assert float(out.out.split("MAPE = ")[1].split(" %")[0]) == mape(ref[2:], pred[2:])


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NARXIDENT_OUTPUT_DIR", str(tmp_path / "envout"))
    assert run(["design-input", "--experiment", "heating", "--seed", "0"]) == 0
    assert (tmp_path / "envout" / "input.csv").exists()
