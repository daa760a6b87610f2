"""Experiment config serialization and materialization."""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from narxident import (
    ElsConfig,
    InputDesignSpec,
    MissingInputError,
    ParameterError,
    SelectionConfig,
    bouc_wen_experiment,
    default_config,
    heating_experiment,
    make_identification_data,
)
from narxident.config import (
    CODEC,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


@pytest.mark.parametrize("name", ["heating", "bouc_wen"])
def test_config_round_trip(name, tmp_path):
    cfg = dataclasses.replace(default_config(name), seed=11, output_dir=str(tmp_path))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    back = load_config(path)
    assert config_to_dict(back) == config_to_dict(cfg)
    # and a second serialization is byte-identical
    path2 = tmp_path / "config2.json"
    save_config(back, path2)
    assert path.read_text() == path2.read_text()
    # numpy integers pass the integer checks and are written as plain ones;
    # they used to stop json.dump halfway, leaving a truncated file
    numpy_ints = dataclasses.replace(
        cfg, seed=np.int64(11), degree=np.int64(cfg.degree), n_y=np.int32(cfg.n_y),
        selection=dataclasses.replace(cfg.selection, n_noise_terms=np.int64(1)))
    path3 = tmp_path / "config3.json"
    save_config(numpy_ints, path3)
    assert path3.read_text() == path.read_text()
    assert load_config(path3) == cfg


def test_save_config_leaves_no_partial_file(tmp_path):
    cfg = default_config("heating")
    path = tmp_path / "config.json"
    save_config(cfg, path)
    before = path.read_text()
    object.__setattr__(cfg, "seed", object())  # past the checks, not serializable
    with pytest.raises(TypeError):
        save_config(cfg, path)
    with pytest.raises(TypeError):
        save_config(cfg, tmp_path / "new.json")
    assert path.read_text() == before
    assert not (tmp_path / "new.json").exists()


def test_config_builds_same_experiment_as_builtin(tmp_path):
    for builtin in (heating_experiment(), bouc_wen_experiment()):
        save_config(builtin, tmp_path / "config.json")
        loaded = load_config(tmp_path / "config.json")
        assert loaded == builtin
        assert loaded.candidates == builtin.candidates


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(system="heating", variables=("y", "w"))
    # a bare string used to be split into its characters, "yu" reading as
    # ("y", "u"), and a number raised a TypeError
    for variables in ("yu", "phi1", 5):
        with pytest.raises(ParameterError, match="variables must be a sequence"):
            ExperimentConfig(system="heating", variables=variables)
    # a repeated kind builds the same dictionary as the kind once, yet the
    # two configs would compare unequal and save different files
    with pytest.raises(ParameterError, match="variable kind 'y' is repeated"):
        ExperimentConfig(system="heating", variables=("y", "y", "u"))
    for ratio in (-0.1, float("inf")):
        with pytest.raises(ParameterError):
            ExperimentConfig(system="heating", noise_ratio=ratio)
    # a list or dict system raised TypeError (unhashable) from the system
    # lookup; any output_dir was kept, and save_config failed on a Path
    for system in (["heating"], {"heating": 1}, None, 5):
        with pytest.raises(ParameterError, match="system must be a string"):
            ExperimentConfig(system=system)
    for output_dir in (5, None, Path("out"), ["out"]):
        with pytest.raises(ParameterError, match="output_dir must be a string"):
            ExperimentConfig(system="heating", output_dir=output_dir)
    with pytest.raises(ParameterError):
        default_config("unknown")


@pytest.mark.parametrize("field, bad", [("degree", 2.5), ("degree", True), ("degree", 0),
                                        ("n_y", 0), ("n_u", 1.0), ("tau_d", 4)])
def test_config_checks_dictionary_bounds_when_built(field, bad):
    with pytest.raises(ParameterError, match="invalid meta-parameters"):
        ExperimentConfig(system="heating", **{field: bad})


@pytest.mark.parametrize("path", ["candidates.degree", "candidates.n_y", "candidates.tau_d"])
def test_config_file_with_a_zero_bound_does_not_load(path, tmp_path):
    d = copy.deepcopy(_BOUC_WEN)
    node, key = _parent(d, path)
    node[key] = 0
    (tmp_path / "config.json").write_text(json.dumps(d))
    with pytest.raises(ParameterError, match="invalid meta-parameters"):
        load_config(tmp_path / "config.json")


def test_config_from_dict_reports_missing_fields():
    with pytest.raises(ParameterError):
        config_from_dict({"system": "heating"})


def test_load_config_reports_json_errors_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "system": "heating",\n  broken\n}\n')
    with pytest.raises(ParameterError) as exc:
        load_config(path)
    assert "line 3" in str(exc.value)


def test_csv_backed_config_cannot_simulate(tmp_path):
    with pytest.raises(ParameterError, match="unknown system 'data/measured.csv'"):
        ExperimentConfig(system="data/measured.csv")
    d = copy.deepcopy(_BOUC_WEN)
    d["system"] = "data/measured.csv"
    path = tmp_path / "csv.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ParameterError, match="unknown system"):
        load_config(path)
    with pytest.raises(MissingInputError):
        ExperimentConfig(system="valve")


def _leaf_paths(d, prefix=""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + key + ".")
        else:
            yield prefix + key


def _get(d, path):
    for key in path.split("."):
        d = d[key]
    return d


def _parent(d, path):
    *sections, key = path.split(".")
    for section in sections:
        d = d[section]
    return d, key


_BOUC_WEN = config_to_dict(default_config("bouc_wen"))

#: every codec key path of a config with a design, the value it is
#: changed to, and whether the change reaches the built experiment.
#: ``seed`` and ``output_dir`` are read by the commands.
KEY_CHANGES = [
    ("system", "bouc_wen", True),
    ("design.frequencies", [0.002, 0.005], True),
    ("design.segment_lengths", [900, 1100], True),
    ("design.operating_points", [0.3, 0.5, 0.6], True),
    ("design.amplitudes", [0.1, 0.2, 0.2], True),
    ("design.sample_rate", 0.4, True),
    ("design.filter_order", 4, True),
    ("candidates.degree", 2, True),
    ("candidates.n_y", 2, True),
    ("candidates.n_u", 4, True),
    ("candidates.tau_d", 1, True),
    ("candidates.variables", ["y", "u", "phi1"], True),
    ("estimator.zeta", 1e-6, True),
    ("estimator.max_iterations", 10, True),
    ("estimator.n_noise_terms", 2, True),
    ("noise_ratio", 0.1, True),
    ("seed", 7, False),
    ("output_dir", "elsewhere", False),
]


def test_key_change_table_covers_every_codec_key():
    assert sorted(_leaf_paths(_BOUC_WEN)) == sorted(path for path, _, _ in KEY_CHANGES)
    # only the keys the commands read may leave the experiment unchanged
    assert {path for path, _, reaches in KEY_CHANGES if not reaches} == {"seed", "output_dir"}


def _behaviour(cfg):
    """What the experiment does: its dictionary, its selection settings
    and the identification record it generates."""
    data, _ = make_identification_data(cfg, seed=1)
    return (cfg.system, cfg.candidates, cfg.selection, data.ts,
            data.u.tobytes(), data.y.tobytes())


@pytest.mark.parametrize("path, value, reaches_experiment", KEY_CHANGES)
def test_every_codec_key_changes_the_config(path, value, reaches_experiment):
    base = config_to_dict(default_config("heating"))
    changed = copy.deepcopy(base)
    node, key = _parent(changed, path)
    node[key] = value
    before, after = config_from_dict(base), config_from_dict(changed)
    assert after != before
    assert config_to_dict(after) == changed
    assert (_behaviour(after) != _behaviour(before)) == reaches_experiment


#: keys a config file must contain; every other key may be left out
REQUIRED = {
    "system", "candidates.degree", "candidates.n_y", "candidates.n_u",
    "candidates.tau_d", "candidates.variables",
    "design.frequencies", "design.segment_lengths", "design.operating_points",
    "design.amplitudes", "design.sample_rate",
}


@pytest.mark.parametrize("path", sorted(_leaf_paths(_BOUC_WEN)) + ["design"])
def test_left_out_keys_take_the_dataclass_defaults(path):
    d = copy.deepcopy(_BOUC_WEN)
    node, key = _parent(d, path)
    del node[key]
    if path in REQUIRED:
        with pytest.raises(ParameterError, match=f"missing field '{path}'"):
            config_from_dict(d)
        return
    design = {key: _get(_BOUC_WEN, f"design.{key}") for key in
              ("frequencies", "segment_lengths", "operating_points", "amplitudes",
               "sample_rate")}
    defaults = config_to_dict(ExperimentConfig(
        system="bouc_wen",
        design=None if path == "design" else InputDesignSpec(**design),
    ))
    assert _get(config_to_dict(config_from_dict(d)), path) == _get(defaults, path)


@pytest.mark.parametrize("path, typo", [
    ("estimator.max_iterations", "estimator.max_iteration"),
    ("noise_ratio", "noise_ratoi"),
    (None, "design.seed"),
    (None, "estimator.sweep_method"),
    (None, "estimator.method"),  # least squares is estimator.n_noise_terms = 0
    (None, "hysteresis"),
    (None, "candidates.max_degree"),
    (None, "comment"),
])
def test_unknown_or_misspelled_key_is_rejected(path, typo, tmp_path):
    d = copy.deepcopy(_BOUC_WEN)
    value = 5
    if path is not None:
        node, key = _parent(d, path)
        value = node.pop(key)
    node, key = _parent(d, typo)
    node[key] = value
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(d))
    with pytest.raises(ParameterError, match=f"unknown config key '{typo}'"):
        load_config(cfg)


@pytest.mark.parametrize("section, value", [("candidates", 3), ("design", [1, 2])])
def test_sections_must_be_objects(section, value):
    d = copy.deepcopy(_BOUC_WEN)
    d[section] = value
    with pytest.raises(ParameterError, match=f"'{section}' must be an object"):
        config_from_dict(d)


@pytest.mark.parametrize("path, value, where, message", [
    ("design.frequencies", 5, "design.frequencies", "must be list of numbers, got integer"),
    ("candidates.degree", "3", "candidates.degree", "must be integer, got string"),
    ("candidates.n_y", True, "candidates.n_y", "must be integer, got boolean"),
    ("candidates.variables", ["y", 1], "candidates.variables[1]", "must be string, got integer"),
    ("design.segment_lengths", [1000, 1000.5], "design.segment_lengths[1]",
     "must be integer, got number"),
    ("estimator.zeta", "1e-8", "estimator.zeta", "must be number, got string"),
    ("noise_ratio", None, "noise_ratio", "must be number, got null"),
    ("output_dir", ["out"], "output_dir", "must be string, got list"),
])
def test_wrong_type_value_is_a_parameter_error(path, value, where, message):
    d = copy.deepcopy(_BOUC_WEN)
    node, key = _parent(d, path)
    node[key] = value
    with pytest.raises(ParameterError) as exc:
        config_from_dict(d)
    assert str(exc.value) == f"config field '{where}' {message}"


@pytest.mark.parametrize("path", ["estimator.zeta", "noise_ratio"])
def test_number_overflowing_to_inf_is_a_parameter_error(path, tmp_path):
    # JSON 1e400 parses to inf, which passes the number type check
    d = copy.deepcopy(_BOUC_WEN)
    node, key = _parent(d, path)
    node[key] = "OVERFLOW"
    (tmp_path / "config.json").write_text(json.dumps(d).replace('"OVERFLOW"', "1e400"))
    with pytest.raises(ParameterError, match="finite"):
        load_config(tmp_path / "config.json")


def test_integers_are_accepted_as_numbers():
    d = copy.deepcopy(_BOUC_WEN)
    d["noise_ratio"], d["design"]["sample_rate"] = 0, 200
    cfg = config_from_dict(d)
    assert cfg.noise_ratio == 0 and cfg.design.sample_rate == 200.0


def test_object_types_cover_every_dataclass_field():
    for path, attr, _, kind in CODEC:
        if isinstance(kind, dict):
            cls = {"design": InputDesignSpec}[attr]
            assert sorted(kind) == sorted(f.name for f in dataclasses.fields(cls)), path


def test_codec_reaches_every_selection_setting(tmp_path):
    # every field of SelectionConfig and of its ElsConfig has one codec row
    attrs = [attr for _, attr, _, _ in CODEC]
    paths = sorted(_leaf_paths(dataclasses.asdict(SelectionConfig()), "selection."))
    assert sorted(a for a in attrs if a.startswith("selection.")) == paths
    assert all(attrs.count(path) == 1 for path in paths)
    selection = SelectionConfig(n_noise_terms=2, els=ElsConfig(zeta=1e-6, max_iterations=50))
    assert all(getattr(selection, f.name) != getattr(SelectionConfig(), f.name)
               for f in dataclasses.fields(SelectionConfig))
    cfg = ExperimentConfig(system="heating", selection=selection)
    save_config(cfg, tmp_path / "config.json")
    assert load_config(tmp_path / "config.json") == cfg
