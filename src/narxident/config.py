"""Experiment configuration files.

One JSON config drives a whole experiment: which benchmark system to
simulate, the input-design spec, the candidate dictionary bounds and
signal kinds, estimator settings, noise ratio, seed, and the output
directory.  Configs round-trip losslessly through
:func:`save_config` / :func:`load_config`.

The codec is one table, :data:`CODEC`, that maps each JSON key path to one
:class:`ExperimentConfig` attribute.  Defaults live only in the
dataclasses; a key outside the table is an error.
"""

from __future__ import annotations

import dataclasses
import json
from operator import attrgetter

import numpy as np

from .errors import ParameterError
from .estimation import ElsConfig
from .experiments import ExperimentConfig
from .input_design import InputDesignSpec
from .selection import SelectionConfig

#: JSON types of the ``design`` object's fields
_DESIGN = {"frequencies": [float], "segment_lengths": [int], "operating_points": [float],
           "amplitudes": [float], "sample_rate": float, "filter_order": int}

#: (JSON key path, attribute, required in a file, JSON type), in file
#: order.  A dotted attribute is a field of a nested dataclass.  A type is
#: ``str``, ``int``, ``float`` (integers admitted), a one-item list for a
#: list of that type, or a dict of field types for an object: ``design``
#: is a JSON object keyed by its dataclass field names, or null.
CODEC = (
    ("system", "system", True, str),
    ("design", "design", False, _DESIGN),
    ("candidates.degree", "degree", True, int),
    ("candidates.n_y", "n_y", True, int),
    ("candidates.n_u", "n_u", True, int),
    ("candidates.tau_d", "tau_d", True, int),
    ("candidates.variables", "variables", True, [str]),
    ("estimator.zeta", "selection.els.zeta", False, float),
    ("estimator.max_iterations", "selection.els.max_iterations", False, int),
    ("estimator.n_noise_terms", "selection.n_noise_terms", False, int),
    ("noise_ratio", "noise_ratio", False, float),
    ("seed", "seed", False, int),
    ("output_dir", "output_dir", False, str),
)
_OBJECTS = {"design": InputDesignSpec, "selection": SelectionConfig, "els": ElsConfig}
_PATHS = {path for path, _, _, _ in CODEC}
_SECTIONS = {path.rpartition(".")[0] for path in _PATHS} - {""}
_JSON_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean",
               list: "list", dict: "object", type(None): "null"}


def _check_type(value, kind, path):
    """Raise :class:`ParameterError` naming ``path`` unless ``value`` has JSON type ``kind``."""
    if isinstance(kind, list):
        ok = isinstance(value, list)
        if ok:
            for i, item in enumerate(value):
                _check_type(item, kind[0], f"{path}[{i}]")
        expected = f"list of {_JSON_NAMES[kind[0]]}s"
    else:
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and not isinstance(value, bool))
        expected = _JSON_NAMES[kind]
    if not ok:
        raise ParameterError(f"config field {path!r} must be {expected}, "
                             f"got {_JSON_NAMES.get(type(value), type(value).__name__)}")


def _plain(value):
    """JSON form of an attribute value: dataclasses become objects, tuples
    lists and numpy scalars Python numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    d = {}
    for path, attr, _, _ in CODEC:
        *sections, key = path.split(".")
        node = d
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = _plain(attrgetter(attr)(config))
    return d


def _flatten(d, prefix=""):
    """``{key path: value}`` of a config dict, raising on an unknown key."""
    flat = {}
    for key, value in d.items():
        path = prefix + key
        if path in _SECTIONS:
            if not isinstance(value, dict):
                raise ParameterError(f"config field {path!r} must be an object")
            flat.update(_flatten(value, path + "."))
        elif path in _PATHS:
            flat[path] = value
        else:
            raise ParameterError(f"unknown config key {path!r}")
    return flat


def _decode_object(cls, value, path, types):
    if not isinstance(value, dict):
        raise ParameterError(f"config field {path!r} must be an object or null")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in value:
        if key not in names:
            raise ParameterError(f"unknown config key '{path}.{key}'")
        _check_type(value[key], types[key], f"{path}.{key}")
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in value:
            raise ParameterError(f"config is missing field '{path}.{f.name}'")
    return cls(**value)


def _build(cls, fields):
    """``cls(**fields)``; a dict value is built into the ``_OBJECTS`` class named by its key."""
    return cls(**{name: _build(_OBJECTS[name], value) if isinstance(value, dict) else value
                  for name, value in fields.items()})


def config_from_dict(d: dict) -> ExperimentConfig:
    flat = _flatten(d)
    fields = {}
    for path, attr, required, kind in CODEC:
        if path not in flat:
            if required:
                raise ParameterError(f"config is missing field {path!r}")
            continue
        value = flat[path]
        if isinstance(kind, dict):
            if value is not None:
                value = _decode_object(_OBJECTS[attr], value, path, kind)
        else:
            _check_type(value, kind, path)
        *heads, name = attr.split(".")
        node = fields
        for head in heads:
            node = node.setdefault(head, {})
        node[name] = value
    return _build(ExperimentConfig, fields)


def save_config(config: ExperimentConfig, path):
    # serialized before the file is opened, so a failure leaves no partial file
    text = json.dumps(config_to_dict(config), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(d, dict):
        raise ParameterError(f"{path}: config must be a JSON object")
    return config_from_dict(d)
