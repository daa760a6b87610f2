"""Experiment configuration files.

One JSON config drives a whole experiment: which system to use (a named
benchmark preset or a CSV data file), the input-design spec, the candidate
dictionary bounds, hysteresis handling, estimator choice, noise ratio,
seeds, and the output directory.  Configs round-trip losslessly through
:func:`save_config` / :func:`load_config`.

The codec is one table, :data:`CODEC`, that maps each JSON key path to one
:class:`ExperimentConfig` attribute.  Defaults live only in the
dataclasses; a key outside the table is an error.
"""

from __future__ import annotations

import dataclasses
import json
from operator import attrgetter

from .errors import ParameterError
from .estimation import ElsConfig
from .experiments import ExperimentConfig, default_config  # default_config: re-exported
from .hysteresis import HysteresisCandidateConfig
from .input_design import InputDesignSpec

#: (JSON key path, attribute, required in a file), in file order.  A
#: dotted attribute is a field of a nested dataclass; ``design`` and
#: ``hysteresis`` are JSON objects keyed by their dataclass field names,
#: or null.
CODEC = (
    ("system", "system", True),
    ("design", "design", False),
    ("candidates.degree", "degree", True),
    ("candidates.n_y", "n_y", True),
    ("candidates.n_u", "n_u", True),
    ("candidates.tau_d", "tau_d", True),
    ("candidates.variables", "variables", True),
    ("hysteresis", "hysteresis", False),
    ("estimator.method", "estimator", True),
    ("estimator.sweep_method", "sweep_estimator", False),
    ("estimator.zeta", "els.zeta", False),
    ("estimator.max_iterations", "els.max_iterations", False),
    ("estimator.n_noise_terms", "n_noise_terms", False),
    ("noise_ratio", "noise_ratio", False),
    ("seed", "seed", False),
    ("output_dir", "output_dir", False),
)
_OBJECTS = {"design": InputDesignSpec, "hysteresis": HysteresisCandidateConfig, "els": ElsConfig}
_PATHS = {path for path, _, _ in CODEC}
_SECTIONS = {path.rpartition(".")[0] for path in _PATHS} - {""}


def _plain(value):
    """JSON form of an attribute value: dataclasses become objects, tuples lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    d = {}
    for path, attr, _ in CODEC:
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


def _decode_object(cls, value, path):
    if not isinstance(value, dict):
        raise ParameterError(f"config field {path!r} must be an object or null")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in value:
        if key not in names:
            raise ParameterError(f"unknown config key '{path}.{key}'")
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in value:
            raise ParameterError(f"config is missing field '{path}.{f.name}'")
    return cls(**value)


def config_from_dict(d: dict) -> ExperimentConfig:
    flat = _flatten(d)
    kwargs = {}
    nested = {}
    for path, attr, required in CODEC:
        if path not in flat:
            if required:
                raise ParameterError(f"config is missing field {path!r}")
            continue
        value = flat[path]
        if attr in _OBJECTS and value is not None:
            value = _decode_object(_OBJECTS[attr], value, path)
        head, _, field = attr.partition(".")
        if field:
            nested.setdefault(head, {})[field] = value
        else:
            kwargs[attr] = value
    for head, fields in nested.items():
        kwargs[head] = _OBJECTS[head](**fields)
    return ExperimentConfig(**kwargs)


def save_config(config: ExperimentConfig, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(d, dict):
        raise ParameterError(f"{path}: config must be a JSON object")
    return config_from_dict(d)
