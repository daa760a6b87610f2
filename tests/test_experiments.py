"""Benchmark experiment configs and data generation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from narxident import (
    ExperimentConfig,
    MissingInputError,
    ParameterError,
    Variable,
    apply_exclusion_rules,
    bouc_wen_experiment,
    default_config,
    generate_candidates,
    heating_experiment,
    make_identification_data,
    make_validation_data,
    run_identification,
)
from narxident.experiments import PRESETS


def test_experiment_catalog():
    assert set(PRESETS) == {"heating", "bouc_wen"}
    assert default_config("heating").system == "heating"
    assert heating_experiment() == PRESETS["heating"]
    assert bouc_wen_experiment() == PRESETS["bouc_wen"]


def test_valve_experiment_needs_undistributed_data():
    with pytest.raises(MissingInputError):
        default_config("valve")


def test_heating_experiment_shape():
    config = heating_experiment()
    assert config.design.total_samples == 2000
    assert config.design.frequencies == (0.001, 0.005)
    assert config.design.operating_points == (0.3, 0.5, 0.7)
    assert config.noise_ratio == 0.05
    assert len(config.candidates.terms) == 55  # degree 3, n_y=3, u lags 2..3


def test_bouc_wen_experiment_shape():
    config = bouc_wen_experiment()
    assert config.design.total_samples == 19200
    assert config.design.frequencies == (0.2, 5.0)
    assert len(config.candidates.terms) == 19  # after exclusion rules


@pytest.mark.parametrize("variables", [("y", "u"), ("y", "u", "phi1"), ("y", "u", "phi2"),
                                       ("y", "u", "phi1", "phi2"), ("y", "phi1")],
                         ids=",".join)
def test_exclusion_rules_prune_exactly_when_a_difference_signal_is_present(variables):
    config = ExperimentConfig(system="bouc_wen", degree=2, n_y=1, n_u=1, variables=variables)
    full = generate_candidates(2, 1, 1, variables=tuple(Variable(v) for v in variables))
    pruned, _ = apply_exclusion_rules(full)
    assert pruned != full  # every case has a term that some rule removes
    has_phi = "phi1" in variables or "phi2" in variables
    assert config.candidates == (pruned if has_phi else full)


def test_candidates_are_built_once_per_config(monkeypatch):
    from narxident import experiments

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    generate = experiments.generate_candidates
    monkeypatch.setattr(experiments, "generate_candidates", counting)
    config = heating_experiment()
    run_identification(config, seed=1)
    run_identification(config, seed=2)
    assert config.candidates is config.candidates
    assert len(calls) == 1
    run_identification(replace(config, noise_ratio=0.1), seed=1)
    assert len(calls) == 2


def test_heating_simulation_ignores_only_the_validity_range_warning(monkeypatch):
    from narxident import experiments

    config = heating_experiment()
    u = np.full(50, 1.5)  # outside the published parameters' range [0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config.simulate(u)

    def warning_simulator(params, u):
        warnings.warn("overflow in the recursion", RuntimeWarning)
        return np.zeros(len(u))

    monkeypatch.setattr(experiments, "simulate_hammerstein", warning_simulator)
    with pytest.warns(RuntimeWarning, match="overflow in the recursion"):
        config.simulate(u)


def test_identification_data_reproducible_and_noisy():
    config = heating_experiment()
    d1, clean1 = make_identification_data(config, seed=2)
    d2, clean2 = make_identification_data(config, seed=2)
    d3, _ = make_identification_data(config, seed=3)
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.u, d2.u)
    assert not np.array_equal(d1.y, d3.y)
    ratio = np.std(d1.y - clean1) / np.std(clean1)
    assert abs(ratio - 0.05) < 0.01


def test_validation_data_is_noise_free_and_independent():
    config = heating_experiment()
    ident, _ = make_identification_data(config, seed=2)
    val = make_validation_data(config, seed=2)
    assert not np.array_equal(ident.u, val.u)  # different excitation
    # noise-free: simulating the system on val.u reproduces val.y exactly
    assert np.allclose(config.simulate(val.u), val.y)


def test_negative_noise_ratio_override_is_rejected():
    with pytest.raises(ParameterError, match="nonnegative"):
        run_identification(replace(heating_experiment(), noise_ratio=-0.3), 1)


@pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
def test_non_finite_noise_ratio_override_is_rejected(ratio):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        run_identification(replace(heating_experiment(), noise_ratio=ratio), 1)


@pytest.mark.parametrize("ratio", ["0.1", None, True, [0.1]])
def test_noise_ratio_of_the_wrong_type_is_rejected(ratio):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        replace(heating_experiment(), noise_ratio=ratio)


@pytest.mark.parametrize("seed", [-1, 2.0, True])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        replace(heating_experiment(), seed=seed)
