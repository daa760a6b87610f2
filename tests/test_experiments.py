"""Benchmark experiment definitions and data generation."""

import numpy as np
import pytest

from narxident import (
    MissingInputError,
    bouc_wen_experiment,
    get_experiment,
    heating_experiment,
    make_identification_data,
    make_validation_data,
)
from narxident.experiments import PRESETS


def test_experiment_catalog():
    assert set(PRESETS) == {"heating", "bouc_wen"}
    assert get_experiment("heating").name == "heating"


def test_valve_experiment_needs_undistributed_data():
    with pytest.raises(MissingInputError):
        get_experiment("valve")


def test_heating_experiment_shape():
    defn = heating_experiment()
    assert defn.design.total_samples == 2000
    assert defn.design.frequencies == (0.001, 0.005)
    assert defn.design.operating_points == (0.3, 0.5, 0.7)
    assert defn.noise_ratio == 0.05
    assert len(defn.candidates.terms) == 55  # degree 3, n_y=3, u lags 2..3


def test_bouc_wen_experiment_shape():
    defn = bouc_wen_experiment()
    assert defn.design.total_samples == 19200
    assert defn.design.frequencies == (0.2, 5.0)
    assert len(defn.candidates.terms) == 19  # after exclusion rules


def test_identification_data_reproducible_and_noisy():
    defn = heating_experiment()
    d1, clean1 = make_identification_data(defn, seed=2)
    d2, clean2 = make_identification_data(defn, seed=2)
    d3, _ = make_identification_data(defn, seed=3)
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.u, d2.u)
    assert not np.array_equal(d1.y, d3.y)
    ratio = np.std(d1.y - clean1) / np.std(clean1)
    assert abs(ratio - 0.05) < 0.01


def test_validation_data_is_noise_free_and_independent():
    defn = heating_experiment()
    ident, _ = make_identification_data(defn, seed=2)
    val = make_validation_data(defn, seed=2)
    assert not np.array_equal(ident.u, val.u)  # different excitation
    # noise-free: simulating the system on val.u reproduces val.y exactly
    assert np.allclose(defn.simulate(val.u), val.y)
