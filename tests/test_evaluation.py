"""MAPE scoring, validation modes, and the Monte Carlo sweep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narxident import (
    CandidateMeta,
    DegenerateRangeError,
    InsufficientDataError,
    NarxModel,
    ParameterError,
    TimeSeriesData,
    Variable,
    mape,
    term,
    validate,
)
from narxident.evaluation import MonteCarloReport

Y, U = Variable.OUTPUT, Variable.INPUT


def test_mape_perfect_prediction_is_zero():
    y = np.array([0.0, 1.0, 2.0])
    assert mape(y, y) == 0.0


def test_mape_formula():
    assert abs(mape([0.0, 1.0], [0.1, 1.1]) - 10.0) < 1e-12


def test_mape_rejects_degenerate_range_and_shape():
    with pytest.raises(DegenerateRangeError):
        mape([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ParameterError):
        mape([1.0, 2.0], [1.0])


def test_mape_rejects_empty_input():
    with pytest.raises(InsufficientDataError):
        mape([], [])


@given(
    st.floats(0.1, 100.0),
    st.floats(-50.0, 50.0),
    st.integers(0, 100),
)
@settings(max_examples=50, deadline=None)
def test_mape_invariant_under_affine_rescaling(scale, shift, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(30)
    y_hat = y + rng.standard_normal(30) * 0.1
    base = mape(y, y_hat)
    rescaled = mape(scale * y + shift, scale * y_hat + shift)
    assert abs(base - rescaled) < 1e-8 * max(1.0, base)


def exact_model():
    meta = CandidateMeta(degree=1, n_y=1, n_u=1)
    return NarxModel(process_terms=(term((Y, 1, 1)), term((U, 1, 1))),
                     theta=(0.5, 1.0), meta=meta)


def exact_record(n=200, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, n)
    y = np.zeros(n)
    for k in range(1, n):
        y[k] = 0.5 * y[k - 1] + u[k - 1]
    return TimeSeriesData(u, y, ts=1.0)


def test_validate_one_step_perfect_model():
    result = validate(exact_model(), exact_record(), mode="one_step")
    assert result.mape < 1e-10
    assert result.mode == "one_step"
    assert not result.diverged


def test_validate_free_run_perfect_model():
    result = validate(exact_model(), exact_record(), mode="free_run")
    assert result.mape < 1e-10
    assert len(result.prediction) == 200


def test_validate_divergence_reports_infinite_mape():
    meta = CandidateMeta(degree=1, n_y=1, n_u=1)
    unstable = NarxModel(process_terms=(term((Y, 1, 1)), term((U, 1, 1))),
                         theta=(3.0, 1.0), meta=meta)
    data = exact_record()
    result = validate(unstable, data, mode="free_run", bound=1e6)
    assert result.diverged and result.mape == np.inf


def test_validate_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        validate(exact_model(), exact_record(), mode="two_step")


def test_monte_carlo_report_csv_format(tmp_path):
    report = MonteCarloReport(
        ratios=(0.0, 0.1), mape_mean=(1.0, 2.5), mape_std=(0.1, 0.2),
        trials=3, seeds=((1, 2, 3), (4, 5, 6)), failures=(0, 1),
    )
    path = tmp_path / "mc.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ratio,mean_mape,std_mape,failures"
    assert lines[1] == "0.0,1.0,0.1,0"
    assert lines[2] == "0.1,2.5,0.2,1"


def test_monte_carlo_requires_ascending_ratios():
    from narxident import heating_experiment, monte_carlo_noise_sweep
    with pytest.raises(ParameterError):
        monte_carlo_noise_sweep(heating_experiment(), (0.3, 0.1), 1)


def test_monte_carlo_rejects_negative_ratios():
    from narxident import heating_experiment, monte_carlo_noise_sweep
    with pytest.raises(ParameterError, match="nonnegative"):
        monte_carlo_noise_sweep(heating_experiment(), [-0.5], 1)


@pytest.mark.parametrize("ratios", [[0.0, float("inf")], [0.0, float("nan")]])
def test_monte_carlo_rejects_non_finite_ratios_before_any_trial(ratios, monkeypatch):
    from narxident import evaluation, heating_experiment, monte_carlo_noise_sweep

    def no_trial(*args):
        raise AssertionError("a trial ran before the noise ratios were checked")

    monkeypatch.setattr(evaluation, "run_identification", no_trial)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        monte_carlo_noise_sweep(heating_experiment(), ratios, 2)



@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2"])
def test_monte_carlo_rejects_bad_trial_counts_before_any_work(bad, monkeypatch):
    from narxident import evaluation, heating_experiment, monte_carlo_noise_sweep

    def no_validation_record(*args):
        raise AssertionError("validation record built before the trial count was checked")

    monkeypatch.setattr(evaluation, "make_validation_data", no_validation_record)
    with pytest.raises(ParameterError, match="trials per ratio"):
        monte_carlo_noise_sweep(heating_experiment(), [0.1], bad)


def test_monte_carlo_counts_estimation_failures_and_propagates_bugs(monkeypatch):
    from narxident import SingularMatrixError, evaluation, heating_experiment

    def singular(*args, **kwargs):
        raise SingularMatrixError("rank deficient")

    monkeypatch.setattr(evaluation, "run_identification", singular)
    report = evaluation.monte_carlo_noise_sweep(heating_experiment(), (0.1,), 2)
    assert report.failures == (2,) and np.isnan(report.mape_mean[0])

    def broken(*args, **kwargs):
        raise TypeError("not an identification failure")

    monkeypatch.setattr(evaluation, "run_identification", broken)
    with pytest.raises(TypeError):
        evaluation.monte_carlo_noise_sweep(heating_experiment(), (0.1,), 2)
