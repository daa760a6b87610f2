"""MAPE scoring, validation modes, and the Monte Carlo sweep."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narxident import (
    CandidateMeta,
    DegenerateRangeError,
    InsufficientDataError,
    NarxModel,
    ParameterError,
    SelectionConfig,
    TimeSeriesData,
    VALVE_BOUC_WEN,
    Variable,
    heating_experiment,
    mape,
    monte_carlo_noise_sweep,
    one_step_predict,
    preset_models,
    run_identification,
    run_inverse_model,
    simulate_bouc_wen,
    term,
    validate,
)
from narxident.evaluation import MonteCarloReport
from narxident.experiments import make_validation_data

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


@pytest.mark.parametrize("mode", ["free_run", "one_step"])
def test_validate_scores_an_inverse_model_with_the_roles_swapped(mode):
    # the record's y drives an inverse model and its u is the reference; the
    # free run on a 0.1 Hz valve record used to read 131.2 % against 13.1 %
    inverse = preset_models()["valve_inverse_narx"].model
    u = 0.5 + 0.25 * np.sin(2 * np.pi * 0.1 * np.arange(3000) * inverse.ts)
    position = simulate_bouc_wen(VALVE_BOUC_WEN, u).y
    result = validate(inverse, TimeSeriesData(u, position, ts=inverse.ts), mode=mode)
    if mode == "free_run":
        expected = run_inverse_model(inverse, position, u_init=u[:2]).y
        assert result.mape == mape(u[2:], expected[2:]) < 20.0
    else:
        expected = one_step_predict(inverse, TimeSeriesData(position, u, ts=inverse.ts))
        assert result.mape == mape(u[len(u) - len(expected):], expected)
    assert np.array_equal(result.prediction, expected)


def test_validate_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        validate(exact_model(), exact_record(), mode="two_step")


def test_monte_carlo_report_csv_format(tmp_path):
    # the statistics follow from the MAPEs, the failures from the seeds
    # left without one; a ratio with no successful trial reads nan
    report = MonteCarloReport(
        ratios=(0.0, 0.1, 0.2), seeds=((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        mapes=((0.5, 1.5, 1.0), (2.0, 3.0), ()), unconverged=(1, 2, 0),
    )
    assert report.failures == (0, 1, 3)
    path = tmp_path / "mc.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "ratio,mean_mape,std_mape,failures,unconverged"
    assert lines[1] == f"0.0,1.0,{float(np.std([0.5, 1.5, 1.0]))!r},0,1"
    assert lines[2] == "0.1,2.5,0.5,1,2"
    assert lines[3] == "0.2,nan,nan,3,0"


@pytest.mark.parametrize("n_noise_terms", [1, 0])
def test_monte_carlo_counts_unconverged_final_fits(n_noise_terms):
    # a scored trial whose final ELS fit stopped at the cap is counted;
    # least squares always converges
    config = dataclasses.replace(heating_experiment(),
                                 selection=SelectionConfig(n_noise_terms=n_noise_terms))
    report = monte_carlo_noise_sweep(config, (0.05,), 2, base_seed=3)
    val_data = make_validation_data(config, 3)
    want = 0
    for seed in report.seeds[0]:
        result = run_identification(dataclasses.replace(config, noise_ratio=0.05), seed)
        if not validate(result.model, val_data).diverged:
            want += not result.report.converged
    assert len(report.mapes[0]) == 2 and report.unconverged == (want,)
    assert want == (2 if n_noise_terms else 0)


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
