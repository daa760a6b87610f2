"""Regression-matrix construction and model simulation."""

import numpy as np
import pytest

from narxident import (
    CandidateMeta,
    InsufficientDataError,
    NarxModel,
    TimeSeriesData,
    Variable,
    build_regression,
    free_run_simulate,
    generate_candidates,
    one_step_predict,
    run_inverse_model,
    term,
)
from narxident.errors import ParameterError
from narxident.regression import divergence_bound

Y, U, P1, P2 = Variable.OUTPUT, Variable.INPUT, Variable.PHI1, Variable.PHI2


def small_model(terms, theta, **kw):
    meta = CandidateMeta(degree=3, n_y=3, n_u=3)
    return NarxModel(process_terms=tuple(terms), theta=tuple(theta), meta=meta, **kw)


def test_build_regression_columns_match_terms():
    u = np.arange(1.0, 11.0)
    y = u ** 2
    data = TimeSeriesData(u, y, ts=1.0)
    cs = generate_candidates(2, 1, 1)
    psi, y_s = build_regression(cs, data)
    p = 1
    assert psi.shape == (len(u) - p, len(cs.terms))
    assert np.array_equal(y_s, y[p:])
    for j, t in enumerate(cs.terms):
        expect = np.ones(len(u) - p)
        for var, lag, exp in t.factors:
            sig = y if var is Y else u
            expect = expect * sig[p - lag:len(u) - lag] ** exp
        assert np.allclose(psi[:, j], expect)


def test_build_regression_rows_start_at_max_lag():
    u = np.arange(1.0, 21.0)
    data = TimeSeriesData(u, 2 * u, ts=1.0)
    cs = generate_candidates(1, 3, 2)
    psi, y_s = build_regression(cs, data)
    assert psi.shape[0] == 20 - 3


def test_build_regression_accepts_plain_term_tuple():
    u = np.arange(1.0, 11.0)
    data = TimeSeriesData(u, 3 * u, ts=1.0)
    psi, y_s = build_regression((term((U, 1, 1)),), data)
    assert np.allclose(psi[:, 0], u[:-1])


def test_one_step_predict_exact_model():
    u = np.linspace(0, 1, 50)
    y = np.zeros(50)
    for k in range(1, 50):
        y[k] = 0.5 * y[k - 1] + 2.0 * u[k - 1]
    m = small_model([term((Y, 1, 1)), term((U, 1, 1))], [0.5, 2.0])
    pred = one_step_predict(m, TimeSeriesData(u, y, ts=1.0))
    assert np.allclose(pred, y[1:], atol=1e-12)


def test_free_run_geometric_decay():
    m = small_model([term((Y, 1, 1))], [0.5])
    sim = free_run_simulate(m, np.zeros(6), y_init=[1.0])
    assert np.allclose(sim.y, [1, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    assert not sim.diverged


def test_free_run_heating_preset_steady_state():
    # closed-form fixed point of the three-term heating model under u = 1
    from narxident import preset_models
    m = preset_models()["heating_narx"].model
    th1, th2, th3 = m.theta
    expected = th2 / (1.0 - th1 - th3)
    sim = free_run_simulate(m, np.ones(3000), y_init=[0.0, 0.0])
    assert abs(sim.y[-1] - expected) < 1e-9
    assert abs(expected - 0.525) < 2e-3


def test_free_run_divergence_guard():
    m = small_model([term((Y, 1, 1))], [2.0])
    sim = free_run_simulate(m, np.zeros(60), y_init=[1.0], bound=1e6)
    assert sim.diverged
    assert sim.diverged_at is not None
    assert np.all(np.isnan(sim.y[sim.diverged_at:]))


def test_free_run_default_bound_scales_with_initial_state():
    m = small_model([term((Y, 1, 1))], [2.0])
    sim = free_run_simulate(m, np.zeros(25), y_init=[1.0])
    assert sim.diverged  # exceeds 1e6 * 1 + 1 after ~20 doublings


def test_free_run_from_zero_state_is_not_flagged_diverged():
    # y(k) = 0.5 y(k-1) + u(k-1) settles at 6 under u = 3; a bound that
    # scales with |y_init| alone would be 1 here and stop the run at k=1
    m = small_model([term((Y, 1, 1)), term((U, 1, 1))], [0.5, 1.0])
    sim = free_run_simulate(m, np.full(60, 3.0), y_init=[0.0])
    assert not sim.diverged
    assert abs(sim.y[-1] - 6.0) < 1e-9


@pytest.mark.parametrize("reference, bound", [([0.0], 1e6), ([0.5, -0.2], 1e6),
                                              ([-3.0, 2.0], 3e6), ([], 1e6)])
def test_divergence_bound_rule(reference, bound):
    assert divergence_bound(reference) == bound


def test_free_run_rejects_short_initialization():
    m = small_model([term((Y, 2, 1))], [0.5])
    with pytest.raises(InsufficientDataError):
        free_run_simulate(m, np.zeros(10), y_init=[1.0])


def test_free_run_noise_terms_contribute_zero():
    # the moving-average part carries no signal in free-run simulation
    meta = CandidateMeta(degree=3, n_y=3, n_u=3)
    m = NarxModel(
        process_terms=(term((Y, 1, 1)),), theta=(0.5,), meta=meta,
        noise_terms=(term((Variable.RESIDUAL, 1, 1)),), noise_theta=(100.0,),
    )
    sim = free_run_simulate(m, np.zeros(4), y_init=[1.0])
    assert np.allclose(sim.y, [1, 0.5, 0.25, 0.125])


def test_model_rejects_residual_process_terms():
    with pytest.raises(ParameterError):
        small_model([term((Variable.RESIDUAL, 1, 1))], [1.0])


def test_free_run_difference_signals_from_input():
    # y(k) = phi2(k-1): the sign of the input's first difference, with
    # phi1(0) defined as 0
    m = small_model([term((P2, 1, 1))], [1.0])
    u = np.array([0.0, 1.0, 2.0, 1.5, 1.5, 2.0])
    sim = free_run_simulate(m, u, y_init=[0.0])
    assert np.allclose(sim.y[1:], [0.0, 1.0, 1.0, -1.0, 0.0])


def test_run_inverse_model_requires_inverse_direction():
    m = small_model([term((Y, 1, 1))], [1.0])
    with pytest.raises(ParameterError):
        run_inverse_model(m, np.zeros(10), u_init=[0.0])
