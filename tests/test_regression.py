"""Regression-matrix construction and model simulation."""

from array import array
from math import isfinite

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narxident import (
    CandidateMeta,
    InsufficientDataError,
    NarxModel,
    TimeSeriesData,
    Variable,
    build_regression,
    free_run_simulate,
    generate_candidates,
    heating_experiment,
    make_validation_data,
    one_step_predict,
    preset_models,
    run_identification,
    run_inverse_model,
    simulate_bouc_wen,
    term,
    VALVE_BOUC_WEN,
)
from narxident.errors import ParameterError
from narxident.hysteresis import hysteresis_signals
from narxident.regression import divergence_bound

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


@pytest.mark.parametrize("bound", [float("nan"), 0.0, -1.0])
def test_free_run_rejects_nan_and_nonpositive_bound(bound):
    # NaN would switch the guard off; 0 or less would flag every step
    m = small_model([term((Y, 1, 1))], [0.5])
    with pytest.raises(ParameterError, match="bound"):
        free_run_simulate(m, np.zeros(6), y_init=[1.0], bound=bound)


def test_free_run_infinite_bound_means_no_bound():
    # doubling from 1 passes 1e6 * max(1, |y_init|) but stays finite in 60 steps
    m = small_model([term((Y, 1, 1))], [2.0])
    sim = free_run_simulate(m, np.zeros(60), y_init=[1.0], bound=float("inf"))
    assert not sim.diverged
    assert sim.y[-1] == 2.0 ** 59


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


def reference_free_run(model, u, y_init, bound=None):
    """Per-step free run kept as an oracle: every factor of every term is
    read from a signal table at each step, in the term's factor order."""
    u = np.asarray(u, dtype=float)
    y_init = np.atleast_1d(np.asarray(y_init, dtype=float))
    n = len(u)
    start = max(len(y_init), model.max_lag)
    if bound is None:
        bound = divergence_bound(y_init)
    y = np.zeros(n)
    y[:len(y_init)] = y_init
    phi1, phi2 = hysteresis_signals(u)
    table = {Y: y, U: u, P1: phi1, P2: phi2}
    for k in range(start, n):
        acc = 0.0
        for th, t in zip(model.theta, model.process_terms):
            val = th
            for var, lag, exp in t.factors:
                s = table[var][k - lag]
                val *= s ** exp if exp > 1 else s
            acc += val
        if not np.isfinite(acc) or abs(acc) > bound:
            y[k:] = np.nan
            return y, True, k
        y[k] = acc
    return y, False, None


def assert_matches_reference(sim, reference, rel=1e-12):
    """Same divergence flag and step, NaN exactly after it, and the
    computed samples within ``rel`` of the reference's largest one."""
    y_ref, diverged, diverged_at = reference
    assert sim.diverged == diverged
    assert sim.diverged_at == diverged_at
    assert np.array_equal(np.isnan(sim.y), np.isnan(y_ref))
    done = ~np.isnan(y_ref)
    scale = float(np.max(np.abs(y_ref[done]), initial=0.0))
    assert np.max(np.abs(sim.y[done] - y_ref[done]), initial=0.0) <= rel * scale


FACTORS = st.one_of(
    st.tuples(st.just(Y), st.integers(1, 3), st.integers(1, 2)),
    st.tuples(st.just(U), st.integers(1, 3), st.integers(1, 2)),
    st.tuples(st.just(P1), st.integers(1, 3), st.integers(1, 2)),
    st.tuples(st.just(P2), st.integers(1, 2), st.just(1)),
)


@st.composite
def free_run_cases(draw):
    """A random model (output powers, difference signals, cross terms and
    a constant term among its terms), an input, an initial state that may
    be longer than the largest lag, and an output-term gain that is either
    contractive or large enough to make many runs diverge."""
    terms = draw(st.lists(st.lists(FACTORS, max_size=3).map(lambda f: term(*f)),
                          min_size=1, max_size=6))
    theta = draw(st.lists(st.floats(-1, 1), min_size=len(terms), max_size=len(terms)))
    gain = draw(st.sampled_from([0.3, 1.0, 1e4]))
    theta = [th * (gain if t.uses(Y) else 1.0) / len(terms) for th, t in zip(theta, terms)]
    model = small_model(terms, theta)
    n_init = draw(st.integers(max(model.max_output_lag, 1), model.max_lag + 3))
    n = draw(st.integers(max(n_init, model.max_lag, 2), 60))
    u = np.asarray(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    y_init = np.asarray(draw(st.lists(st.floats(-1, 1), min_size=n_init, max_size=n_init)))
    return model, u, y_init


@given(free_run_cases())
@settings(max_examples=300, deadline=None)
def test_free_run_matches_per_step_reference(case):
    model, u, y_init = case
    assert_matches_reference(free_run_simulate(model, u, y_init),
                             reference_free_run(model, u, y_init))


def test_free_run_reference_cases_diverge_and_settle():
    # the oracle property above draws both kinds of run; pin one of each
    m = small_model([term((Y, 1, 2)), term((Y, 2, 1), (U, 1, 1), (P2, 1, 1)), term()],
                    [3.0, 0.5, 0.2])
    u = np.sin(np.linspace(0, 6, 50))
    sim = free_run_simulate(m, u, y_init=[0.5, 0.4, 0.3])
    assert sim.diverged and sim.diverged_at == 8
    assert_matches_reference(sim, reference_free_run(m, u, [0.5, 0.4, 0.3]))
    m = small_model([term((Y, 1, 1)), term((Y, 1, 1), (P1, 2, 1)), term((U, 3, 2))],
                    [0.6, -0.4, 0.1])
    sim = free_run_simulate(m, u, y_init=[0.1])
    assert not sim.diverged
    assert_matches_reference(sim, reference_free_run(m, u, [0.1]))


CATALOG = ["heating_narx", "pzt_narx", "valve_constrained_narx", "valve_compensation_narx"]


def catalog_run(name):
    m = preset_models()[name].model
    rng = np.random.default_rng(3)
    u = 0.5 + 0.2 * np.cumsum(rng.standard_normal(1500)) / 30
    return m, u, np.full(max(m.max_lag, 1), 0.5)


def inverse_valve_run():
    inverse = preset_models()["valve_inverse_narx"].model
    t = np.arange(3000) * inverse.ts
    u = 0.5 + 0.25 * np.sin(2 * np.pi * 0.1 * t)
    position = simulate_bouc_wen(VALVE_BOUC_WEN, u).y
    return inverse, position, u[:2]


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_free_runs_match_per_step_reference(name):
    m, u, y_init = catalog_run(name)
    assert_matches_reference(free_run_simulate(m, u, y_init),
                             reference_free_run(m, u, y_init))


def test_inverse_valve_model_matches_per_step_reference():
    inverse, position, u_init = inverse_valve_run()
    sim = run_inverse_model(inverse, position, u_init=u_init)
    assert_matches_reference(sim, reference_free_run(inverse, position, u_init))


def term_vector_free_run(model, u, y_init, bound=None):
    """The free run before its step loop was generated, kept as an exact
    oracle: each term's exogenous part is a vector, and a loop over the
    terms multiplies it by the term's lagged outputs on Python floats,
    testing the bound at every step."""
    u = np.asarray(u, dtype=float)
    y_init = np.atleast_1d(np.asarray(y_init, dtype=float))
    n = len(u)
    start = max(len(y_init), model.max_lag)
    if bound is None:
        bound = divergence_bound(y_init)
    phi1, phi2 = hysteresis_signals(u)
    table = {U: u, P1: phi1, P2: phi2}
    terms = []
    for th, t in zip(model.theta, model.process_terms):
        part = np.zeros(n)
        part[start:] = th
        for var, lag, exp in t.factors:
            if var is not Y:
                samples = table[var][start - lag:n - lag]
                part[start:] *= samples ** exp if exp > 1 else samples
        lags = tuple(lag for var, lag, exp in t.factors if var is Y for _ in range(exp))
        terms.append((array("d", part.tobytes()), lags))
    y = array("d", bytes(8 * n))
    y[:len(y_init)] = array("d", y_init.tobytes())
    for k in range(start, n):
        acc = 0.0
        for part, lags in terms:
            val = part[k]
            for lag in lags:
                val *= y[k - lag]
            acc += val
        if not isfinite(acc) or abs(acc) > bound:
            out = np.array(y)
            out[k:] = np.nan
            return out, True, k
        y[k] = acc
    return np.array(y), False, None


def assert_equals_term_vector_loop(sim, oracle):
    y, diverged, diverged_at = oracle
    assert np.array_equal(sim.y, y, equal_nan=True)
    assert sim.diverged == diverged
    assert sim.diverged_at == diverged_at


def identified_heating_run():
    cfg = heating_experiment()
    model = run_identification(cfg, 0).model
    val = make_validation_data(cfg, 0)
    return model, val.u, val.y[:max(model.max_lag, 1)]


@pytest.mark.parametrize("case", [*CATALOG, "inverse valve", "identified heating"])
def test_free_run_equals_term_vector_loop(case):
    if case == "inverse valve":
        model, u, y_init = inverse_valve_run()
    elif case == "identified heating":
        model, u, y_init = identified_heating_run()
        assert len(model.process_terms) >= 20
    else:
        model, u, y_init = catalog_run(case)
    assert_equals_term_vector_loop(free_run_simulate(model, u, y_init),
                                   term_vector_free_run(model, u, y_init))


# Pinned beside the property test: the shapes of generated loop it draws
# only by chance.  No term mixes output with exogenous factors and none
# has a power, so the per-step oracle evaluates the same operations in the
# same order as the term-vector one, and both hold bit for bit.
PINNED_LOOPS = {
    # no output term: the loop carries no lagged outputs
    "no output term": ([term((U, 1, 1)), term((P1, 2, 1), (U, 3, 1)), term()],
                       [0.7, -0.4, 0.05], [0.2]),
    # bare parameters only: no vector is zipped, the loop runs over range
    "bare parameters": ([term((Y, 1, 1)), term((Y, 2, 1), (Y, 1, 1)), term()],
                        [0.5, -0.3, 0.1], [0.4, -0.2]),
    # y_init longer than the largest lag: the carried locals start at y(4)
    "start past the lag": ([term((Y, 1, 1)), term((U, 2, 1)), term((Y, 3, 1), (Y, 1, 1)),
                            term((Y, 3, 1))],
                           [0.5, 0.2, 0.1, -0.3], [0.1, -0.3, 0.2, 0.5, -0.4]),
}


@pytest.mark.parametrize("case", PINNED_LOOPS)
def test_free_run_pinned_loop_shapes_equal_both_oracles(case):
    terms, theta, y_init = PINNED_LOOPS[case]
    m = small_model(terms, theta)
    u = np.sin(np.linspace(0, 9, 80)) + 0.3 * np.cos(np.linspace(0, 31, 80))
    sim = free_run_simulate(m, u, y_init)
    assert not sim.diverged and np.all(sim.y[:len(y_init)] == y_init)
    assert_equals_term_vector_loop(sim, term_vector_free_run(m, u, y_init))
    assert_equals_term_vector_loop(sim, reference_free_run(m, u, y_init))


@given(free_run_cases())
@settings(max_examples=300, deadline=None)
def test_free_run_equals_term_vector_loop_on_random_models(case):
    model, u, y_init = case
    assert_equals_term_vector_loop(free_run_simulate(model, u, y_init),
                                   term_vector_free_run(model, u, y_init))


# The bound is tested after the loop, on the whole trajectory; these pin
# the samples that test must and must not flag.
def test_free_run_overflow_diverges_at_first_non_finite_sample_with_no_bound():
    # y(k) = y(k-1)^2 - y(k-1) from 3 overflows to inf at k=10, and
    # inf - inf is NaN at k=11; a test of |y| <= inf alone would pass the inf
    m = small_model([term((Y, 1, 2)), term((Y, 1, 1))], [1.0, -1.0])
    u = np.zeros(15)
    sim = free_run_simulate(m, u, y_init=[3.0], bound=float("inf"))
    assert sim.diverged and sim.diverged_at == 10
    assert np.all(np.isfinite(sim.y[:10])) and np.all(np.isnan(sim.y[10:]))
    assert_equals_term_vector_loop(sim, term_vector_free_run(m, u, [3.0], float("inf")))


def test_free_run_sample_at_the_bound_is_not_diverged():
    m = small_model([term((Y, 1, 1))], [2.0])
    sim = free_run_simulate(m, np.zeros(5), y_init=[1.0], bound=16.0)
    assert not sim.diverged and sim.y[-1] == 16.0
    sim = free_run_simulate(m, np.zeros(5), y_init=[1.0], bound=8.0)
    assert sim.diverged_at == 4 and sim.y[3] == 8.0


def test_free_run_nan_input_diverges_at_the_first_step_that_reads_it():
    m = small_model([term((Y, 1, 1)), term((U, 2, 1))], [0.5, 1.0])
    u = np.ones(12)
    u[5] = np.nan
    sim = free_run_simulate(m, u, y_init=[0.0])
    assert sim.diverged and sim.diverged_at == 7
    assert np.all(np.isfinite(sim.y[:7]))
    assert_equals_term_vector_loop(sim, term_vector_free_run(m, u, [0.0]))
