"""Regressor terms, candidate enumeration, and the model container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from narxident import (
    CandidateMeta,
    CandidateSet,
    NarxModel,
    ParameterError,
    RegressorTerm,
    Variable,
    generate_candidates,
    parse_term,
    term,
)

Y, U = Variable.OUTPUT, Variable.INPUT


def test_term_canonical_order_and_merge():
    # factors sort by variable kind then lag; duplicate factors merge exponents
    t = term((U, 2, 1), (Y, 1, 1), (U, 2, 1))
    assert str(t) == "y(k-1)*u(k-2)^2"


def test_term_degree_and_lags():
    t = term((Y, 1, 1), (U, 3, 2))
    assert t.degree == 3
    assert t.max_lag == 3
    assert t.max_lag_of(Y) == 1
    assert t.max_lag_of(U) == 3


def test_parse_term_round_trip_simple():
    for s in ("y(k-1)", "u(k-2)^2", "y(k-1)*u(k-2)^2", "phi2(k-1)*phi1(k-1)*u(k-1)", "1"):
        assert str(parse_term(str(parse_term(s)))) == str(parse_term(s))


@pytest.mark.parametrize("lag, exp", [(1.5, 1), (True, 1), (1, 2.7), (0, 1), (1, 0), ("1", 1)])
def test_term_rejects_lags_and_exponents_that_are_not_positive_integers(lag, exp):
    # a float lag or exponent used to be truncated: lag 1.5 became 1, exponent 2.7 became 2
    with pytest.raises(ParameterError, match="positive integers"):
        term((Y, lag, exp))


def test_term_accepts_numpy_integer_lags_and_exponents():
    t = term((Y, np.int64(2), np.int32(3)))
    assert t == term((Y, 2, 3)) and all(type(x) is int for x in t.factors[0][1:])


def test_parse_term_rejects_garbage():
    for s in ("", "y(k)", "y(k+1)", "z(k-1)", "y(k-1)^0", "xi(k-1)"):
        with pytest.raises(ParameterError):
            parse_term(s)


@st.composite
def random_terms(draw):
    n = draw(st.integers(1, 3))
    factors = []
    for _ in range(n):
        var = draw(st.sampled_from([Variable.OUTPUT, Variable.INPUT,
                                    Variable.PHI1, Variable.PHI2]))
        lag = draw(st.integers(1, 5))
        exp = draw(st.integers(1, 3))
        factors.append((var, lag, exp))
    return term(*factors)


@given(random_terms())
def test_parse_term_round_trips_any_term(t):
    assert parse_term(str(t)) == t


def test_candidate_count_output_input_cubic():
    # degree 3 over 6 lagged signals (3 output + 3 input lags): all
    # monomials of degree 1..3 in 6 variables = C(9,3) - 1 = 83
    cs = generate_candidates(3, 3, 3)
    assert len(cs.terms) == 83


def test_candidate_count_with_constant():
    cs = generate_candidates(3, 3, 3, include_constant=True)
    assert len(cs.terms) == 84
    assert cs.terms[0].degree == 0


def test_candidate_count_linear():
    # degree 1: exactly one term per lagged signal
    cs = generate_candidates(1, 2, 3)
    assert len(cs.terms) == 5


def test_candidate_dead_time_shifts_input_lags():
    cs = generate_candidates(2, 1, 3, tau_d=2)
    input_lags = {lag for t in cs.terms for var, lag, _ in t.factors if var is U}
    assert input_lags == {2, 3}


def test_candidates_are_unique_and_within_bounds():
    cs = generate_candidates(3, 2, 2)
    assert len(set(cs.terms)) == len(cs.terms)
    for t in cs.terms:
        assert 1 <= t.degree <= 3
        for var, lag, _ in t.factors:
            assert (1 <= lag <= 2) if var is Y else (1 <= lag <= 2)


def test_hysteresis_variables_enumerated():
    cs = generate_candidates(
        2, 1, 1, variables=(Variable.OUTPUT, Variable.INPUT, Variable.PHI1, Variable.PHI2)
    )
    kinds = {var for t in cs.terms for var, _, _ in t.factors}
    assert kinds == {Variable.OUTPUT, Variable.INPUT, Variable.PHI1, Variable.PHI2}


def test_candidates_reject_a_variable_that_is_not_a_variable():
    with pytest.raises(ParameterError, match="not a Variable: 'y'"):
        generate_candidates(2, 1, 1, variables=("y",))


def test_meta_validation():
    with pytest.raises(ParameterError):
        CandidateMeta(degree=0, n_y=1, n_u=1)
    with pytest.raises(ParameterError):
        CandidateMeta(degree=1, n_y=1, n_u=1, tau_d=2)  # tau_d beyond n_u


@pytest.mark.parametrize("field", ["degree", "n_y", "n_u", "tau_d"])
@pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0), "2", None])
def test_meta_rejects_non_integer_bounds(field, bad):
    bounds = {"degree": 2, "n_y": 2, "n_u": 2, "tau_d": 1, field: bad}
    with pytest.raises(ParameterError, match="invalid meta-parameters"):
        CandidateMeta(**bounds)
    CandidateMeta(**{**bounds, field: np.int64(1)})  # a numpy integer is an integer


def test_model_requires_matching_theta():
    with pytest.raises(ParameterError):
        NarxModel(
            process_terms=(term((Y, 1, 1)),),
            theta=(0.5, 0.1),
            meta=CandidateMeta(degree=1, n_y=1, n_u=1),
        )


def test_model_max_lags():
    m = NarxModel(
        process_terms=(term((Y, 2, 1)), term((U, 3, 1))),
        theta=(0.5, 0.1),
        meta=CandidateMeta(degree=1, n_y=2, n_u=3),
    )
    assert m.max_output_lag == 2
    assert m.max_lag == 3
