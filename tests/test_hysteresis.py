"""Difference signals, exclusion rules, and the unit-sum constraint."""

import numpy as np
import pytest

from narxident import (
    ConstraintError,
    Variable,
    apply_exclusion_rules,
    exclusion_report_text,
    generate_candidates,
    hysteresis_signals,
    preset_models,
    sigma_y_constraint,
    term,
)

Y, U, P1, P2 = Variable.OUTPUT, Variable.INPUT, Variable.PHI1, Variable.PHI2
HYST_VARS = (Y, U, P1, P2)


def test_hysteresis_signals_ramp():
    phi1, phi2 = hysteresis_signals([0.0, 1.0, 2.0])
    assert np.allclose(phi1, [0.0, 1.0, 1.0])
    assert np.allclose(phi2, [0.0, 1.0, 1.0])


def test_hysteresis_signals_constant():
    phi1, phi2 = hysteresis_signals(np.full(5, 3.3))
    assert np.allclose(phi1, 0.0) and np.allclose(phi2, 0.0)


@pytest.mark.parametrize("n", [0, 1])
def test_hysteresis_signals_of_a_short_record(n):
    # phi1(0) = 0 holds at any length; there is no difference to take
    phi1, phi2 = hysteresis_signals(np.full(n, 3.3))
    assert phi1.dtype == phi2.dtype == float
    assert np.array_equal(phi1, np.zeros(n)) and np.array_equal(phi2, np.zeros(n))


def test_hysteresis_signals_sinusoid_sign_flips_at_peaks():
    t = np.arange(200)
    x = np.sin(2 * np.pi * t / 100)
    _, phi2 = hysteresis_signals(x)
    flips = np.where(np.diff(phi2) != 0)[0]
    # the discrete peak (k=25) and trough (k=75) of each period
    assert {26, 76, 126, 176} <= set(flips + 1)


def test_rule_i_removes_output_powers():
    cs = generate_candidates(3, 1, 1, variables=HYST_VARS)
    pruned, removed = apply_exclusion_rules(cs)
    assert term((Y, 1, 2)) in removed
    assert term((Y, 1, 2), (P1, 1, 1)) in removed
    assert term((Y, 1, 1)) in pruned.terms


def test_rule_ii_removes_sign_powers():
    cs = generate_candidates(3, 1, 1, variables=HYST_VARS)
    pruned, removed = apply_exclusion_rules(cs)
    assert term((P2, 1, 2)) in removed
    # even powers of the sign collapse to an indicator, so any term with
    # a squared sign factor shadows a simpler candidate and must go
    assert term((Y, 1, 1), (P2, 1, 2)) in removed
    assert term((P2, 1, 1)) in pruned.terms


def test_rule_iii_removes_phi_free_input_terms():
    cs = generate_candidates(3, 1, 1, variables=HYST_VARS)
    pruned, removed = apply_exclusion_rules(cs)
    assert term((U, 1, 1)) in removed
    assert term((U, 1, 2)) in removed
    assert term((Y, 1, 1), (U, 1, 1)) in removed
    assert term((U, 1, 1), (P1, 1, 1)) in pruned.terms


def test_rules_keep_published_model_terms():
    # every term of the published four-term hysteresis model must survive
    cs = generate_candidates(3, 1, 1, variables=HYST_VARS)
    pruned, _ = apply_exclusion_rules(cs)
    model = preset_models()["pzt_narx"].model
    for t in model.process_terms:
        assert t in pruned.terms, str(t)


def test_valve_published_terms_survive_their_dictionary():
    cs = generate_candidates(3, 2, 1, variables=HYST_VARS)
    pruned, _ = apply_exclusion_rules(cs)
    model = preset_models()["valve_constrained_narx"].model
    for t in model.process_terms:
        assert t in pruned.terms, str(t)


def test_exclusion_report_names_rules():
    cs = generate_candidates(2, 1, 1, variables=HYST_VARS)
    _, removed = apply_exclusion_rules(cs)
    text = exclusion_report_text(removed)
    assert "u(k-1)" in text
    rules = set(removed.values())
    assert rules <= {"rule_i", "rule_ii", "rule_iii"}
    assert len(rules) == 3


def test_sigma_y_constraint_vector():
    terms = (term((Y, 1, 1)), term((Y, 2, 1)), term((P1, 1, 1)),
             term((Y, 2, 1), (P1, 1, 1), (P2, 1, 1)))
    c, b = sigma_y_constraint(terms)
    assert np.allclose(c, [1.0, 1.0, 0.0, 0.0])
    assert b == 1.0


def test_sigma_y_constraint_requires_linear_output_term():
    with pytest.raises(ConstraintError):
        sigma_y_constraint((term((P1, 1, 1)),))
