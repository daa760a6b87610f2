"""FROLS/ERR ranking and information-criterion truncation."""

import dataclasses
import itertools

import numpy as np
import pytest

from narxident import (
    SelectionConfig,
    TimeSeriesData,
    Variable,
    aic_curve,
    bouc_wen_experiment,
    build_regression,
    frols_rank,
    generate_candidates,
    heating_experiment,
    ls_estimate,
    run_identification,
    select_structure,
    term,
)
from narxident import selection
from narxident.errors import NarxError, ParameterError, SingularMatrixError
from narxident.estimation import els_core
from narxident.experiments import make_identification_data

Y, U = Variable.OUTPUT, Variable.INPUT


def synthetic_record(true_terms, theta, seed=0, n=600, noise=0.0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    y = np.zeros(n)
    p = max(t.max_lag for t in true_terms)
    for k in range(p, n):
        acc = 0.0
        for th, t in zip(theta, true_terms):
            val = th
            for var, lag, exp in t.factors:
                sig = y if var is Y else u
                val *= sig[k - lag] ** exp
            acc += val
        y[k] = acc + (noise * rng.standard_normal() if noise else 0.0)
    return TimeSeriesData(u, y, ts=1.0)


def brute_force_first_pick(candidates, data):
    """Single-term ERR maximization by direct evaluation."""
    psi, y_s = build_regression(candidates, data)
    denom = float(y_s @ y_s)
    best, best_err = None, -1.0
    for j, t in enumerate(candidates.terms):
        w = psi[:, j]
        g = float(w @ y_s) / float(w @ w)
        err = g * g * float(w @ w) / denom
        if err > best_err:
            best, best_err = t, err
    return best


TRUE_SYSTEMS = [
    # (terms, parameters): up to 4 true terms from small dictionaries
    ((term((U, 1, 1)),), (2.0,)),
    ((term((Y, 1, 1)), term((U, 1, 1))), (0.5, 1.0)),
    ((term((Y, 1, 1)), term((U, 2, 1)), term((Y, 2, 1))), (0.4, 0.8, -0.2)),
    ((term((Y, 1, 1)), term((U, 1, 1)), term((U, 2, 1), (U, 1, 1)), term((Y, 2, 2))),
     (0.3, 1.2, 0.5, -0.1)),
]


@pytest.mark.parametrize("true_terms,theta", TRUE_SYSTEMS)
def test_frols_oracle_equivalence(true_terms, theta):
    data = synthetic_record(true_terms, theta, seed=7)
    cs = generate_candidates(2, 2, 2)
    assert len(cs.terms) <= 20
    ranking = frols_rank(cs, data)
    k = len(true_terms)
    assert set(ranking.ordered_terms[:k]) == set(true_terms)
    assert ranking.cumulative_err[k - 1] > 1.0 - 1e-8
    assert ranking.ordered_terms[0] == brute_force_first_pick(cs, data)


def test_frols_err_values_properties():
    data = synthetic_record(*TRUE_SYSTEMS[2], seed=1, noise=0.05)
    cs = generate_candidates(2, 2, 2)
    ranking = frols_rank(cs, data)
    assert np.all(ranking.err_values >= -1e-12)
    assert ranking.cumulative_err[-1] <= 1.0 + 1e-9
    # deterministic on identical input
    again = frols_rank(cs, data)
    assert ranking.ordered_terms == again.ordered_terms


def test_frols_skips_degenerate_columns():
    # constant input makes phi-free input terms collinear; ranking must
    # not return duplicate explanatory directions
    rng = np.random.default_rng(0)
    u = np.ones(200)
    y = rng.standard_normal(200)
    data = TimeSeriesData(u, y, ts=1.0)
    cs = generate_candidates(2, 1, 2)
    ranking = frols_rank(cs, data)
    # u(k-1), u(k-2), u(k-1)^2 ... all reduce to the same constant column
    assert len(ranking.ordered_terms) + len(ranking.skipped) == len(cs.terms)
    assert len(ranking.skipped) > 0


def test_aic_penalty_dominates_on_perfect_model():
    # once the variance floor is reached, each extra term adds +2 to J
    true_terms, theta = TRUE_SYSTEMS[1]
    data = synthetic_record(true_terms, theta, seed=2)
    cs = generate_candidates(2, 2, 2)
    ranking = frols_rank(cs, data)
    curve = aic_curve(ranking, data)
    assert curve.argmin == len(true_terms)
    j = curve.j_values
    tail = np.diff(j[len(true_terms):])
    assert np.all(tail > 0)


def test_aic_formula_matches_definition():
    true_terms, theta = TRUE_SYSTEMS[1]
    data = synthetic_record(true_terms, theta, seed=3, noise=0.1)
    cs = generate_candidates(1, 1, 1)
    ranking = frols_rank(cs, data)
    curve = aic_curve(ranking, data, SelectionConfig(sweep_estimator="ls"))
    # recompute J for the 1-term model by hand
    psi, y_s = build_regression((ranking.ordered_terms[0],), data)
    # ls on the full-candidate row frame: rebuild with all candidates to
    # keep the same rows
    psi_all, y_all = build_regression(cs, data)
    j_col = cs.terms.index(ranking.ordered_terms[0])
    col = psi_all[:, [j_col]]
    theta_hat = np.linalg.lstsq(col, y_all, rcond=None)[0]
    var = np.var(y_all - col @ theta_hat)
    expected = len(y_all) * np.log(var) + 2.0
    assert abs(curve.j_values[0] - expected) < 1e-9


def _noisy_ranking():
    true_terms, theta = TRUE_SYSTEMS[2]
    data = synthetic_record(true_terms, theta, seed=5, noise=0.05)
    return frols_rank(generate_candidates(2, 2, 2), data, max_terms=5), data


def test_aic_curve_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("not an estimation failure")

    monkeypatch.setattr(selection, "els_sweep", broken)
    ranking, data = _noisy_ranking()
    with pytest.raises(TypeError):
        aic_curve(ranking, data, SelectionConfig(sweep_estimator="els"))


def test_aic_curve_singular_point_is_nan(monkeypatch):
    els_sweep = selection.els_sweep

    def singular_at_two(*args):
        fits = els_sweep(*args)
        fits[1] = SingularMatrixError("rank deficient", column=1)
        return fits

    monkeypatch.setattr(selection, "els_sweep", singular_at_two)
    ranking, data = _noisy_ranking()
    curve = aic_curve(ranking, data, SelectionConfig(sweep_estimator="els"))
    assert np.isnan(curve.j_values[1])
    assert np.all(np.isfinite(np.delete(curve.j_values, 1)))
    assert curve.converged[1] is False


def test_aic_curve_reports_convergence_per_point(monkeypatch):
    # heating seed 1: most sweep points stop at the ELS iteration cap
    reports = []
    els_sweep = selection.els_sweep

    def recording(*args):
        reports.extend(els_sweep(*args))
        return list(reports)

    monkeypatch.setattr(selection, "els_sweep", recording)
    defn = heating_experiment()
    curve = run_identification(defn, seed=1).curve
    sweep = reports[:len(curve.j_values)]  # one report per sweep point
    assert curve.converged == tuple(r.converged for r in sweep)
    assert all(r.iterations == defn.selection.els.max_iterations
               for r, ok in zip(sweep, curve.converged) if not ok)
    assert not all(curve.converged)


def test_aic_curve_reports_iterations_per_point():
    defn = heating_experiment()
    curve = run_identification(defn, seed=1).curve
    assert len(curve.iterations) == len(curve.j_values)
    cap = defn.selection.els.max_iterations
    for ok, it, j in zip(curve.converged, curve.iterations, curve.j_values):
        assert ok is not (it == 0 or it == cap)
        assert (it == 0) == bool(np.isnan(j))


def _per_prefix_reference(ranking, data, config):
    """(J, converged, iterations) of each size from its own estimator call."""
    psi, y_s = build_regression(ranking.candidates, data)
    cols = [ranking.candidates.terms.index(t) for t in ranking.ordered_terms]
    points = []
    for n_theta in range(1, len(ranking) + 1):
        sub = psi[:, cols[:n_theta]]
        try:
            if config.sweep_estimator == "els":
                report = els_core(sub, y_s, config.n_noise_terms, config.els)
            else:
                report = ls_estimate(sub, y_s)
        except (NarxError, np.linalg.LinAlgError):
            points.append((np.nan, False, 0))
            continue
        var = max(float(np.var(y_s - sub @ report.theta)), np.finfo(float).tiny)
        points.append((len(y_s) * np.log(var) + 2.0 * n_theta, report.converged,
                       report.iterations))
    return points


def _assert_sweep_matches_per_prefix(ranking, data, config):
    curve = aic_curve(ranking, data, config)
    ref = _per_prefix_reference(ranking, data, config)
    j_ref = np.array([p[0] for p in ref])
    assert np.array_equal(np.isnan(curve.j_values), np.isnan(j_ref))
    ok = ~np.isnan(j_ref)
    assert np.all(np.abs(curve.j_values[ok] - j_ref[ok])
                  <= 1e-9 * np.max(np.abs(j_ref[ok]), initial=0.0))
    assert curve.converged == tuple(p[1] for p in ref)
    assert curve.iterations == tuple(p[2] for p in ref)
    return curve


@pytest.mark.parametrize("make", [heating_experiment, bouc_wen_experiment])
def test_aic_sweep_matches_per_prefix_estimation(make):
    defn = make()
    data, _ = make_identification_data(defn, seed=1)
    ranking = frols_rank(defn.candidates, data)
    els = dataclasses.replace(defn.selection, sweep_estimator="els")
    _assert_sweep_matches_per_prefix(ranking, data, els)
    _assert_sweep_matches_per_prefix(ranking, data, SelectionConfig(sweep_estimator="ls"))


def test_aic_curve_least_squares_points_converge():
    ranking, data = _noisy_ranking()
    curve = aic_curve(ranking, data, SelectionConfig(sweep_estimator="ls"))
    assert curve.converged == (True,) * len(ranking)


def test_select_structure_recovers_true_model():
    true_terms, theta = TRUE_SYSTEMS[2]
    data = synthetic_record(true_terms, theta, seed=4)
    cs = generate_candidates(2, 2, 2)
    model, ranking, curve, report = select_structure(
        cs, data, config=SelectionConfig(estimator="ls", n_noise_terms=0)
    )
    assert curve.argmin == len(true_terms)
    assert set(model.process_terms) == set(true_terms)
    matched = dict(zip(model.process_terms, model.theta))
    for t, th in zip(true_terms, theta):
        assert abs(matched[t] - th) < 1e-8


def test_selection_config_validation():
    with pytest.raises(ParameterError):
        SelectionConfig(estimator="ridge")
    with pytest.raises(ParameterError):
        SelectionConfig(sweep_estimator="ridge")
    for bad in (-1, 1.5, True):
        with pytest.raises(ParameterError):
            SelectionConfig(n_noise_terms=bad)
