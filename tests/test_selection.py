"""FROLS/ERR ranking and information-criterion truncation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narxident import (
    SelectionConfig,
    TimeSeriesData,
    Variable,
    aic_curve,
    bouc_wen_experiment,
    build_regression,
    default_config,
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

# a division by a zero border or column norm fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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



@pytest.mark.parametrize("bad", [0, -3, 2.5, True, 15, "3"])
def test_frols_rejects_bad_max_terms(bad):
    data = synthetic_record(*TRUE_SYSTEMS[1])
    with pytest.raises(ParameterError):
        frols_rank(generate_candidates(2, 2, 2), data, max_terms=bad)  # 14 candidates


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
def test_frols_rejects_bad_err_floor(bad):
    data = synthetic_record(*TRUE_SYSTEMS[1])
    with pytest.raises(ParameterError):
        frols_rank(generate_candidates(2, 2, 2), data, err_floor=bad)


def _reference_frols(candidates, psi, y_s, max_terms, err_floor):
    """The scalar-loop FROLS: score and deflate the remaining columns one by
    one.  Returns (ordered terms, ERR values, skipped terms)."""
    order = sorted(range(len(candidates.terms)), key=lambda i: candidates.terms[i].sort_key())
    terms = [candidates.terms[i] for i in order]
    work = psi[:, order].copy()
    yty = float(y_s @ y_s)
    norms0 = np.sum(work ** 2, axis=0)
    remaining = list(range(len(terms)))
    selected, err_values, skipped, basis = [], [], [], []
    while remaining and len(selected) < max_terms:
        best_j, best_err = None, -1.0
        for j in remaining:
            w = work[:, j]
            ww = float(w @ w)
            if ww <= 1e-12 * max(norms0[j], 1.0):
                continue
            err = (float(w @ y_s) ** 2) / (ww * yty)
            if err > best_err + 1e-15:
                best_err, best_j = err, j
        if best_j is None:
            skipped.extend(remaining)
            break
        if best_err < err_floor:
            break
        w = work[:, best_j]
        for q in basis:
            w = w - (q @ w) * q
        q = w / np.linalg.norm(w)
        basis.append(q)
        selected.append(best_j)
        err_values.append((float(w @ y_s) ** 2) / (float(w @ w) * yty))
        remaining.remove(best_j)
        proj = q @ work[:, remaining]
        work[:, remaining] -= np.outer(q, proj)
    return (tuple(terms[j] for j in selected), np.array(err_values),
            tuple(terms[j] for j in skipped))


def _assert_frols_matches_reference(candidates, data, psi, y_s, max_terms=None,
                                    err_floor=1e-10):
    ranking = frols_rank(candidates, data, max_terms, err_floor)
    if max_terms is None:
        max_terms = min(30, len(candidates))
    terms, err_values, skipped = _reference_frols(candidates, psi, y_s, max_terms, err_floor)
    assert ranking.ordered_terms == terms
    assert ranking.skipped == skipped
    assert np.all(np.abs(ranking.err_values - err_values) <= 1e-9 * np.abs(err_values))


@pytest.mark.parametrize("name, seed", [("heating", s) for s in range(5)] + [("bouc_wen", 0)])
def test_frols_matches_scalar_loop_reference(name, seed):
    config = default_config(name)
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    _assert_frols_matches_reference(config.candidates, data, psi, y_s)


@given(st.integers(0, 30), st.integers(0, 3), st.integers(0, 3), st.booleans(),
       st.integers(1, 14), st.sampled_from([0.0, 1e-10, 1e-3]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_frols_matches_reference_on_random_dictionaries(extra_rows, n_dup, n_const, zero,
                                                        max_terms, err_floor, seed):
    # columns duplicated (some negated), constant columns of several
    # scales (their ERRs tie up to rounding), and an all-zero column
    candidates = generate_candidates(2, 2, 2)  # 14 terms
    n = len(candidates)
    rng = np.random.default_rng(seed)
    m = n + 1 + extra_rows
    psi = rng.standard_normal((m, n))
    cols = rng.permutation(n)
    for i in range(n_dup):
        psi[:, cols[i]] = rng.choice([-1.0, 1.0]) * psi[:, cols[n_dup + i]]
    for i in range(2 * n_dup, 2 * n_dup + n_const):
        psi[:, cols[i]] = rng.choice([0.5, 1.0, 3.0])
    if zero:
        psi[:, cols[-1]] = 0.0
    y_s = psi @ (rng.standard_normal(n) * rng.integers(0, 2, n)) + rng.standard_normal(m)
    data = synthetic_record(*TRUE_SYSTEMS[0])  # replaced by the matrix above
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "build_regression", lambda *args: (psi, y_s))
        _assert_frols_matches_reference(candidates, data, psi, y_s, max_terms, err_floor)


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
