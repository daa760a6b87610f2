"""FROLS/ERR ranking and information-criterion truncation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from narxident.benchmarks import HEATING_SYSTEM, simulate_hammerstein
from narxident.estimation import ElsConfig, els_core, els_sweep
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
    ranking = frols_rank(cs, *build_regression(cs, data))
    k = len(true_terms)
    assert set(ranking.ordered_terms[:k]) == set(true_terms)
    assert ranking.cumulative_err[k - 1] > 1.0 - 1e-8
    assert ranking.ordered_terms[0] == brute_force_first_pick(cs, data)


def test_frols_err_values_properties():
    data = synthetic_record(*TRUE_SYSTEMS[2], seed=1, noise=0.05)
    cs = generate_candidates(2, 2, 2)
    ranking = frols_rank(cs, *build_regression(cs, data))
    assert np.all(ranking.err_values >= -1e-12)
    assert ranking.cumulative_err[-1] <= 1.0 + 1e-9
    # deterministic on identical input
    again = frols_rank(cs, *build_regression(cs, data))
    assert ranking.ordered_terms == again.ordered_terms


def test_frols_skips_degenerate_columns():
    # constant input makes phi-free input terms collinear; ranking must
    # not return duplicate explanatory directions
    rng = np.random.default_rng(0)
    u = np.ones(200)
    y = rng.standard_normal(200)
    data = TimeSeriesData(u, y, ts=1.0)
    cs = generate_candidates(2, 1, 2)
    ranking = frols_rank(cs, *build_regression(cs, data))
    # u(k-1), u(k-2), u(k-1)^2 ... all reduce to the same constant column
    assert len(ranking.ordered_terms) + len(ranking.skipped) == len(cs.terms)
    assert len(ranking.skipped) > 0


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e3])
def test_frols_ranking_does_not_depend_on_the_data_scale(scale):
    # ERR is a ratio of energies, so scaling u and y leaves it unchanged; a
    # zero-column floor of 1e-12 absolute energy skipped 50 of 55 heating
    # candidates at 1e-3 and 44 at 1e-2
    config = heating_experiment()
    data, _ = make_identification_data(config, 1)
    ranking = frols_rank(config.candidates, *build_regression(config.candidates, data))
    scaled = TimeSeriesData(scale * data.u, scale * data.y, ts=data.ts)
    got = frols_rank(config.candidates, *build_regression(config.candidates, scaled))
    assert got.ordered_terms == ranking.ordered_terms and got.skipped == ()
    assert np.all(np.abs(got.err_values - ranking.err_values) <= 1e-9 * ranking.err_values)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, 15, "3"])
def test_frols_rejects_bad_max_terms(bad):
    data = synthetic_record(*TRUE_SYSTEMS[1])
    cs = generate_candidates(2, 2, 2)  # 14 candidates
    with pytest.raises(ParameterError):
        frols_rank(cs, *build_regression(cs, data), max_terms=bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3, None, "1e-3", True])
def test_frols_rejects_bad_err_floor(bad):
    data = synthetic_record(*TRUE_SYSTEMS[1])
    cs = generate_candidates(2, 2, 2)
    with pytest.raises(ParameterError):
        frols_rank(cs, *build_regression(cs, data), err_floor=bad)


@pytest.mark.parametrize("rows, cols", [(40, 13), (40, 15), (39, 14)])
def test_frols_rejects_a_matrix_that_does_not_fit_the_candidates(rows, cols):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="column per candidate"):
        frols_rank(generate_candidates(2, 2, 2), rng.standard_normal((rows, cols)),
                   rng.standard_normal(40))


def _rounding_tie(work, norms0, errs, i, j):
    """Whether deflated columns i and j tie exactly and rounding can order them.

    Columns along one direction (the sine of their angle at most 1e-6) have
    the same ERR.  To first order, rounding moves the ERR of a column w
    deflated from a column c by 2 eps |c| / (|w| sqrt(ERR)) relative; when
    that reaches a tenth of the 1e-10 tie tolerance for either column, the
    two scans may break the tie either way.
    """
    a, b = work[:, i], work[:, j]
    if (a @ a) * (b @ b) - (a @ b) ** 2 > 1e-12 * (a @ a) * (b @ b):
        return False
    eps = np.finfo(float).eps
    return any(2 * eps * np.sqrt(norms0[k] / (work[:, k] @ work[:, k]))
               > 1e-11 * np.sqrt(errs[k]) for k in (i, j))


def _reference_frols(candidates, psi, y_s, max_terms, err_floor, follow=()):
    """The scalar-loop FROLS: score and deflate the remaining columns one by
    one.  Returns (ordered terms, ERR values, skipped terms).

    Where its pick and ``follow[i]``, the pick of a ranking it is compared
    with, tie exactly but rounding can order them (:func:`_rounding_tie`;
    for instance when the rows run out and every remaining column lies
    along one direction), it takes ``follow[i]`` and reports its own ERR
    for it.
    """
    order = sorted(range(len(candidates.terms)), key=lambda i: candidates.terms[i].sort_key())
    terms = [candidates.terms[i] for i in order]
    work = psi[:, order].copy()
    yty = float(y_s @ y_s)
    norms0 = np.sum(work ** 2, axis=0)
    remaining = list(range(len(terms)))
    selected, err_values, skipped, basis = [], [], [], []
    while remaining and len(selected) < max_terms:
        best_j, best_err, errs = None, -1.0, {}
        for j in remaining:
            w = work[:, j]
            ww = float(w @ w)
            if ww <= 1e-12 * norms0[j]:
                continue
            errs[j] = err = (float(w @ y_s) ** 2) / (ww * yty)
            if err > best_err * (1.0 + 1e-10):
                best_err, best_j = err, j
        if best_j is None:
            skipped.extend(remaining)
            break
        if best_err < err_floor:
            break
        if len(selected) < len(follow) and follow[len(selected)] in terms:
            j = terms.index(follow[len(selected)])
            if j in errs and _rounding_tie(work, norms0, errs, j, best_j):
                best_j = j
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


def _assert_frols_matches_reference(candidates, psi, y_s, max_terms=None, err_floor=1e-10):
    ranking = frols_rank(candidates, psi, y_s, max_terms, err_floor)
    if max_terms is None:
        max_terms = min(30, len(candidates))
    got = ranking.ordered_terms
    terms, err_values, skipped = _reference_frols(candidates, psi, y_s, max_terms, err_floor,
                                                  follow=got)
    assert got == terms
    assert ranking.skipped == skipped
    assert np.all(np.abs(ranking.err_values - err_values) <= 1e-9 * np.abs(err_values))
    # each ranked term's column in the matrix ranked
    assert len(ranking.columns) == len(got)
    for c, t in zip(ranking.columns, got):
        assert candidates.terms[c] == t


@pytest.mark.parametrize("name, seed", [("heating", s) for s in range(5)] + [("bouc_wen", 0)])
def test_frols_matches_scalar_loop_reference(name, seed):
    config = default_config(name)
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    _assert_frols_matches_reference(config.candidates, psi, y_s)


def test_frols_matches_reference_on_a_tall_dictionary():
    # more rows than one QR block, and not a multiple of it: R of [Psi y] by row blocks
    from narxident.estimation import _QR_BLOCK_ROWS

    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, 2 * _QR_BLOCK_ROWS + 360)
    y = np.zeros_like(u)
    for k in range(2, len(u)):
        y[k] = 0.5 * y[k - 1] - 0.2 * y[k - 2] + u[k - 1] + 0.3 * u[k - 2] ** 2
    y += 0.01 * rng.standard_normal(len(u))
    candidates = generate_candidates(2, 2, 2)
    psi, y_s = build_regression(candidates, TimeSeriesData(u, y, ts=1.0))
    assert len(y_s) > 2 * _QR_BLOCK_ROWS and len(y_s) % _QR_BLOCK_ROWS
    _assert_frols_matches_reference(candidates, psi, y_s)


@given(st.integers(-13, 30), st.integers(0, 3), st.integers(0, 3), st.booleans(),
       st.integers(1, 14), st.sampled_from([0.0, 1e-10, 1e-3]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
# draws where rounding broke an exact tie: after m - 1 picks on m rows
# every remaining column lies along one direction
@example(-9, 1, 1, True, 7, 0.0, 1450433633)
@example(-7, 1, 1, False, 11, 1e-10, 3070421867)
# draws where the last pick's ERR, scored against the undeflated y, was
# 1e-9 to 1e-8 (relative) off: y is now deflated with the rows
@example(-7, 0, 2, False, 10, 0.0, 2811572856)
@example(-7, 0, 1, False, 12, 0.0, 693758334)
@example(-9, 0, 2, False, 7, 0.0, 3458848446)
@example(-9, 0, 2, True, 7, 0.0, 3458848446)
@example(-8, 2, 1, True, 12, 0.0, 1497940899)
def test_frols_matches_reference_on_random_dictionaries(extra_rows, n_dup, n_const, zero,
                                                        max_terms, err_floor, seed):
    # columns duplicated (some negated), constant columns of several
    # scales (their ERRs tie up to rounding), an all-zero column, down to 2
    # rows, where R has fewer rows than candidates + 1, and the candidates
    # out of canonical order
    rng = np.random.default_rng(seed)
    candidates = generate_candidates(2, 2, 2)  # 14 terms
    candidates = dataclasses.replace(
        candidates, terms=tuple(candidates.terms[i] for i in rng.permutation(len(candidates))))
    n = len(candidates)
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
    _assert_frols_matches_reference(candidates, psi, y_s, max_terms, err_floor)


@pytest.mark.parametrize("name, seed", [("heating", s) for s in range(5)] + [("bouc_wen", 0)])
def test_frols_err_matches_householder_qr_of_the_ranked_columns(name, seed):
    # an oracle that shares no code with FROLS: with Q from a Householder QR
    # of the ranked columns in rank order, ERR_t = (Q^T y)_t^2 / y^T y
    config = default_config(name)
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    ranking = frols_rank(config.candidates, psi, y_s)
    q, _ = np.linalg.qr(psi[:, list(ranking.columns)])
    oracle = (q.T @ y_s) ** 2 / float(y_s @ y_s)
    assert np.all(np.abs(ranking.err_values - oracle) <= 1e-8 * oracle)


@pytest.mark.parametrize("where", ["psi", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frols_rejects_non_finite_input(where, bad):
    rng = np.random.default_rng(0)
    psi, y_s = rng.standard_normal((50, 14)), rng.standard_normal(50)
    if where == "psi":
        psi[7, 3] = bad
    else:
        y_s[7] = bad
    with pytest.raises(ParameterError, match="finite"):
        frols_rank(generate_candidates(2, 2, 2), psi, y_s)


@pytest.mark.parametrize("m", [5, 40])
def test_frols_rejects_zero_target(m):
    # R has m rows for m < 15, and its target column is zero like y
    psi = np.random.default_rng(0).standard_normal((m, 14))
    with pytest.raises(ParameterError, match="zero energy"):
        frols_rank(generate_candidates(2, 2, 2), psi, np.zeros(m))


def test_aic_penalty_dominates_on_perfect_model():
    # once the variance floor is reached, each extra term adds +2 to J
    true_terms, theta = TRUE_SYSTEMS[1]
    data = synthetic_record(true_terms, theta, seed=2)
    cs = generate_candidates(2, 2, 2)
    psi, y_s = build_regression(cs, data)
    ranking = frols_rank(cs, psi, y_s)
    curve = aic_curve(ranking, psi, y_s, SelectionConfig(n_noise_terms=0))
    assert curve.argmin == len(true_terms)
    j = curve.j_values
    tail = np.diff(j[len(true_terms):])
    assert np.all(tail > 0)


def test_aic_formula_matches_definition():
    true_terms, theta = TRUE_SYSTEMS[1]
    data = synthetic_record(true_terms, theta, seed=3, noise=0.1)
    cs = generate_candidates(1, 1, 1)
    psi, y_s = build_regression(cs, data)
    ranking = frols_rank(cs, psi, y_s)
    curve = aic_curve(ranking, psi, y_s, SelectionConfig(n_noise_terms=0))
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
    """A 5-term ranking and the regression (psi, y_s) it was computed on."""
    true_terms, theta = TRUE_SYSTEMS[2]
    data = synthetic_record(true_terms, theta, seed=5, noise=0.05)
    cs = generate_candidates(2, 2, 2)
    regression = build_regression(cs, data)
    return frols_rank(cs, *regression, max_terms=5), regression


def test_aic_curve_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("not an estimation failure")

    monkeypatch.setattr(selection, "els_sweep", broken)
    ranking, regression = _noisy_ranking()
    with pytest.raises(TypeError):
        aic_curve(ranking, *regression, SelectionConfig(n_noise_terms=1))


def test_aic_curve_singular_point_is_nan(monkeypatch):
    els_sweep = selection.els_sweep

    def singular_at_two(*args):
        fits = els_sweep(*args)
        fits[1] = SingularMatrixError("rank deficient", column=1)
        return fits

    monkeypatch.setattr(selection, "els_sweep", singular_at_two)
    ranking, regression = _noisy_ranking()
    curve = aic_curve(ranking, *regression, SelectionConfig(n_noise_terms=1))
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


def _per_prefix_reference(candidates, ranking, psi, y_s, config):
    """(J, converged, iterations) of each size from its own estimator call."""
    cols = [candidates.terms.index(t) for t in ranking.ordered_terms]
    points = []
    for n_theta in range(1, len(ranking) + 1):
        sub = psi[:, cols[:n_theta]]
        try:
            if config.n_noise_terms:
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


def _assert_sweep_matches_per_prefix(candidates, ranking, psi, y_s, config):
    curve = aic_curve(ranking, psi, y_s, config)
    ref = _per_prefix_reference(candidates, ranking, psi, y_s, config)
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
    psi, y_s = build_regression(defn.candidates, data)
    ranking = frols_rank(defn.candidates, psi, y_s)
    for config in (defn.selection, SelectionConfig(n_noise_terms=0)):
        _assert_sweep_matches_per_prefix(defn.candidates, ranking, psi, y_s, config)


def test_no_noise_columns_is_least_squares():
    # the sweep is checked against per-prefix ls_estimate above
    defn = heating_experiment()
    data, _ = make_identification_data(defn, seed=4)
    config = SelectionConfig(n_noise_terms=0)
    model, _, curve, report = select_structure(defn.candidates, data, config)
    ref = ls_estimate(*build_regression(model.process_terms, data))
    assert np.array_equal(report.theta, ref.theta)
    assert np.array_equal(report.residuals, ref.residuals)
    assert (report.iterations, report.converged, report.noise_theta.size) == (1, True, 0)
    # the extended-least-squares settings change nothing without noise columns
    loose = dataclasses.replace(config, els=ElsConfig(zeta=1e-2, max_iterations=1))
    _, _, curve_loose, report_loose = select_structure(defn.candidates, data, loose)
    assert np.array_equal(curve_loose.j_values, curve.j_values, equal_nan=True)
    assert np.array_equal(report_loose.theta, report.theta)


@pytest.mark.parametrize("name, seed", [("heating", 7), ("bouc_wen", 2)])
def test_sweep_fits_carry_the_variance_the_criterion_scores(name, seed):
    # each fit's variance is that of y - Psi theta on its prefix of the
    # ranked columns, bit for bit, and the curve is N ln(var) + 2 s of it
    config = default_config(name)
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    ranking = frols_rank(config.candidates, psi, y_s)
    ranked = psi.take(ranking.columns, axis=1)
    sizes = np.arange(1, len(ranking) + 1)
    fits = els_sweep(ranked, y_s, sizes, config.selection.n_noise_terms, config.selection.els)
    curve = aic_curve(ranking, psi, y_s, config.selection)
    for s, fit, j in zip(sizes, fits, curve.j_values):
        var = np.var(y_s - ranked[:, :s] @ fit.theta)
        assert fit.process_variance == var
        assert j == len(y_s) * np.log(var) + 2.0 * s


def test_white_input_exact_fit_is_scored_and_selected():
    # noise-free heating under a white input on the lag-2 dictionary, which
    # holds the six truth terms and cannot rewrite them: the prefix that
    # holds the truth fits exactly, and it is scored as its least-squares
    # fit instead of failing the rank check on its noise column
    truth = {term((var, lag, exp)) for var, lag, exp in
             [(Y, 1, 1), (Y, 2, 1), (U, 1, 1), (U, 1, 2), (U, 2, 1), (U, 2, 2)]}
    candidates = generate_candidates(3, 2, 2, tau_d=1)
    for seed in range(10):
        u = np.random.default_rng(seed).uniform(0.1, 0.9, 2000)
        data = TimeSeriesData(u, simulate_hammerstein(HEATING_SYSTEM, u), ts=1.0)
        model, _, curve, report = select_structure(candidates, data)
        assert np.all(np.isfinite(curve.j_values))
        assert curve.argmin == 8 and truth <= set(model.process_terms)
        assert (curve.iterations[7], curve.converged[7]) == (1, True)
        assert (report.iterations, report.converged) == (1, True)
        assert np.array_equal(report.noise_theta, [0.0])


def test_aic_curve_least_squares_points_converge():
    ranking, regression = _noisy_ranking()
    curve = aic_curve(ranking, *regression, SelectionConfig(n_noise_terms=0))
    assert curve.converged == (True,) * len(ranking)


def test_select_structure_recovers_true_model():
    true_terms, theta = TRUE_SYSTEMS[2]
    data = synthetic_record(true_terms, theta, seed=4)
    cs = generate_candidates(2, 2, 2)
    model, ranking, curve, report = select_structure(
        cs, data, config=SelectionConfig(n_noise_terms=0)
    )
    assert curve.argmin == len(true_terms)
    assert set(model.process_terms) == set(true_terms)
    matched = dict(zip(model.process_terms, model.theta))
    for t, th in zip(true_terms, theta):
        assert abs(matched[t] - th) < 1e-8


def test_select_structure_builds_one_regression_of_the_dictionary(monkeypatch):
    # the ranking and the sweep share the dictionary's regression; the
    # final fit builds its own from the chosen terms
    calls = []

    def counting(candidates, data):
        calls.append(candidates)
        return build_regression(candidates, data)

    monkeypatch.setattr(selection, "build_regression", counting)
    cs = generate_candidates(2, 2, 2)
    data = synthetic_record(*TRUE_SYSTEMS[2], seed=4, noise=0.05)
    model, *_ = select_structure(cs, data)
    assert len(calls) == 2
    assert calls[0] is cs and tuple(calls[1]) == model.process_terms


def test_selection_config_validation():
    # the estimator follows from the noise columns; it is not a setting
    with pytest.raises(TypeError):
        SelectionConfig(estimator="ls")
    assert SelectionConfig(n_noise_terms=0).estimator == "ls"
    assert SelectionConfig(n_noise_terms=2).estimator == "els"
    for bad in (-1, 1.5, True):
        with pytest.raises(ParameterError):
            SelectionConfig(n_noise_terms=bad)
