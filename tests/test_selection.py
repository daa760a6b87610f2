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
    select_structure,
    term,
)
from narxident import selection
from narxident.errors import ParameterError
from narxident.benchmarks import HEATING_SYSTEM, simulate_hammerstein
from narxident.estimation import ElsConfig, lagged
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
    def broken(*args, **kwargs):
        raise TypeError("not an estimation failure")

    ranking, regression = _noisy_ranking()
    monkeypatch.setattr(selection, "_qr", broken)
    with pytest.raises(TypeError):
        aic_curve(ranking, *regression, SelectionConfig(n_noise_terms=1))


def _ranking_of_columns(n):
    """A ranking of columns 0..n-1 in that order; aic_curve reads its columns."""
    return selection.ErrRanking(ordered_terms=tuple(range(n)), err_values=np.zeros(n),
                                columns=tuple(range(n)))


def _two_stage_costs(ranked, y_s, k):
    """Each size's N ln var(y - Psi_s theta_s) + 2 s by np.linalg.lstsq: theta_s
    from the fit of [Xi Psi_s], Xi the lags 1..k of the residual of the longest
    prefix's fit, which must pass the rank and row checks."""
    m, n = ranked.shape
    e = y_s - ranked @ np.linalg.lstsq(ranked, y_s, rcond=None)[0]
    xi = lagged(e, k)
    costs = []
    for s in range(1, n + 1):
        theta = np.linalg.lstsq(np.column_stack([xi, ranked[:, :s]]), y_s, rcond=None)[0][k:]
        costs.append(m * np.log(np.var(y_s - ranked[:, :s] @ theta)) + 2.0 * s)
    return np.array(costs)


def _random_regression(seed, m, n):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((m, n)) * np.logspace(0, 2, n)
    e = rng.standard_normal(m + 1)
    return psi, psi @ rng.standard_normal(n) + e[1:] + 0.6 * e[:-1]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_aic_curve_is_the_two_stage_least_squares_cost(k, seed):
    psi, y_s = _random_regression(seed, 60 + 40 * seed, 4 + 3 * seed)
    cols = np.random.default_rng(seed).permutation(psi.shape[1])
    curve = aic_curve(dataclasses.replace(_ranking_of_columns(len(cols)), columns=tuple(cols)),
                      psi, y_s, SelectionConfig(n_noise_terms=k))
    want = _two_stage_costs(psi[:, cols], y_s, k)
    assert np.all(np.isfinite(curve.j_values))
    assert np.allclose(curve.j_values, want, rtol=1e-9, atol=0.0)


def test_aic_curve_without_noise_columns_is_the_ls_estimate_prefix_costs():
    psi, y_s = _random_regression(7, 80, 9)
    curve = aic_curve(_ranking_of_columns(9), psi, y_s, SelectionConfig(n_noise_terms=0))
    want = [len(y_s) * np.log(ls_estimate(psi[:, :s], y_s).process_variance) + 2.0 * s
            for s in range(1, 10)]
    assert np.allclose(curve.j_values, want, rtol=1e-9, atol=0.0)


def test_aic_curve_singular_point_is_nan():
    # a duplicated column fails the rank check from its rank on, for every k;
    # stage 1 fits the prefix before it
    psi, y_s = _random_regression(3, 120, 8)
    psi[:, 5] = psi[:, 2]
    for k in (0, 1, 2):
        curve = aic_curve(_ranking_of_columns(8), psi, y_s, SelectionConfig(n_noise_terms=k))
        assert np.array_equal(np.isnan(curve.j_values), np.arange(8) >= 5)
        if k:
            want = _two_stage_costs(psi[:, :5], y_s, k)
            assert np.allclose(curve.j_values[:5], want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_aic_curve_sizes_short_of_rows_are_nan(k):
    # a size with noise columns needs s + k + 2 rows, one without s
    m = 12
    psi, y_s = _random_regression(k, m, 11)
    curve = aic_curve(_ranking_of_columns(11), psi, y_s, SelectionConfig(n_noise_terms=k))
    top = m - k - 2 if k else 11
    assert np.array_equal(np.isnan(curve.j_values), np.arange(1, 12) > top)
    if k:
        want = _two_stage_costs(psi[:, :top], y_s, k)
        assert np.allclose(curve.j_values[:top], want, rtol=1e-9, atol=0.0)
    none = aic_curve(_ranking_of_columns(11), psi[:k + 2], y_s[:k + 2],
                     SelectionConfig(n_noise_terms=k))
    assert np.all(np.isnan(none.j_values)) == bool(k)


@pytest.mark.parametrize("make", [heating_experiment, bouc_wen_experiment])
def test_aic_sweep_matches_per_prefix_estimation(make):
    # the preset's noise column, and least squares with none
    defn = make()
    data, _ = make_identification_data(defn, seed=1)
    psi, y_s = build_regression(defn.candidates, data)
    ranking = frols_rank(defn.candidates, psi, y_s)
    ranked = psi.take(ranking.columns, axis=1)
    for k in (defn.selection.n_noise_terms, 0):
        curve = aic_curve(ranking, psi, y_s, SelectionConfig(n_noise_terms=k))
        assert np.allclose(curve.j_values, _two_stage_costs(ranked, y_s, k), rtol=1e-9, atol=0.0)


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
    # the curve scores the process residual y - Psi_s theta_s of each
    # two-stage fit, not its innovation residual, which also takes Xi phi out
    config = default_config(name)
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    ranking = frols_rank(config.candidates, psi, y_s)
    ranked = psi.take(ranking.columns, axis=1)
    curve = aic_curve(ranking, psi, y_s, config.selection)
    xi = lagged(y_s - ranked @ np.linalg.lstsq(ranked, y_s, rcond=None)[0], 1)
    for s, j in zip(range(1, len(ranking) + 1), curve.j_values):
        a = np.column_stack([xi, ranked[:, :s]])
        fit = np.linalg.lstsq(a, y_s, rcond=None)[0]
        process, innovation = y_s - ranked[:, :s] @ fit[1:], y_s - a @ fit
        assert j == pytest.approx(len(y_s) * np.log(np.var(process)) + 2.0 * s, rel=1e-9)
        assert np.var(innovation) < np.var(process)


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
        model, ranking, curve, report = select_structure(candidates, data)
        assert np.all(np.isfinite(curve.j_values))
        assert curve.argmin == 8 and truth <= set(model.process_terms)
        # the ranked list's least-squares fit is exact, so the curve is the
        # least-squares one, bit for bit
        ls_curve = aic_curve(ranking, *build_regression(candidates, data),
                             SelectionConfig(n_noise_terms=0))
        assert np.array_equal(curve.j_values, ls_curve.j_values)
        assert (report.iterations, report.converged) == (1, True)
        assert np.array_equal(report.noise_theta, [0.0])


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
