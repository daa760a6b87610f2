"""Least squares, extended least squares, and constrained least squares."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from narxident import (
    ConstraintError,
    ElsConfig,
    NarxError,
    ParameterError,
    SingularMatrixError,
    TimeSeriesData,
    Variable,
    build_regression,
    constrained_ls_estimate,
    frols_rank,
    generate_candidates,
    ls_estimate,
    term,
)
from narxident.benchmarks import HEATING_SYSTEM
from narxident.experiments import heating_experiment, make_identification_data
from narxident import estimation
from narxident.estimation import _QR_BLOCK_ROWS, _qr, els_core, els_sweep

U = Variable.INPUT

# a division by a zero border or column norm fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_ls_exact_fit():
    u = np.linspace(0.1, 2.0, 40)
    data = TimeSeriesData(u, np.r_[0.0, 2.0 * u[:-1]], ts=1.0)
    psi, y_s = build_regression((term((U, 1, 1)),), data)
    report = ls_estimate(psi, y_s)
    assert abs(report.theta[0] - 2.0) < 1e-12
    assert report.residual_variance < 1e-24


def test_ls_residual_orthogonality():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((500, 6))
    y = psi @ rng.standard_normal(6) + 0.1 * rng.standard_normal(500)
    report = ls_estimate(psi, y)
    rel = np.abs(psi.T @ report.residuals) / (
        np.linalg.norm(psi, axis=0) * np.linalg.norm(report.residuals)
    )
    assert np.max(rel) < 1e-8


def test_ls_matches_lstsq():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((100, 4))
    y = rng.standard_normal(100)
    report = ls_estimate(psi, y)
    expected, *_ = np.linalg.lstsq(psi, y, rcond=None)
    assert np.allclose(report.theta, expected, atol=1e-10)


def test_ls_rejects_rank_deficiency_with_column():
    psi = np.ones((10, 2))
    with pytest.raises(SingularMatrixError) as exc:
        ls_estimate(psi, np.arange(10.0))
    assert exc.value.column == 1


def test_ls_rejects_underdetermined():
    with pytest.raises(ParameterError):
        ls_estimate(np.ones((2, 3)), np.ones(2))


def test_static_polynomial_refit_recovers_hammerstein_nonlinearity():
    # quadratic LS on noise-free static (u, v) pairs returns the exact
    # polynomial coefficients of the static block
    u = np.linspace(0.0, 1.0, 30)
    v = HEATING_SYSTEM.p1 * u ** 2 + HEATING_SYSTEM.p2 * u
    psi = np.column_stack([u ** 2, u])
    report = ls_estimate(psi, v)
    assert abs(report.theta[0] - HEATING_SYSTEM.p1) < 1e-12
    assert abs(report.theta[1] - HEATING_SYSTEM.p2) < 1e-12


def _armax_record(seed, n=2000, theta=(0.7, 1.5), c=0.8, sigma=0.3):
    """y(k) = a*y(k-1) + b*u(k-1) + e(k) + c*e(k-1): colored noise biases LS."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    e = sigma * rng.standard_normal(n)
    y = np.zeros(n)
    for k in range(1, n):
        y[k] = theta[0] * y[k - 1] + theta[1] * u[k - 1] + e[k] + c * e[k - 1]
    return TimeSeriesData(u, y, ts=1.0)


def test_els_beats_ls_on_armax():
    true = np.array([0.7, 1.5])
    cs = generate_candidates(1, 1, 1)
    ls_err, els_err = [], []
    for seed in range(30):
        data = _armax_record(seed)
        psi, y_s = build_regression(cs, data)
        ls_err.append(np.mean(np.abs(ls_estimate(psi, y_s).theta - true)))
        els_err.append(np.mean(np.abs(els_core(psi, y_s, 1).theta - true)))
    assert np.mean(els_err) < np.mean(ls_err)


def test_els_converges_and_reports():
    data = _armax_record(3)
    cs = generate_candidates(1, 1, 1)
    psi, y_s = build_regression(cs, data)
    report = els_core(psi, y_s, n_noise_terms=1, config=ElsConfig(zeta=1e-4))
    assert report.converged
    assert report.iterations <= 30
    assert len(report.noise_theta) == 1
    assert len(report.change_norms) == report.iterations
    assert report.change_norms[-1] < 1e-4


def test_els_zero_noise_terms_is_ls():
    data = _armax_record(4)
    cs = generate_candidates(1, 1, 1)
    psi, y_s = build_regression(cs, data)
    assert np.allclose(els_core(psi, y_s, 0).theta, ls_estimate(psi, y_s).theta)


def test_els_validates_arguments():
    data = _armax_record(5)
    psi, y_s = build_regression(generate_candidates(1, 1, 1), data)
    with pytest.raises(ParameterError):
        els_core(psi, y_s, n_noise_terms=-1)
    for bad in (0.0, float("inf"), float("nan"), True, "1"):
        with pytest.raises(ParameterError, match="zeta"):
            ElsConfig(zeta=bad)
    with pytest.raises(ParameterError):
        ElsConfig(max_iterations=0)
    for bad in (2.5, True):
        with pytest.raises(ParameterError):
            ElsConfig(max_iterations=bad)
    for bad in (-1, 1.5, True):
        with pytest.raises(ParameterError):
            els_core(psi, y_s, bad)
        with pytest.raises(ParameterError):
            els_sweep(psi, y_s, [1, 2], bad)


@pytest.mark.parametrize("sizes", [[1.7, 3.2], [1.0, 2.0], np.array([1.0, 2.0]), [True],
                                   [True, 2], np.array([True]), [[1, 2]], [], [0, 1], [2, 1]])
def test_els_sweep_rejects_sizes_that_are_not_increasing_integers(sizes):
    # sizes [1.7, 3.2] used to be truncated to fits of sizes 1 and 3, and [True] to fit size 1
    psi, y_s = build_regression(generate_candidates(1, 1, 1), _armax_record(5))
    with pytest.raises(ParameterError, match="sizes must be integers"):
        els_sweep(psi, y_s, sizes)


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("where", ["psi", "y"])
def test_estimators_reject_complex_input(where):
    # a complex input used to be cast to real with a ComplexWarning, losing its imaginary part
    rng = np.random.default_rng(0)
    psi, y_s = rng.standard_normal((50, 3)), rng.standard_normal(50)
    if where == "psi":
        psi = psi + 1e-3j
    else:
        y_s = y_s + 1e-3j
    for fit in (lambda: els_sweep(psi, y_s, [1, 2, 3]), lambda: els_core(psi, y_s),
                lambda: ls_estimate(psi, y_s),
                lambda: constrained_ls_estimate(psi, y_s, [(np.ones(3), 1.0)]),
                lambda: frols_rank(generate_candidates(1, 2, 1), psi, y_s)):
        with pytest.raises(ParameterError, match="real"):
            fit()


@pytest.mark.parametrize("where", ["psi", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimators_reject_non_finite_input(where, bad):
    # one bad sample used to come back as an all-NaN theta, reported unconverged
    rng = np.random.default_rng(0)
    psi, y_s = rng.standard_normal((50, 3)), rng.standard_normal(50)
    if where == "psi":
        psi[7, 1] = bad
    else:
        y_s[7] = bad
    for fit in (lambda: els_sweep(psi, y_s, [1, 2, 3]), lambda: els_core(psi, y_s),
                lambda: ls_estimate(psi, y_s),
                lambda: constrained_ls_estimate(psi, y_s, [(np.ones(3), 1.0)]),
                lambda: frols_rank(generate_candidates(1, 2, 1), psi, y_s)):
        with pytest.raises(ParameterError, match="finite"):
            fit()


@pytest.mark.parametrize("y_shape", [(9,), (11,), (10, 1), (10, 2), ()])
def test_estimators_reject_a_target_that_does_not_fit_psi(y_shape):
    # a short target used to fail in a numpy matmul, a column one in an
    # einsum, and the constrained fit broadcast y - Psi theta_p first
    psi = np.random.default_rng(0).standard_normal((10, 2))
    y_s = np.ones(y_shape)
    fits = [lambda: els_sweep(psi, y_s, [1, 2]), lambda: els_core(psi, y_s),
            lambda: ls_estimate(psi, y_s),
            lambda: constrained_ls_estimate(psi, y_s, [(np.ones(2), 1.0)])]
    if y_s.ndim == 2:  # frols_rank's own "column per candidate" check takes the others
        fits.append(lambda: frols_rank(generate_candidates(1, 1, 1), psi, y_s))
    for fit in fits:
        with pytest.raises(ParameterError, match="one sample per regression row"):
            fit()


def _lagged_columns(xi, n_lags):
    """Lagged copies of a residual vector; column j - 1 holds lag j, 0 before its start."""
    out = np.zeros((len(xi), n_lags))
    for j in range(1, n_lags + 1):
        out[j:, j - 1] = xi[:len(xi) - j]
    return out


def _reference_els(psi, y_s, n_noise_terms, config):
    """From-scratch ELS: stack [Psi Xi] and run a full QR solve each iteration."""

    def qr_solve(a):
        q, r = np.linalg.qr(a)
        return scipy.linalg.solve_triangular(r, q.T @ y_s)

    theta_prev = np.concatenate([qr_solve(psi), np.zeros(n_noise_terms)])
    xi = y_s - psi @ theta_prev[:psi.shape[1]]
    change_norms = []
    for _ in range(config.max_iterations):
        extended = np.hstack([psi, _lagged_columns(xi, n_noise_terms)])
        theta_full = qr_solve(extended)
        xi = y_s - extended @ theta_full
        change_norms.append(float(np.linalg.norm(theta_full - theta_prev)))
        theta_prev = theta_full
        if change_norms[-1] < config.zeta:
            break
    return theta_prev, xi, tuple(change_norms)


def _assert_matches_reference(psi, y_s, n_noise_terms, config, report=None):
    """Check ``report`` (by default ``els_core``'s fit of all of ``psi``)
    against :func:`_reference_els` to 1e-9 relative, and return it."""
    if report is None:
        report = els_core(psi, y_s, n_noise_terms, config)
    theta, residuals, change_norms = _reference_els(psi, y_s, n_noise_terms, config)
    n = psi.shape[1]
    assert report.iterations == len(change_norms)
    assert report.converged == (change_norms[-1] < config.zeta)
    for got, want in ((report.theta, theta[:n]), (report.noise_theta, theta[n:]),
                      (report.residuals, residuals),
                      (np.array(report.change_norms), np.array(change_norms))):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    return report


@pytest.mark.parametrize("n_noise_terms", [1, 2])
@pytest.mark.parametrize("config, converges", [
    (ElsConfig(zeta=1e-4), True),
    (ElsConfig(), False),  # still ~1e-6 apart at the 30-iteration cap
])
def test_els_matches_from_scratch_reference(n_noise_terms, config, converges):
    data = _armax_record(6)
    psi, y_s = build_regression(generate_candidates(2, 2, 2), data)
    report = _assert_matches_reference(psi, y_s, n_noise_terms, config)
    assert report.converged is converges


@given(st.integers(1, 12), st.integers(1, 3), st.integers(5, 60), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_els_matches_reference_on_random_shapes(n, k, extra_rows, seed):
    rng = np.random.default_rng(seed)
    m = n + k + extra_rows
    psi = rng.standard_normal((m, n))
    e = rng.standard_normal(m + 1)
    y_s = psi @ rng.standard_normal(n) + 0.3 * (e[1:] + 0.6 * e[:-1])
    _assert_matches_reference(psi, y_s, k, ElsConfig(zeta=1e-6, max_iterations=10))


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_els_matches_reference_on_heating_ranked_prefixes(seed):
    # real dictionaries, ill-conditioned: the column-scaled condition number
    # of the 15-term prefix is 2.8e5 to 1.2e6 on these seeds; the worst error
    # against the reference is ~2e-10 at 24 to 30 terms, about what a change
    # of y by eps moves either side by
    config = heating_experiment()
    data, _ = make_identification_data(config, seed)
    psi, y_s = build_regression(config.candidates, data)
    ranked = psi.take(frols_rank(config.candidates, psi, y_s).columns, axis=1)
    for size in (5, 15, 25, 30):
        _assert_matches_reference(ranked[:, :size], y_s, 1, config.selection.els)


def _noisy_arx_record(noise):
    # ARX output plus white measurement noise: the louder the noise, the more
    # of the lagged residual lies in the span of the lagged outputs in Psi
    rng = np.random.default_rng(0)
    u = rng.standard_normal(500)
    y = np.zeros(500)
    for t in range(1, 500):
        y[t] = 0.8 * y[t - 1] + u[t - 1]
    data = TimeSeriesData(u, y + noise * rng.standard_normal(500), ts=1.0)
    return build_regression(generate_candidates(1, 2, 1), data)


def _nearly_dependent_record(perturbation, seed):
    """Psi = [x, lag of e + perturbation * std(e) * noise] and y = 10 Psi [1, 0.5] + e.

    e is iterated to be orthogonal to Psi, so it is the least-squares
    residual of either prefix, and in the first ELS iteration the noise
    column of size 2 keeps about perturbation^2 of its squared norm outside
    span(Psi), while that of size 1 keeps most of it.
    """
    rng = np.random.default_rng(seed)
    x, noise, e = rng.standard_normal((3, 1000))
    for _ in range(20):
        psi = np.column_stack([x, np.r_[0.0, e[:-1]] + perturbation * np.std(e) * noise])
        q, _ = np.linalg.qr(psi)
        e -= q @ (q.T @ e)
    return psi, 10.0 * psi @ np.array([1.0, 0.5]) + e


def _border_kept(psi, y_s, n_noise_terms):
    """Share of its squared norm each first-iteration noise column keeps outside span(Psi)."""
    q, _ = np.linalg.qr(psi)
    xi = _lagged_columns(y_s - q @ (q.T @ y_s), n_noise_terms)
    border = xi - q @ (q.T @ xi)
    return np.sum(border ** 2, axis=0) / np.sum(xi ** 2, axis=0)


# The second pass against Q runs when a noise column keeps less than
# 1/kappa^2 = 1e-2 of its squared norm (kappa = 10); DGKS's kappa = sqrt(2)
# ran it below 1/2.  Each record: builder, noise terms, range of the kept shares.
_SECOND_PASS_RECORDS = {
    "noise-0.1": (lambda: _noisy_arx_record(0.1), 2, 0.5, 1.0),  # one pass
    "noise-3.0": (lambda: _noisy_arx_record(3.0), 2, 1e-2, 0.5),  # one pass now, two before
    "nearly-dependent": (lambda: _nearly_dependent_record(3e-2, 0), 1, 0.0, 1e-2),  # two passes
}


@pytest.mark.parametrize("record", list(_SECOND_PASS_RECORDS))
def test_els_matches_reference_with_and_without_second_pass(record):
    build, n_noise_terms, lo, hi = _SECOND_PASS_RECORDS[record]
    psi, y_s = build()
    kept = _border_kept(psi, y_s, n_noise_terms)
    assert np.all((lo < kept) & (kept < hi))
    _assert_matches_reference(psi, y_s, n_noise_terms, ElsConfig(zeta=1e-6, max_iterations=10))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_els_sweep_second_pass_on_some_sizes_of_a_block(seed):
    # sizes 2-4 hold the column the lagged residual nearly lies along, so
    # their noise columns keep ~1e-3 of their squared norm and take the
    # second pass; size 1's keeps nearly all of it and takes one pass.  Each
    # size of the one block still matches its own from-scratch reference.
    psi, y_s = _nearly_dependent_record(3e-2, seed)
    psi = np.column_stack([psi, np.random.default_rng(100 + seed).standard_normal((len(y_s), 2))])
    sizes = [1, 2, 3, 4]
    kept = np.array([_border_kept(psi[:, :s], y_s, 1)[0] for s in sizes])
    assert kept[0] > 0.5 and np.all(kept[1:] < 1e-2)
    config = ElsConfig(zeta=1e-6, max_iterations=10)
    for s, fit in zip(sizes, els_sweep(psi, y_s, sizes, 1, config)):
        _assert_matches_reference(psi[:, :s], y_s, 1, config, fit)


def _kept_outside_earlier_lags(psi, y_s, n_noise_terms):
    """Share of its squared norm each first-iteration noise column keeps
    outside span(Psi) and the earlier lags: what the gate compares with 1/kappa^2."""
    q, _ = np.linalg.qr(psi)
    xi = _lagged_columns(y_s - q @ (q.T @ y_s), n_noise_terms)
    r = np.linalg.qr(np.column_stack([psi, xi]))[1]
    return np.diag(r)[psi.shape[1]:] ** 2 / np.sum(xi ** 2, axis=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_els_sweep_gate_flags_sizes_for_dependent_lags(seed):
    # k = 2 on a residual dominated by a period-2 component: lag 2 is nearly
    # minus lag 1, so sizes 1-2 keep ~1e-3 of lag 2's squared norm outside Q
    # and lag 1 and take the explicit border, though each lag keeps nearly all
    # of its norm outside Q alone.  Sizes 3-4 hold the alternating column; their
    # residual has no such component and they are solved from the Gram.
    rng = np.random.default_rng(seed)
    m = 2000
    alternating = (-1.0) ** np.arange(m)
    psi = np.column_stack([rng.standard_normal((m, 2)), alternating + 0.1 * rng.standard_normal(m),
                           rng.standard_normal(m)])
    y_s = psi[:, 0] + 0.8 * alternating + 0.01 * rng.standard_normal(m)
    sizes = [1, 2, 3, 4]
    for s in sizes:
        assert np.all(_border_kept(psi[:, :s], y_s, 2) > 0.9)
        assert (_kept_outside_earlier_lags(psi[:, :s], y_s, 2)[1] < 5e-3) == (s <= 2)
    config = ElsConfig(zeta=1e-6, max_iterations=10)
    for s, fit in zip(sizes, els_sweep(psi, y_s, sizes, 2, config)):
        _assert_matches_reference(psi[:, :s], y_s, 2, config, fit)


def _nearly_dependent_errors(perturbation):
    """Relative error of size 2's one-iteration sweep fit against the
    reference on twenty seeds, after checking size 1's to 1e-12."""
    config, errors = ElsConfig(max_iterations=1), []
    for seed in range(20):
        psi, y_s = _nearly_dependent_record(perturbation, seed)
        fits = els_sweep(psi, y_s, [1, 2], 1, config)
        for s, fit in zip([1, 2], fits):
            theta, residuals, _ = _reference_els(psi[:, :s], y_s, 1, config)
            error = (np.max(np.abs(np.r_[fit.theta, fit.noise_theta] - theta))
                     / np.max(np.abs(theta)))
            if s == 1:
                assert error <= 1e-12
            else:
                errors.append(error)
    return errors


def test_els_second_pass_keeps_a_nearly_dependent_border_accurate():
    # A 1e-6 perturbation: the noise column of size 2 keeps ~1e-12 of its
    # squared norm outside span(Psi), that of size 1 most of it: one block,
    # two prefix masks, only one size needing the second pass.  One pass
    # leaves the border a cosine of ~eps/1e-6 with Q.  That is the order of
    # the rounding Xi already carries, so single seeds overlap; over twenty
    # seeds the median error against the reference is ~8e-10 with the
    # second pass and ~4e-8 without it.
    assert np.median(_nearly_dependent_errors(1e-6)) <= 5e-9


@pytest.mark.parametrize("perturbation", [3e-1, 1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5])
def test_els_sweep_is_accurate_along_a_cancellation_ladder(perturbation):
    # Borders that keep ~1e-1 down to ~1e-10 of their squared norm (the test
    # above takes ~1e-12), on both sides of the 1/kappa^2 = 1e-2 below which
    # the second pass runs: a border taken after one pass is orthogonal to Q
    # to about kappa * eps, so each rung meets the same bounds.
    kept = _border_kept(*_nearly_dependent_record(perturbation, 0), 1)
    assert 0.5 * perturbation ** 2 < kept[0] < 2.0 * perturbation ** 2
    assert np.median(_nearly_dependent_errors(perturbation)) <= 5e-9


def test_els_residual_row_without_history_is_exact():
    # row 0 has no lagged-residual history (Xi is 0 there), so each reported
    # residual is y - Psi theta exactly in that row.  Heating seed 7 ranks
    # ill-conditioned prefixes (theta up to ~900 at 30 terms), where a
    # residual formed by projection rather than from theta misses by ~1e-11.
    config = heating_experiment()
    data, _ = make_identification_data(config, 7)
    psi, y_s = build_regression(config.candidates, data)
    ranked = psi.take(frols_rank(config.candidates, psi, y_s).columns, axis=1)
    sizes = np.arange(1, ranked.shape[1] + 1)
    for s, fit in zip(sizes, els_sweep(ranked, y_s, sizes, 1, config.selection.els)):
        row0 = ranked[0, :s]
        scale = abs(y_s[0]) + np.abs(row0) @ np.abs(fit.theta) + abs(fit.residuals[0])
        assert abs(fit.residuals[0] - (y_s[0] - row0 @ fit.theta)) <= 1e-12 * scale


def _assert_is_exact_least_squares_fit(fit, want, n_noise_terms):
    """``fit`` is the least-squares fit ``want`` reported as ELS: phi = 0,
    one iteration, converged."""
    assert fit.theta.tobytes() == want.theta.tobytes()
    assert fit.residuals.tobytes() == want.residuals.tobytes()
    assert fit.process_variance == want.process_variance == np.var(want.residuals)
    assert np.array_equal(fit.noise_theta, np.zeros(n_noise_terms))
    assert (fit.iterations, fit.converged, fit.change_norms) == (1, True, ())


@pytest.mark.parametrize("n_noise_terms", [1, 2])
def test_els_exact_fit_is_its_least_squares_fit(n_noise_terms):
    # y = Psi theta leaves no residual, so there is no noise to model and
    # the noise columns Xi would be zero: the fit is least squares
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((50, 3))
    y_s = psi @ np.array([1.0, -2.0, 0.5])
    _assert_is_exact_least_squares_fit(els_core(psi, y_s, n_noise_terms), ls_estimate(psi, y_s),
                                       n_noise_terms)


def test_els_rejects_too_few_rows_for_noise_columns():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal((4, 3))
    with pytest.raises(ParameterError):
        els_core(psi, rng.standard_normal(4), 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_els_needs_two_rows_beyond_its_columns(k):
    # with one spare row the residual has one degree of freedom and the noise
    # model follows from the first residual, not from y: refused, like too few,
    # by the one row rule for sizes with noise columns
    rng = np.random.default_rng(k)
    psi = rng.standard_normal((12, 4))
    y_s = psi @ rng.standard_normal(4) + rng.standard_normal(12)
    for m in range(4 + k - 1, 4 + k + 2):
        with pytest.raises(ParameterError, match=f"too few rows for {k} noise terms: {m} rows <"):
            els_core(psi[:m], y_s[:m], k)
    assert els_core(psi[:4 + k + 2], y_s[:4 + k + 2], k).theta.shape == (4,)
    # least squares keeps its rule: as many rows as columns
    assert ls_estimate(psi[:4], y_s[:4]).theta.shape == (4,)


def _fit_or_error(psi, y_s, n_noise_terms, config):
    try:
        return els_core(psi, y_s, n_noise_terms, config)
    except NarxError as exc:
        return exc


# a done size's row is still computed; none of its NaNs may warn
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.integers(1, 24), st.integers(0, 3), st.integers(-2, 40), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
# a noise parameter near -93, which an absolute tolerance would fail on
@example(n=23, k=1, extra_rows=0, duplicate=False, exact=False, seed=3753471)
# sizes with one spare row whose iteration amplified rounding past the
# bound; they now fail the row rule in the sweep and the one-size fit alike
@example(n=11, k=3, extra_rows=-2, duplicate=False, exact=False, seed=926774)
@example(n=8, k=3, extra_rows=0, duplicate=True, exact=False, seed=2279959713)
@example(n=6, k=3, extra_rows=0, duplicate=False, exact=False, seed=4027671318)
def test_els_sweep_matches_per_prefix_fits(n, k, extra_rows, duplicate, exact, seed):
    # every prefix size of one sweep against its own els_core call, with
    # sizes converging at different iterations, sizes failing on rows, on a
    # duplicated column or on a vanishing noise column
    rng = np.random.default_rng(seed)
    m = max(n + extra_rows, 2)
    psi = rng.standard_normal((m, n + 3))
    cols = rng.permutation(n + 3)[:n]
    if duplicate and n >= 2:
        first, second = sorted(rng.choice(n, 2, replace=False))
        psi[:, cols[second]] = psi[:, cols[first]]
    if exact:  # y in the span of the first ranked columns: no noise left to model
        y_s = psi[:, cols[:2]] @ rng.standard_normal(min(n, 2))
    else:
        e = rng.standard_normal(m + 1)
        y_s = 0.3 * psi @ rng.standard_normal(n + 3) + e[1:] + 0.6 * e[:-1]
    _assert_sweep_matches_per_prefix_fits(psi, y_s, cols, k)


def _assert_sweep_matches_per_prefix_fits(psi, y_s, cols, k):
    """Sweep every prefix size of ``psi``'s columns ``cols`` and compare each
    with its own fit, and the sweep of a Fortran-ordered copy bit for bit;
    returns the sweep's fits."""
    config = ElsConfig(zeta=1e-6, max_iterations=10)
    ranked = psi.take(cols, axis=1)
    sizes = np.arange(1, len(cols) + 1)
    scale = np.max(np.abs(y_s))
    fits = els_sweep(ranked, y_s, sizes, k, config)
    for fit, fortran in zip(fits, els_sweep(np.asfortranarray(ranked), y_s, sizes, k, config)):
        if isinstance(fit, Exception):
            assert type(fortran) is type(fit) and str(fortran) == str(fit)
            continue
        for a, b in ((fit.theta, fortran.theta), (fit.residuals, fortran.residuals),
                     (fit.noise_theta, fortran.noise_theta)):
            assert a.tobytes() == b.tobytes()
        assert (fit.iterations, fit.converged, fit.change_norms) == (
            fortran.iterations, fortran.converged, fortran.change_norms)
    for n_theta, fit in zip(sizes, fits):
        want = _fit_or_error(ranked[:, :n_theta], y_s, k, config)
        if isinstance(want, Exception):
            assert type(fit) is type(want)
            assert getattr(fit, "column", None) == getattr(want, "column", None)
            continue
        assert (fit.iterations, fit.converged) == (want.iterations, want.converged)
        for got, ref, size in ((fit.theta, want.theta, np.max(np.abs(want.theta))),
                               (fit.noise_theta, want.noise_theta,
                                max(1.0, np.max(np.abs(want.noise_theta), initial=0.0))),
                               (fit.residuals, want.residuals, scale),
                               (np.array(fit.change_norms), np.array(want.change_norms),
                                max(want.change_norms, default=0.0))):
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-9 * size
    return fits


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_els_sweep_sizes_leave_one_block_at_different_iterations(k):
    # 16 sizes iterate together: some converge, each at its own iteration,
    # some reach the cap, and the largest, whose least-squares fit is exact,
    # reports that fit and leaves the block before the first iteration
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((200, 18))
    cols = rng.permutation(18)[:16]
    e = rng.standard_normal(201)
    psi[:, cols[-1]] = e[1:] + 0.9 * e[:-1]  # the last ranked column is MA noise
    y_s = psi[:, cols] @ rng.uniform(0.2, 1.0, 16)
    fits = _assert_sweep_matches_per_prefix_fits(psi, y_s, cols, k)
    *fitted, last = fits
    # the same size of a least-squares sweep (ls_estimate's one-size fit is
    # compared above, to rounding)
    ls_sweep = els_sweep(psi.take(cols, axis=1), y_s, np.arange(1, 17), 0)
    _assert_is_exact_least_squares_fit(last, ls_sweep[-1], k)
    assert len({f.iterations for f in fitted if f.converged}) >= 2
    assert any(not f.converged and f.iterations == 10 for f in fitted)


# more rows than one block, and not a multiple of the block: _qr's blocked path
_TALL = 2 * _QR_BLOCK_ROWS + 357


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [_TALL, 3 * _QR_BLOCK_ROWS + 1])
def test_blocked_qr_factors_a_tall_matrix(m, order):
    # Q orthonormal and QR = A to rounding; R is the whole factorization's up
    # to the sign of each row, and the same in both modes
    rng = np.random.default_rng(m)
    a = np.asarray(rng.standard_normal((m, 20)) * np.logspace(0, 4, 20), order=order)
    q, r = _qr(a)
    assert np.array_equal(_qr(a, mode="r"), r)
    assert np.max(np.abs(q.T @ q - np.eye(20))) <= 1e-14
    assert np.linalg.norm(a - q @ r) <= 1e-14 * np.linalg.norm(a)
    whole = np.linalg.qr(a, mode="r")
    assert np.all(np.abs(np.abs(r) - np.abs(whole))
                  <= 1e-12 * np.linalg.norm(whole, axis=1, keepdims=True))


@pytest.mark.parametrize("shape", [(_QR_BLOCK_ROWS, 20), (1997, 56), (1997, 30), (40, 3)])
def test_qr_of_one_block_is_numpy_qr_bit_for_bit(shape):
    # the heating regressions (1,997 rows) factor as they did before blocking
    a = np.random.default_rng(0).standard_normal(shape)
    q, r = _qr(a)
    want_q, want_r = np.linalg.qr(a)
    assert np.array_equal(q, want_q) and np.array_equal(r, want_r)
    assert np.array_equal(_qr(a, mode="r"), np.linalg.qr(a, mode="r"))


@pytest.mark.parametrize("m, n, blocked", [(17, 3, True), (17, 4, True), (24, 2, True),
                                           (17, 5, False), (8, 2, False), (40, 13, False)])
def test_qr_blocks_only_rows_taller_than_wide(monkeypatch, m, n, blocked):
    # 8-row blocks: 17 rows split as 5 + 5 + 5 with 2 left over, and a block
    # of 5 rows on 5 columns would gain nothing, so that matrix stays whole
    monkeypatch.setattr(estimation, "_QR_BLOCK_ROWS", 8)
    a = np.random.default_rng(m * n).standard_normal((m, n))
    q, r = _qr(a)
    want_q, want_r = np.linalg.qr(a)
    assert (np.array_equal(q, want_q) and np.array_equal(r, want_r)) is not blocked
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-14
    assert np.max(np.abs(a - q @ r)) <= 1e-14 * np.max(np.abs(a))


def _tall_record(seed, n):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((_TALL, n))
    e = rng.standard_normal(_TALL + 1)
    return psi, 0.3 * psi @ rng.standard_normal(n) + e[1:] + 0.6 * e[:-1]


@pytest.mark.parametrize("k", [1, 2])
def test_els_sweep_on_a_tall_matrix_matches_per_prefix_fits(k):
    psi, y_s = _tall_record(k, 9)
    _assert_sweep_matches_per_prefix_fits(psi, y_s, np.random.default_rng(k).permutation(9)[:7], k)


@pytest.mark.parametrize("duplicate", [False, True])
def test_els_sweep_on_a_tall_matrix_matches_the_whole_factorization(monkeypatch, duplicate):
    # blocked and whole, the sweep fits the same to rounding, and a
    # duplicated column fails the same sizes at the same column
    psi, y_s = _tall_record(5, 8)
    if duplicate:
        psi[:, 5] = psi[:, 2]
    sizes = np.arange(1, 9)
    blocked = els_sweep(psi, y_s, sizes)
    monkeypatch.setattr(estimation, "_QR_BLOCK_ROWS", _TALL)
    whole = els_sweep(psi, y_s, sizes)
    for got, want in zip(blocked, whole):
        if isinstance(want, Exception):
            assert type(got) is type(want) and got.column == want.column
            continue
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.max(np.abs(got.theta - want.theta)) <= 1e-12 * np.max(np.abs(want.theta))
        assert np.max(np.abs(got.residuals - want.residuals)) <= 1e-12 * np.max(np.abs(y_s))
    assert [isinstance(f, SingularMatrixError) and f.column for f in blocked] == (
        [False] * 5 + [5] * 3 if duplicate else [False] * 8)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_els_sweep_leaves_its_inputs_and_returns_unshared_arrays(k):
    # twelve sizes, several finishing in the same iteration: each
    # report is built before the sweep's working buffers are overwritten,
    # and no returned array is a view of them, of another report or of an input
    rng = np.random.default_rng(11)
    psi = rng.standard_normal((150, 14))
    e = rng.standard_normal(151)
    y_s = psi @ rng.standard_normal(14) + e[1:] + 0.6 * e[:-1]
    psi_before, y_before = psi.copy(), y_s.copy()
    fits = els_sweep(psi, y_s, np.arange(1, 13), k, ElsConfig(zeta=1e-6, max_iterations=4))
    assert np.array_equal(psi, psi_before) and np.array_equal(y_s, y_before)
    returned = [a for f in fits for a in (f.theta, f.residuals, f.noise_theta)]
    assert all(a.flags.owndata for a in returned)
    for a, b in itertools.combinations([psi, y_s] + returned, 2):
        assert not np.shares_memory(a, b)


def _runs_record(record):
    """Heating seed 7's 30 ranked columns, or a random 24-column regression
    whose column 20 repeats column 3, with its target."""
    if record == "heating":
        config = heating_experiment()
        data, _ = make_identification_data(config, 7)
        psi, y_s = build_regression(config.candidates, data)
        return psi.take(frols_rank(config.candidates, psi, y_s).columns, axis=1), y_s
    rng = np.random.default_rng(24)
    psi = rng.standard_normal((400, 24))
    psi[:, 20] = psi[:, 3]
    e = rng.standard_normal(401)
    return psi, 0.3 * psi @ rng.standard_normal(24) + e[1:] + 0.6 * e[:-1]


@pytest.mark.parametrize("record, k", [("heating", 1), ("heating", 2), ("random", 1), ("random", 3)])
def test_els_sweep_fits_do_not_depend_on_how_its_sizes_split_into_runs(monkeypatch, record, k):
    # one size per run, the default runs, all sizes in one run, and one run because
    # the regression counts as too tall for cache (a 1-row block, which _qr, its
    # blocks no taller than wide, still factors whole): the same fits to rounding
    psi, y_s = _runs_record(record)
    sizes = np.arange(1, psi.shape[1] + 1)
    assert len(sizes) == {"heating": 30, "random": 24}[record]

    def sweep(name=None, value=None):
        with monkeypatch.context() as patch:
            if name:
                patch.setattr(estimation, name, value)
            return els_sweep(psi, y_s, sizes, k)

    default, one_run = sweep(), sweep("_QR_BLOCK_ROWS", 1)
    scale = np.max(np.abs(y_s))
    for fits in (sweep("_GROUP_SIZES", 1), sweep("_GROUP_SIZES", len(sizes)), one_run):
        for fit, want in zip(fits, default, strict=True):
            if isinstance(want, Exception):
                assert type(fit) is type(want)
                assert getattr(fit, "column", None) == getattr(want, "column", None)
                continue
            assert (fit.iterations, fit.converged) == (want.iterations, want.converged)
            for got, ref, size in ((fit.theta, want.theta, np.max(np.abs(want.theta))),
                                   (fit.noise_theta, want.noise_theta,
                                    max(1.0, np.max(np.abs(want.noise_theta)))),
                                   (fit.residuals, want.residuals, scale),
                                   (np.array(fit.change_norms), np.array(want.change_norms),
                                    max(want.change_norms))):
                assert np.max(np.abs(got - ref)) <= 1e-9 * size
    # all sizes in one run and one run for a tall regression are the same products
    for fit, want in zip(sweep("_GROUP_SIZES", len(sizes)), one_run):
        assert isinstance(want, Exception) or (
            fit.theta.tobytes() == want.theta.tobytes() and fit.change_norms == want.change_norms)
    if record == "random":  # the repeated column fails sizes 21-24 at column 20
        assert [getattr(f, "column", None) for f in default] == [None] * 20 + [20] * 4


def test_constrained_ls_satisfies_constraint_exactly():
    rng = np.random.default_rng(2)
    psi = rng.standard_normal((200, 4))
    y = psi @ np.array([0.6, 0.4, 1.0, -1.0]) + 0.05 * rng.standard_normal(200)
    c = np.array([1.0, 1.0, 0.0, 0.0])
    report = constrained_ls_estimate(psi, y, [(c, 1.0)])
    assert abs(c @ report.theta - 1.0) < 1e-10


def test_constrained_ls_no_constraints_is_ls():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    assert np.allclose(
        constrained_ls_estimate(psi, y, []).theta, ls_estimate(psi, y).theta
    )


def test_constrained_ls_is_optimal_among_feasible():
    # perturbing the constrained solution along the constraint surface
    # can only increase the residual norm
    rng = np.random.default_rng(4)
    psi = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    c = np.array([1.0, -1.0, 2.0])
    report = constrained_ls_estimate(psi, y, [(c, 0.5)])
    base = np.linalg.norm(y - psi @ report.theta)
    for _ in range(20):
        d = rng.standard_normal(3)
        d -= (d @ c) / (c @ c) * c  # stay on the constraint surface
        perturbed = np.linalg.norm(y - psi @ (report.theta + 1e-3 * d))
        assert perturbed >= base - 1e-12


def _scipy_constrained_ls(psi, y, c_mat, b):
    """The null-space method with ``scipy.linalg.null_space``'s basis."""
    theta_p = np.linalg.lstsq(c_mat, b, rcond=None)[0]
    z = scipy.linalg.null_space(c_mat)
    return theta_p + z @ ls_estimate(psi @ z, y - psi @ theta_p).theta


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_null_space_basis_matches_scipy(seed):
    # random full-row-rank C with p < n <= 12
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    p = int(rng.integers(1, n))
    c_mat = rng.standard_normal((p, n))
    psi = rng.standard_normal((n + int(rng.integers(20, 60)), n))
    y = rng.standard_normal(len(psi))
    b = rng.standard_normal(p)
    theta = constrained_ls_estimate(psi, y, list(zip(c_mat, b))).theta
    expected = _scipy_constrained_ls(psi, y, c_mat, b)
    assert np.linalg.norm(theta - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.all(np.abs(c_mat @ theta - b) <= 1e-10)


def test_constrained_ls_applies_the_regression_rank_rule_to_the_constraints():
    # rows 1e-12 apart have a singular-value ratio of 5e-13, at or below the
    # 1e-10 that marks a rank-deficient regression matrix; 1e-8 apart is 7e-9
    psi = np.random.default_rng(5).standard_normal((50, 3))
    y = psi @ np.array([1.0, 0.0, 1.0])  # meets both constraints
    c = np.array([1.0, 1.0, 0.0])
    with pytest.raises(ConstraintError, match="linearly dependent"):
        constrained_ls_estimate(psi, y, [(c, 1.0), (c + [0.0, 1e-12, 0.0], 1.0)])
    theta = constrained_ls_estimate(psi, y, [(c, 1.0), (c + [0.0, 1e-8, 0.0], 1.0)]).theta
    assert np.allclose(theta, [1.0, 0.0, 1.0], rtol=0.0, atol=1e-6)


def test_constrained_ls_rejects_bad_constraints():
    psi = np.random.default_rng(5).standard_normal((50, 3))
    y = np.zeros(50)
    c = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ConstraintError):
        constrained_ls_estimate(psi, y, [(c, 1.0), (c, 2.0)])  # dependent rows
    with pytest.raises(ConstraintError):
        constrained_ls_estimate(psi, y, [(np.ones(2), 1.0)])  # wrong size
    # non-finite entries fail before the SVD, which would not converge on them
    with pytest.raises(ConstraintError, match="finite"):
        constrained_ls_estimate(psi, y, [(np.array([1.0, np.nan, 0.0]), 1.0)])
    for bound in (np.inf, np.nan):
        with pytest.raises(ConstraintError, match="finite"):
            constrained_ls_estimate(psi, y, [(c, bound)])
