"""Correctness checks on the outputs of a benchmark trial.

Each check raises :class:`CheckFailed`; the benchmark then reports
``"correct": false`` and exits non-zero.  Tolerances are relative to the
size of the signal compared, so they do not depend on its units.
"""

import numpy as np
import scipy.signal

from narxident.data import TimeSeriesData
from narxident.estimation import els_core, ls_estimate
from narxident.regression import build_regression, one_step_predict

REL_TOL = 1e-9
#: largest cosine allowed between a column of Psi and the residual vector;
#: a QR least-squares fit leaves about 1e-11 at condition number 1e7
ORTHO_TOL = 1e-8


class CheckFailed(Exception):
    """A trial produced an output that fails a correctness check."""


def _require_close(what, got, want, scale):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= REL_TOL * scale:
        raise CheckFailed(f"{what}: max deviation {err:.3e} exceeds {REL_TOL:g} x {scale:.3e}")


def selected_prefix(result):
    """The selected terms are the first ``curve.argmin`` ranked terms."""
    want = tuple(result.ranking.ordered_terms[:result.curve.argmin])
    if tuple(result.model.process_terms) != want:
        raise CheckFailed("selected terms are not the information-criterion prefix of the ranking")


def final_estimate(result, selection):
    """theta is finite and consistent with the residuals on a rebuilt regression.

    Psi is rebuilt with ``build_regression`` from the selected terms.  Two
    checks hold for any least-squares estimator, extended or not, so they
    do not trust the package's own estimators:

    - every iterate's residual is the least-squares residual of [Psi Xi],
      so each column of Psi is orthogonal to it (cosine below
      ``ORTHO_TOL``);
    - row 0 has no lagged-residual history, so there Xi is 0 and the
      residual is y_s - Psi theta exactly.

    Without a noise model every row must be y_s - Psi theta.  With one,
    Xi holds the previous iterate's residuals, which the report does not
    carry, so in addition the configured estimator is re-run on the
    rebuilt Psi and its theta and residuals must be the reported ones.
    """
    theta = np.asarray(result.model.theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise CheckFailed("estimated parameters are not finite")
    psi, y_s = build_regression(result.model.process_terms, result.data)
    residuals = np.asarray(result.report.residuals)
    if residuals.shape != y_s.shape:
        raise CheckFailed("residual vector does not match the rebuilt regression rows")
    scale = float(np.max(np.abs(y_s)))
    r_norm = float(np.linalg.norm(residuals))
    if r_norm > 0:
        cosines = np.abs(psi.T @ residuals) / (np.linalg.norm(psi, axis=0) * r_norm)
        if not np.all(cosines <= ORTHO_TOL):
            raise CheckFailed(f"residuals not orthogonal to Psi: cosine {np.max(cosines):.3e} "
                              f"exceeds {ORTHO_TOL:g}")
    row0_scale = abs(y_s[0]) + float(np.abs(psi[0]) @ np.abs(theta)) + abs(residuals[0])
    _require_close("row-0 residual vs y_s - Psi theta", residuals[0], y_s[0] - psi[0] @ theta,
                   row0_scale)
    if result.report.noise_theta.size == 0:
        _require_close("residuals vs y_s - Psi theta", residuals, y_s - psi @ theta, scale)
    if selection.estimator == "els":
        ref = els_core(psi, y_s, selection.n_noise_terms, selection.els)
    else:
        ref = ls_estimate(psi, y_s)
    _require_close("theta vs re-estimation on rebuilt Psi", theta, ref.theta,
                   float(np.max(np.abs(ref.theta))))
    _require_close("residuals vs re-estimation on rebuilt Psi", residuals, ref.residuals, scale)


def hammerstein(params, u, y):
    """``simulate_hammerstein`` output equals an lfilter recursion on the
    same coefficients from zero initial conditions."""
    u = np.asarray(u, dtype=float)
    v = params.p1 * u ** 2 + params.p2 * u
    ref = scipy.signal.lfilter([0.0, params.beta2, params.beta4],
                               [1.0, -params.beta1, -params.beta3], v)
    _require_close("Hammerstein output vs lfilter", y, ref, float(np.max(np.abs(ref))))


def free_run_feedback(model, u, y_free):
    """Feeding a free-run trajectory back as measured output makes
    ``one_step_predict`` reproduce every simulated sample.

    The run must have been initialised with max(max_lag, 1) samples, as
    ``validate`` does.
    """
    start = max(model.max_lag, 1)
    pred = one_step_predict(model, TimeSeriesData(u, y_free, ts=model.ts))
    _require_close(f"free run of {model.label or 'model'} vs one-step on its trajectory",
                   pred[start - model.max_lag:], y_free[start:],
                   float(np.max(np.abs(y_free))))
