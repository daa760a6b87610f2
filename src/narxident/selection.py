"""Model structure selection: forward-regression orthogonal least squares
ranking by error reduction ratio, information-criterion truncation of the
ranked term list, whose curve fits a noise model of lagged residuals in
two least-squares stages, and an extended-least-squares fit of the chosen
terms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesData
from .errors import ParameterError
from .estimation import (_RANK_RTOL, ElsConfig, _qr, _valid_columns, check_noise_terms,
                         check_regression, els_core, lagged)
from .estimation import ls_estimate  # noqa: F401  perfbench/tracing.py wraps this binding
from .model import CandidateSet, NarxModel, is_int, is_real
from .regression import build_regression

_ZERO_COLUMN_RTOL = 1e-12


@dataclass(frozen=True)
class ErrRanking:
    """Greedy forward-selection ranking of candidate terms.

    ``err_values[i]`` is the fraction of output energy explained by the
    i-th selected term after orthogonalization against its predecessors;
    ``columns[i]`` is that term's column in the regression matrix ranked;
    ``skipped`` lists terms whose columns became numerically zero.
    """

    ordered_terms: tuple
    err_values: np.ndarray
    columns: tuple
    skipped: tuple = ()

    @property
    def cumulative_err(self):
        return np.cumsum(self.err_values)

    def __len__(self):
        return len(self.ordered_terms)


def frols_rank(candidates: CandidateSet, psi, y_s, max_terms=None, err_floor=1e-10):
    """Rank candidate terms by error reduction ratio.

    ``(psi, y_s)`` is :func:`build_regression` of the candidates, finite.
    The columns used are those of R in the QR of [Psi y] (at most n + 1
    rows for n candidates), which keeps every inner product that ERR
    needs (Chen, Billings & Luo 1989); they are the rows of one block in
    canonical term order.  At each step the unselected row explaining the
    largest fraction of the output energy is selected with the ERR it was
    scored with, and every row, y's too, is deflated twice against its
    unit direction, which keeps them orthogonal to the selected ones to
    rounding.  Rows are scored against the deflated y, as fractions of the
    undeflated energy.  A row left with at most 1e-12 of its column's
    energy counts as zero, whatever the data's scale; once only such rows
    remain they are the skipped terms.  Selection stops at ``max_terms`` or
    when the best remaining ratio falls below ``err_floor``.  Ties break on
    canonical term order, which also makes the result independent of
    candidate input order; ERRs within a relative 1e-10 tie, so exact ties
    that round differently still tie.  ``max_terms`` (default ``min(30,
    len(candidates))``) must be an integer in 1..len(candidates) and
    ``err_floor`` a finite real >= 0.
    """
    if len(candidates) == 0:
        raise ParameterError("empty candidate set")
    if max_terms is None:
        max_terms = min(30, len(candidates))
    if not is_int(max_terms) or not 1 <= max_terms <= len(candidates):
        raise ParameterError(f"max_terms must be an integer in 1..{len(candidates)}")
    if not is_real(err_floor) or not 0 <= err_floor < np.inf:
        raise ParameterError("err_floor must be finite and nonnegative")
    if np.shape(psi) != (len(y_s), len(candidates)):
        raise ParameterError("psi must have a row per target sample and a column per candidate")
    psi, y_s = check_regression(psi, y_s)

    order = sorted(range(len(candidates.terms)), key=lambda i: candidates.terms[i].sort_key())
    terms = [candidates.terms[i] for i in order]
    # R's columns keep the inner products of [Psi y]'s; work holds one per row
    psi_y = np.empty((len(y_s), len(candidates) + 1), order="F")  # LAPACK's column order
    r = _qr(np.concatenate([psi, y_s[:, None]], axis=1, out=psi_y), mode="r")
    work, y_r = r[:, :-1].T[order], r[:, -1].copy()
    yty = float(y_r @ y_r)
    if yty == 0.0:
        raise ParameterError("target vector has zero energy")
    floor = _ZERO_COLUMN_RTOL * np.einsum("ij,ij->i", work, work)

    live = np.ones(len(terms), dtype=bool)  # rows not yet selected
    selected, err_values, skipped = [], [], []
    while len(selected) < max_terms:
        ww = np.einsum("ij,ij->i", work, work)
        ok = np.flatnonzero(live & (ww > floor))
        errs = (work @ y_r)[ok] ** 2 / (ww[ok] * yty)
        best_p, best_err = None, -1.0
        for p, err in zip(ok.tolist(), errs.tolist()):
            if err > best_err * (1.0 + 1e-10):
                best_err, best_p = err, p
        if best_p is None:
            skipped = np.flatnonzero(live).tolist()
            break
        if best_err < err_floor:
            break
        live[best_p] = False
        selected.append(best_p)
        err_values.append(best_err)
        q = work[best_p] / np.sqrt(ww[best_p])
        for _ in range(2):
            work -= np.outer(work @ q, q)
            y_r -= (y_r @ q) * q

    return ErrRanking(
        ordered_terms=tuple(terms[j] for j in selected),
        err_values=np.array(err_values),
        columns=tuple(order[j] for j in selected),
        skipped=tuple(terms[j] for j in skipped),
    )


@dataclass(frozen=True)
class AicCurve:
    """Information-criterion cost as a function of model size.

    ``j_values[i]`` is the cost of the model with the i + 1 top-ranked
    terms; invalid points (sizes that fail the rank or row check) are NaN
    and excluded from the argmin.
    """

    j_values: np.ndarray

    @property
    def n_theta_values(self):
        """The model size of each point, 1, 2, ..."""
        return np.arange(1, len(self.j_values) + 1)

    @property
    def argmin(self):
        valid = np.where(np.isfinite(self.j_values))[0]
        if valid.size == 0:
            raise ParameterError("no valid point on the information-criterion curve")
        return int(self.n_theta_values[valid[np.argmin(self.j_values[valid])]])


@dataclass(frozen=True)
class SelectionConfig:
    """Noise model of the information-criterion curve and estimator of the
    final fit: ``n_noise_terms`` lagged-residual columns, fitted by two
    least-squares stages on the curve and by extended least squares, iterated
    under ``els``, on the chosen terms.  With none both are least squares;
    ``els`` then changes nothing."""

    n_noise_terms: int = 1
    els: ElsConfig = field(default_factory=ElsConfig)

    def __post_init__(self):
        check_noise_terms(self.n_noise_terms)

    @property
    def estimator(self):
        return "els" if self.n_noise_terms else "ls"


def aic_curve(ranking: ErrRanking, psi, y_s, config=SelectionConfig()):
    """Akaike's N ln(var) + 2 s over the ranked term list, var the variance of
    the process residual y - Psi_s theta_s of size s's two-stage fit.

    ``(psi, y_s)`` is the regression the ranking was computed on, so all sizes
    share one row frame.  The noise model is fitted in two least-squares
    stages, with no iteration (Hannan & Rissanen 1982, Biometrika 69(1)).
    Stage 1 fits the longest ranked prefix that passes the checks below; the
    lags 1..k of its residual e, zero before the record, are the
    ``config.n_noise_terms`` noise columns Xi of every size.  Stage 2 is one
    QR of [Xi Psi_ranked y]: the leading k + s columns of its R give size
    s's fit [phi; theta_s] of [Xi Psi_s].  A size is a NaN point if the
    diagonal of that R prefix has an entry at or below ``_RANK_RTOL`` times
    its largest, or if it has fewer rows than s + k + 2 (k >= 1) or s (k = 0).
    A stage-1 residual at rounding, ||e|| <= ``_RANK_RTOL`` ||y||, leaves no
    noise to model, and Xi is then empty, as for k = 0: every size is scored
    by its least-squares fit.
    """
    if len(ranking) == 0:
        raise ParameterError("empty ranking")
    psi, y_s = check_regression(psi, y_s)
    m, n, k = len(y_s), len(ranking), config.n_noise_terms
    costs = np.full(n, np.nan)
    # the failing sizes are a suffix: rows run out, and a rank deficiency
    # stays once the largest diagonal entry has outgrown a small one
    top = min(n, m - k - 2 if k else m)
    if top < 1:
        return AicCurve(costs)
    # [Xi Psi_ranked y] in LAPACK's column order; stage 1 factors [Psi_ranked y]
    a = np.empty((m, k + top + 1), order="F")
    a[:, k:-1], a[:, -1] = psi[:, ranking.columns[:top]], y_s
    r = _qr(a[:, k:], mode="r")
    if (valid := _valid_columns(np.diag(r)[:top])) < top:
        a, top = np.delete(a, np.s_[k + valid:-1], axis=1), valid
    if not top:
        return AicCurve(costs)
    if k:
        e = y_s - a[:, k:-1] @ np.linalg.solve(r[:top, :top], r[:top, -1])
        if np.linalg.norm(e) > _RANK_RTOL * np.linalg.norm(y_s):
            a[:, :k] = lagged(e, k)
            r = _qr(a, mode="r")
            top = _valid_columns(np.diag(r)[:k + top]) - k
            if top < 1:
                return AicCurve(costs)
        else:  # no noise to model: stage 1's R scores every size
            a, k = a[:, k:], 0
    # column j holds R^-1 of Q^T y cut to size j + 1's prefix: a triangular
    # solve with a leading block of R solves each prefix (Higham 2002, ch. 8)
    below = np.arange(k + top)[:, None] < k + np.arange(1, top + 1)
    fits = np.linalg.solve(r[:k + top, :k + top], r[:k + top, -1:] * below)
    # row j: the process residual y - Psi_s theta_s of size s = j + 1
    process = np.matmul(fits[k:].T, a[:, k:k + top].T)
    np.subtract(y_s, process, out=process)
    process -= process.mean(axis=1, keepdims=True)
    var = np.einsum("ij,ij->i", process, process) / m
    costs[:top] = m * np.log(np.maximum(var, np.finfo(float).tiny)) + 2.0 * np.arange(1, top + 1)
    return AicCurve(costs)


def select_structure(candidates: CandidateSet, data: TimeSeriesData,
                     config=SelectionConfig()):
    """Full structure-selection pipeline.

    Ranks the candidates and truncates at the information-criterion
    argmin on one regression of the candidates, then re-estimates the
    selected terms on their own (whose rows start at their largest lag)
    with the configured estimator.  Returns the model together with the
    ranking, the cost curve, and the final estimation report.
    """
    psi, y_s = build_regression(candidates, data)
    ranking = frols_rank(candidates, psi, y_s)
    curve = aic_curve(ranking, psi, y_s, config)
    n_sel = curve.argmin
    chosen = ranking.ordered_terms[:n_sel]
    psi, y_s = build_regression(chosen, data)
    report = els_core(psi, y_s, config.n_noise_terms, config.els)
    model = NarxModel(
        process_terms=chosen,
        theta=tuple(report.theta),
        meta=candidates.meta,
        ts=data.ts,
        label=data.label,
    )
    return model, ranking, curve, report
