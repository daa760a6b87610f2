"""Model structure selection: forward-regression orthogonal least squares
ranking by error reduction ratio, and information-criterion truncation of
the ranked term list."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesData
from .errors import ParameterError
from .estimation import (ElsConfig, EstimationReport, check_noise_terms, els_core, els_sweep,
                         is_int, ls_estimate)
from .model import CandidateSet, NarxModel, RegressorTerm
from .regression import build_regression

_ZERO_COLUMN_RTOL = 1e-12


@dataclass(frozen=True)
class ErrRanking:
    """Greedy forward-selection ranking of candidate terms.

    ``err_values[i]`` is the fraction of output energy explained by the
    i-th selected term after orthogonalization against its predecessors;
    ``skipped`` lists terms whose columns became numerically zero.
    """

    ordered_terms: tuple
    err_values: np.ndarray
    candidates: CandidateSet
    skipped: tuple = ()

    @property
    def cumulative_err(self):
        return np.cumsum(self.err_values)

    def __len__(self):
        return len(self.ordered_terms)


def frols_rank(candidates: CandidateSet, data: TimeSeriesData, max_terms=None,
               err_floor=1e-10):
    """Rank candidate terms by error reduction ratio.

    At each step every remaining candidate column is orthogonalized
    against the already-selected columns; the candidate explaining the
    largest fraction of the output energy is selected.  Selection stops
    at ``max_terms`` or when the best remaining ratio falls below
    ``err_floor``.  Ties break on canonical term order, which also makes
    the result independent of candidate input order.  ``max_terms``
    (default ``min(30, len(candidates))``) must be an integer in
    1..len(candidates) and ``err_floor`` finite and nonnegative.
    """
    if len(candidates) == 0:
        raise ParameterError("empty candidate set")
    if max_terms is None:
        max_terms = min(30, len(candidates))
    if not is_int(max_terms) or not 1 <= max_terms <= len(candidates):
        raise ParameterError(f"max_terms must be an integer in 1..{len(candidates)}")
    if not np.isfinite(err_floor) or err_floor < 0:
        raise ParameterError("err_floor must be finite and nonnegative")

    order = sorted(range(len(candidates.terms)), key=lambda i: candidates.terms[i].sort_key())
    terms = [candidates.terms[i] for i in order]
    psi, y_s = build_regression(candidates, data)
    # Psi column-major, one row per column: the live columns are the
    # contiguous rows work[:n_live], and at[p] is the term index of row p
    work = psi.T[order]
    at = np.arange(len(terms))
    yty = float(y_s @ y_s)
    if yty == 0.0:
        raise ParameterError("target vector has zero energy")
    floor = _ZERO_COLUMN_RTOL * np.maximum(np.einsum("ij,ij->i", work, work), 1.0)

    n_live = len(terms)  # columns not yet selected
    selected, err_values, skipped = [], [], []
    basis = []  # orthonormal selected columns
    while n_live and len(selected) < max_terms:
        live = work[:n_live]
        ww = np.einsum("ij,ij->i", live, live)
        ok = np.flatnonzero(ww > floor[at[:n_live]])
        ok = ok[np.argsort(at[ok])]  # scan in canonical term order
        errs = (live @ y_s)[ok] ** 2 / (ww[ok] * yty)
        best_p, best_err = None, -1.0
        for p, err in zip(ok.tolist(), errs.tolist()):
            if err > best_err + 1e-15:
                best_err = err
                best_p = p
        if best_p is None:
            skipped = sorted(at[:n_live].tolist())
            break
        if best_err < err_floor:
            break
        # swap the selected column just past the live block
        n_live -= 1
        work[[best_p, n_live]] = work[[n_live, best_p]]
        at[[best_p, n_live]] = at[[n_live, best_p]]
        w = work[n_live]
        # re-orthogonalization pass against the accumulated basis
        for q in basis:
            w = w - (q @ w) * q
        q = w / np.linalg.norm(w)
        basis.append(q)
        selected.append(int(at[n_live]))
        err_values.append((float(w @ y_s) ** 2) / (float(w @ w) * yty))
        # deflate the live columns only
        live = work[:n_live]
        live -= np.outer(live @ q, q)

    return ErrRanking(
        ordered_terms=tuple(terms[j] for j in selected),
        err_values=np.array(err_values),
        candidates=candidates,
        skipped=tuple(terms[j] for j in skipped),
    )


@dataclass(frozen=True)
class AicCurve:
    """Information-criterion cost as a function of model size.

    ``j_values[i]`` is the cost of the model with ``n_theta_values[i]``
    top-ranked terms; invalid points (failed estimations) are NaN and
    excluded from the argmin.  ``converged[i]`` tells whether the
    estimator converged at that point (always true for least squares,
    false for a failed point), and ``iterations[i]`` how many iterations
    it ran (1 for least squares, 0 for a failed point).
    """

    n_theta_values: np.ndarray
    j_values: np.ndarray
    converged: tuple = ()
    iterations: tuple = ()

    @property
    def argmin(self):
        valid = np.where(np.isfinite(self.j_values))[0]
        if valid.size == 0:
            raise ParameterError("no valid point on the information-criterion curve")
        return int(self.n_theta_values[valid[np.argmin(self.j_values[valid])]])


@dataclass(frozen=True)
class SelectionConfig:
    """Estimator settings of the ranking/truncation pipeline."""

    estimator: str = "els"  # final re-estimation: "ls" or "els"
    sweep_estimator: str = "ls"  # estimator inside the information-criterion sweep
    n_noise_terms: int = 1
    els: ElsConfig = field(default_factory=ElsConfig)

    def __post_init__(self):
        if self.estimator not in ("ls", "els"):
            raise ParameterError(f"unknown estimator {self.estimator!r}")
        if self.sweep_estimator not in ("ls", "els"):
            raise ParameterError(f"unknown sweep estimator {self.sweep_estimator!r}")
        check_noise_terms(self.n_noise_terms)


def aic_curve(ranking: ErrRanking, data: TimeSeriesData, config=SelectionConfig()):
    """Cost curve N*ln(residual variance) + 2*n over the ranked term list.

    The residual variance at each size is that of the one-step-ahead
    residuals y - Psi theta of the truncated model, re-estimated on the
    data.  All sizes share the row frame of the full candidate set so the
    variances are comparable.  Every size is estimated in one
    :func:`els_sweep` call over the ranked columns, with no noise columns
    for least squares; a size the sweep could not fit is a NaN point.
    The sweep uses ``config.sweep_estimator``, ``config.els`` and
    ``config.n_noise_terms``.
    """
    if len(ranking) == 0:
        raise ParameterError("empty ranking")
    psi, y_s = build_regression(ranking.candidates, data)
    col_of = {t: i for i, t in enumerate(ranking.candidates.terms)}
    cols = [col_of[t] for t in ranking.ordered_terms]
    sizes = np.arange(1, len(ranking) + 1)
    n_noise_terms = config.n_noise_terms if config.sweep_estimator == "els" else 0
    fits = els_sweep(psi, y_s, cols, sizes, n_noise_terms, config.els)
    ranked = psi.take(cols, axis=1)
    costs = np.full(len(sizes), np.nan)
    converged, iterations = [False] * len(sizes), [0] * len(sizes)
    for i, (n_theta, fit) in enumerate(zip(sizes, fits)):
        if not isinstance(fit, EstimationReport):
            continue  # the error that failed this size
        converged[i], iterations[i] = fit.converged, fit.iterations
        var = float(np.var(y_s - ranked[:, :n_theta] @ fit.theta))
        if var <= 0:
            var = np.finfo(float).tiny
        costs[i] = len(y_s) * np.log(var) + 2.0 * n_theta
    return AicCurve(n_theta_values=sizes, j_values=costs, converged=tuple(converged),
                    iterations=tuple(iterations))


def select_structure(candidates: CandidateSet, data: TimeSeriesData,
                     config=SelectionConfig()):
    """Full structure-selection pipeline.

    Ranks the candidates, truncates at the information-criterion argmin,
    and re-estimates the parameters of the selected terms on the full
    data with the configured estimator.  Returns the model together with
    the ranking, the cost curve, and the final estimation report.
    """
    ranking = frols_rank(candidates, data)
    curve = aic_curve(ranking, data, config)
    n_sel = curve.argmin
    chosen = ranking.ordered_terms[:n_sel]
    psi, y_s = build_regression(chosen, data)
    if config.estimator == "els":
        report = els_core(psi, y_s, config.n_noise_terms, config.els)
    else:
        report = ls_estimate(psi, y_s)
    model = NarxModel(
        process_terms=chosen,
        theta=tuple(report.theta),
        meta=candidates.meta,
        ts=data.ts,
        label=data.label,
    )
    return model, ranking, curve, report
