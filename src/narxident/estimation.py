"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

All solvers go through orthogonal decompositions rather than the normal
equations, which keeps the condition number of the data matrix instead
of its square.  Extended least squares factors the process regression
matrix once per call and borders that factorization with the noise
columns on each iteration, so an iteration costs O(m n k) for m rows, n
process and k noise columns instead of a fresh QR of all n + k columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .data import TimeSeriesData
from .errors import ConstraintError, ParameterError, SingularMatrixError
from .model import CandidateSet
from .regression import build_regression

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ElsConfig:
    """Convergence limit (quadratic norm of the parameter change) and
    iteration cap for the extended least-squares loop."""

    zeta: float = 1e-8
    max_iterations: int = 30

    def __post_init__(self):
        if not (self.zeta > 0) or self.max_iterations < 1:
            raise ParameterError("zeta must be positive and max_iterations >= 1")


@dataclass(frozen=True)
class EstimationReport:
    """Result of an estimation run.

    ``theta`` holds the process parameters only; moving-average noise
    parameters, when present, are in ``noise_theta``.  ``change_norms``
    records the parameter-change norm of each extension iteration.
    """

    theta: np.ndarray
    residuals: np.ndarray
    iterations: int = 1
    converged: bool = True
    noise_theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    change_norms: tuple = ()

    @property
    def residual_variance(self):
        return float(np.var(self.residuals))


def _check_rank(diag):
    """Raise at the first |R_ii| at or below ``_RANK_RTOL`` times the largest."""
    diag = np.abs(diag)
    tol = _RANK_RTOL * (diag.max() if diag.size else 1.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise SingularMatrixError(
            f"regression matrix numerically rank deficient at column {bad[0]}",
            column=int(bad[0]),
        )


def _qr_factor(psi):
    """Householder QR ``psi = q @ r`` (reduced) with an explicit rank check."""
    if psi.ndim != 2:
        raise ParameterError("regression matrix must be 2-D")
    m, n = psi.shape
    if m < n:
        raise ParameterError(f"underdetermined system: {m} rows < {n} columns")
    q, r = np.linalg.qr(psi)
    _check_rank(np.diag(r))
    return q, r


def ls_estimate(psi, y_s):
    """Ordinary least squares via Householder QR.

    Returns an :class:`EstimationReport` with the residual vector
    ``y_s - psi @ theta``.
    """
    psi = np.asarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    q, r = _qr_factor(psi)
    theta = scipy.linalg.solve_triangular(r, q.T @ y_s)
    return EstimationReport(theta=theta, residuals=y_s - psi @ theta)


def _lagged_columns(xi, n_lags):
    """Lagged copies of a residual vector within the regression row frame.

    Rows without lagged-residual history get 0.
    """
    m = len(xi)
    cols = np.zeros((m, n_lags))
    for j in range(1, n_lags + 1):
        cols[j:, j - 1] = xi[:-j]
    return cols


def els_core(psi, y_s, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on a prebuilt regression matrix.

    Iteratively appends lagged copies of the residual vector as
    moving-average columns Xi and re-estimates until the parameter change
    drops below ``config.zeta``.  With ``n_noise_terms=0`` this is
    exactly ordinary least squares.

    Psi (m x n) is factored once per call.  Each iteration borders that
    factorization with the k noise columns: C = Q^T Xi and W = Xi - Q C
    (with one re-orthogonalization pass), a small QR of W, and one
    triangular solve on [[R, C], [0, R_W]].  That is O(m n k) work per
    iteration instead of a QR of the full m x (n + k) matrix; the rank
    check covers the diagonal of the bordered factor.
    """
    psi = np.asarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    q, r = _qr_factor(psi)
    qty = q.T @ y_s
    theta = scipy.linalg.solve_triangular(r, qty)
    xi = y_s - psi @ theta
    if n_noise_terms == 0:
        return EstimationReport(theta=theta, residuals=xi)
    m, n_proc = psi.shape
    n_full = n_proc + n_noise_terms
    if m < n_full:
        raise ParameterError(f"underdetermined system: {m} rows < {n_full} columns")
    bordered = np.zeros((n_full, n_full))
    bordered[:n_proc, :n_proc] = r
    rhs = np.empty(n_full)
    rhs[:n_proc] = qty
    theta_prev = np.concatenate([theta, np.zeros(n_noise_terms)])
    change_norms = []
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        noise_cols = _lagged_columns(xi, n_noise_terms)
        c = q.T @ noise_cols
        w = noise_cols - q @ c
        c2 = q.T @ w
        w -= q @ c2
        q_w, r_w = np.linalg.qr(w)
        _check_rank(np.concatenate([np.diag(r), np.diag(r_w)]))
        bordered[:n_proc, n_proc:] = c + c2
        bordered[n_proc:, n_proc:] = r_w
        rhs[n_proc:] = q_w.T @ y_s
        theta_full = scipy.linalg.solve_triangular(bordered, rhs)
        xi = y_s - psi @ theta_full[:n_proc] - noise_cols @ theta_full[n_proc:]
        change = float(np.linalg.norm(theta_full - theta_prev))
        change_norms.append(change)
        theta_prev = theta_full
        if change < config.zeta:
            converged = True
            break
    return EstimationReport(
        theta=theta_prev[:n_proc],
        residuals=xi,
        iterations=iterations,
        converged=converged,
        noise_theta=theta_prev[n_proc:],
        change_norms=tuple(change_norms),
    )


def els_estimate(candidates: CandidateSet, data: TimeSeriesData, n_noise_terms=1,
                 config=ElsConfig()):
    """Extended least squares over a candidate set and data record."""
    if n_noise_terms < 0:
        raise ParameterError("n_noise_terms must be nonnegative")
    psi, y_s = build_regression(candidates, data)
    return els_core(psi, y_s, n_noise_terms, config)


def constrained_ls_estimate(psi, y_s, constraints):
    """Least squares subject to linear equality constraints c^T theta = b.

    Solved by the null-space method: a particular solution of the
    constraint system plus an unconstrained fit in its null space, so the
    constraints hold to machine precision.
    """
    psi = np.asarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    if not constraints:
        return ls_estimate(psi, y_s)
    c_mat = np.vstack([np.asarray(c, dtype=float) for c, _ in constraints])
    b_vec = np.array([float(b) for _, b in constraints])
    n = psi.shape[1]
    if c_mat.shape[1] != n:
        raise ConstraintError("constraint vectors must match the parameter dimension")
    if c_mat.shape[0] >= n:
        raise ConstraintError("need fewer constraints than parameters")
    if np.linalg.matrix_rank(c_mat) < c_mat.shape[0]:
        raise ConstraintError("constraints are linearly dependent")
    theta_p, *_ = np.linalg.lstsq(c_mat, b_vec, rcond=None)
    if np.linalg.norm(c_mat @ theta_p - b_vec) > 1e-8 * max(1.0, np.linalg.norm(b_vec)):
        raise ConstraintError("constraints are inconsistent")
    z = scipy.linalg.null_space(c_mat)
    reduced = ls_estimate(psi @ z, y_s - psi @ theta_p)
    theta = theta_p + z @ reduced.theta
    residuals = y_s - psi @ theta
    return EstimationReport(theta=theta, residuals=residuals)
