"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

All solvers go through orthogonal decompositions rather than the normal
equations, which keeps the condition number of the data matrix instead
of its square.  Extended least squares has one implementation,
:func:`els_sweep`, which fits several column prefixes of the matrix it is
given in one block: the prefixes share a single Householder QR (the QR of
a column prefix is the prefix of the QR), and each iteration borders
that factorization with the noise columns of every size, at O(m n k)
work per size for m rows, n process and k noise columns.  The
noise columns are views of one zero-padded residual buffer, and the
border W (the part of the noise columns orthogonal to Q) is left
unnormalised.  Its squared column norms serve the rank check and the
solve, and the new residual is the prefix's least-squares residual minus
W phi, so no iteration forms Psi theta.  Nor does one solve with R: the
process parameters are the prefix's least-squares fit minus R^-1 C phi,
C the noise columns' coordinates in Q, with R^-1 formed once per call.
:func:`els_core` is its one-size case and :func:`ls_estimate` the
one-size case without noise columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConstraintError, ParameterError, SingularMatrixError
from .model import is_int, is_real
from .regression import build_regression  # noqa: F401  perfbench/tracing.py wraps this binding

_RANK_RTOL = 1e-10
_REORTH_KAPPA = 10.0  # the second-pass gate in els_sweep


@dataclass(frozen=True)
class ElsConfig:
    """Convergence limit (quadratic norm of the parameter change) and
    iteration cap for the extended least-squares loop."""

    zeta: float = 1e-8
    max_iterations: int = 30

    def __post_init__(self):
        if (not is_real(self.zeta) or not 0 < self.zeta < np.inf
                or not is_int(self.max_iterations) or self.max_iterations < 1):
            raise ParameterError("zeta must be finite and > 0, max_iterations an integer >= 1")


def check_noise_terms(n_noise_terms):
    """Raise :class:`ParameterError` unless ``n_noise_terms`` is an integer >= 0."""
    if not is_int(n_noise_terms) or n_noise_terms < 0:
        raise ParameterError("n_noise_terms must be a nonnegative integer")


@dataclass(frozen=True)
class EstimationReport:
    """Result of an estimation run.

    ``theta`` holds the process parameters only; moving-average noise
    parameters, when present, are in ``noise_theta``.  ``process_variance``
    is the variance of the process residual y - Psi theta.  ``change_norms``
    records the parameter-change norm of each extension iteration.
    """

    theta: np.ndarray
    residuals: np.ndarray
    process_variance: float
    iterations: int = 1
    converged: bool = True
    noise_theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    change_norms: tuple = ()

    @property
    def residual_variance(self):
        return float(np.var(self.residuals))


def _check_shapes(psi, y_s):
    """Raise :class:`ParameterError` unless Psi is 2-D and y 1-D with a sample per row."""
    if psi.ndim != 2:
        raise ParameterError("regression matrix must be 2-D")
    if y_s.shape != psi.shape[:1]:
        raise ParameterError("target must be 1-D with one sample per regression row")


def _ls_report(theta, residuals, n_noise_terms=0):
    """A least-squares fit as an ELS report: phi = 0, one iteration, converged."""
    return EstimationReport(theta.copy(), residuals.copy(), float(np.var(residuals)),
                            noise_theta=np.zeros(n_noise_terms))


def _rank_error(diag):
    """The error for the first |d_i| at or below ``_RANK_RTOL`` times the largest, or None."""
    diag = np.abs(diag)
    bad = np.flatnonzero(diag <= _RANK_RTOL * diag.max())
    if not bad.size:
        return None
    return SingularMatrixError(
        f"regression matrix numerically rank deficient at column {bad[0]}",
        column=int(bad[0]),
    )


def els_sweep(psi, y_s, sizes, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on several column prefixes of one matrix.

    Entry i of the returned list is what
    ``els_core(psi[:, :sizes[i]], y_s, n_noise_terms, config)`` returns, or
    the :class:`ParameterError` / :class:`SingularMatrixError` it raises
    for that size; invalid arguments raise for the whole call.  ``sizes``
    must be increasing and within 1..psi.shape[1], and ``psi`` and ``y_s``
    finite.

    The columns are factored once and all sizes fitted in one block: the
    tall buffers hold a row for every size that passed the checks before
    the loop, the Q prefix is the largest such size's, and each size's
    residual r0 is formed once.  A size is done when it converges, reaches
    the cap or fails the rank check; its row is still computed but no
    longer read.  The noise columns Xi are views of one residual buffer
    padded with k zeros.  Each iteration forms C = Q^T Xi (masked to each
    size's prefix) and the unnormalised border W = Xi - Q C, with a second
    pass on the columns of W that the gate in the loop flags, and on those
    alone; for k > 1 a scaled Gram-Schmidt W = V U (U unit upper
    triangular) makes the lags orthogonal.  Then U phi = D^-1 V^T y with D
    the squared norms of V (phi = W^T y / W^T W for k = 1), theta =
    theta_LS - R^-1 C phi for all sizes, with theta_LS the prefixes'
    least-squares fits and R^-1 formed once before the loop, and the next
    residual r0 - W phi in place, after the finishing sizes have reported
    y - Psi theta - Xi phi.  The rank check is applied per size to the
    prefix diagonal of R and to sqrt(D), lag by lag; each size keeps its
    own convergence test.  A size whose r0 is at rounding,
    ||r0|| <= ``_RANK_RTOL`` ||y||, fits exactly and has no noise to model:
    it reports its least-squares fit (phi = 0, converged in one iteration)
    and takes no part in the loop.
    """
    # row-major, so a one-size fit's Psi theta sums each row as psi @ theta does
    psi = np.ascontiguousarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    check_noise_terms(n_noise_terms)
    _check_shapes(psi, y_s)
    if not (np.isfinite(psi).all() and np.isfinite(y_s).all()):
        raise ParameterError("regression matrix and target must be finite")
    m, n = psi.shape
    sizes = np.asarray(sizes, dtype=int)
    if (sizes.ndim != 1 or not sizes.size or sizes[0] < 1 or sizes[-1] > n
            or np.any(np.diff(sizes) <= 0)):
        raise ParameterError(f"sizes must increase within 1..{n}")
    k = n_noise_terms
    a = psi[:, :min(sizes[-1], m)]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    lo, hi = np.minimum.accumulate(diag), np.maximum.accumulate(diag)
    fits = []
    for s in sizes:
        if s > m:
            fits.append(ParameterError(f"underdetermined system: {m} rows < {s} columns"))
        elif lo[s - 1] <= _RANK_RTOL * hi[s - 1]:
            fits.append(_rank_error(diag[:s]))
        elif k and m < s + k:
            fits.append(ParameterError(f"underdetermined system: {m} rows < {s + k} columns"))
        else:
            fits.append(None)
    # the failing sizes are a suffix: rows run out, and a rank deficiency
    # stays once the largest diagonal entry has outgrown a small one
    sizes = sizes[:fits.count(None)]
    if not sizes.size:
        return fits
    n_top = sizes[-1]
    qb, r_top = q[:, :n_top], r[:n_top, :n_top]
    below = np.arange(n_top) < sizes[:, None]  # columns inside each size's prefix
    qty_below = (q.T @ y_s)[:n_top] * below
    theta = np.linalg.solve(r_top, qty_below.T).T
    # least-squares residual of each prefix, one row per size
    r0 = np.ascontiguousarray((y_s[:, None] - a[:, :n_top] @ theta.T).T)
    exact = np.sqrt(np.einsum("ij,ij->i", r0, r0)) <= _RANK_RTOL * np.linalg.norm(y_s)
    for j in np.flatnonzero(exact | (k == 0)):  # no noise columns, or no noise to model
        fits[j] = _ls_report(theta[j, :sizes[j]], r0[j], k)
    if k == 0 or exact.all():
        return fits
    # R^-1 is upper triangular and its leading s x s block inverts R's, so one
    # product with it solves every size's prefix (Higham 2002, chs. 8 and 14)
    theta_ls, r_inv_t = theta, np.linalg.solve(r_top, np.eye(n_top)).T
    # the residual Xi is lagged from, after k zeros: lag l is buf[:, k - l:m + k - l]
    buf = np.zeros((len(sizes), m + k))
    buf[:, k:] = r0
    lags = sliding_window_view(buf, k, axis=1)  # lags[j, i] holds size j's lags k, ..., 1
    phi = np.zeros((k, len(sizes)))
    w, c = np.empty((k, len(sizes), m)), np.empty((k, len(sizes), n_top))
    lo, hi = lo[sizes - 1], hi[sizes - 1]
    active = ~exact
    history = np.empty((config.max_iterations, len(sizes)))  # change norms
    # done sizes' rows are still computed, and one that failed the rank
    # check may divide by a zero norm
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iterations + 1):
            # border W = Xi - Q C with C = Q^T Xi, masked to each size's prefix
            for l in range(k):
                lag = buf[:, k - 1 - l:m + k - 1 - l]  # lag l + 1
                np.matmul(lag, qb, out=c[l])
                c[l] *= below
                np.matmul(c[l], qb.T, out=w[l])
                np.subtract(lag, w[l], out=w[l])
            d = np.einsum("...i,...i->...", w, w)
            # Xi = Q C + W with W orthogonal to Q, so a column kept less than
            # 1/kappa of its norm exactly when |C|^2 > (kappa^2 - 1) |W|^2, which
            # is 99 |W|^2 at kappa = 10.  Only then, and only on that column, does
            # a second pass against Q run; a border accepted after one pass is
            # orthogonal to Q to about kappa * eps (Parlett, The Symmetric
            # Eigenvalue Problem, sec. 6.9; Daniel, Gragg, Kaufman & Stewart 1976
            # take kappa = sqrt(2)).
            redo = ((_REORTH_KAPPA ** 2 - 1) * d < np.einsum("...i,...i->...", c, c)) & active
            for l in np.flatnonzero(redo.any(axis=1)):
                rows = np.flatnonzero(redo[l])
                c2 = (w[l, rows] @ qb) * below[rows]
                w[l, rows] -= c2 @ qb.T
                c[l, rows] += c2
                d[l, rows] = np.einsum("ij,ij->i", w[l, rows], w[l, rows])
            # scaled Gram-Schmidt among the lags, twice against each predecessor:
            # W = V U with V's columns orthogonal (kept in w), U unit upper
            # triangular, and d the squared column norms of V, which are R_W's
            # squared diagonal.  A size is done at the first lag whose norm
            # fails the rank check; its row is divided by that norm all the same.
            u = np.zeros((k, k, len(sizes)))
            for l in range(k):
                for _ in range(2):
                    for p in range(l):
                        proj = np.einsum("ij,ij->i", w[p], w[l]) / d[p]
                        w[l] -= proj[:, None] * w[p]
                        u[p, l] += proj
                if l:
                    d[l] = np.einsum("ij,ij->i", w[l], w[l])
                root = np.sqrt(d[:l + 1])
                failed = active & (np.minimum(lo, root.min(axis=0))
                                   <= _RANK_RTOL * np.maximum(hi, root.max(axis=0)))
                for j in np.flatnonzero(failed):
                    fits[j] = _rank_error(np.concatenate([diag[:sizes[j]], root[:, j]]))
                active &= ~failed
            # back substitution: U phi = D^-1 V^T y, then R theta = Q^T y - C phi
            # for every size at once as theta = theta_LS - R^-1 C phi, where C phi
            # is zero beyond column s and so is its product with R^-1
            g = (w @ y_s) / d
            phi_new = np.empty_like(g)
            for l in reversed(range(k)):
                phi_new[l] = g[l] - np.einsum("pj,pj->j", u[l, l + 1:], phi_new[l + 1:])
            theta_new = theta_ls - np.einsum("lji,lj->ji", c, phi_new) @ r_inv_t
            change = np.sqrt(np.sum((theta_new - theta) ** 2, axis=1)
                             + np.sum((phi_new - phi) ** 2, axis=0))
            history[iterations - 1] = change
            theta, phi = theta_new, phi_new
            done = change < config.zeta
            finished = active & (done | (iterations == config.max_iterations))
            for j in np.flatnonzero(finished):
                # the residual y - Psi theta - Xi phi itself, not its projected
                # form, so that it holds exactly for the reported theta and phi;
                # buf still holds the residual this iteration's Xi was lagged from
                s = sizes[j]
                process = y_s - a[:, :s] @ theta[j, :s]
                fits[j] = EstimationReport(
                    theta[j, :s].copy(), process - lags[j, :m] @ phi[::-1, j],
                    float(np.var(process)), iterations=iterations, converged=bool(done[j]),
                    noise_theta=phi[:, j].copy(),
                    change_norms=tuple(history[:iterations, j].tolist()))
            active &= ~finished
            if not active.any():
                break
            # next residual y - Psi theta - Xi phi = r0 - W phi = r0 - V g, as W
            # is orthogonal to Q; it overwrites the one Xi was lagged from
            xi = buf[:, k:]
            w *= g[:, :, None]
            np.subtract(r0, w[0], out=xi)
            for l in range(1, k):
                xi -= w[l]
    return fits


def _fit_one(psi, y_s, n_noise_terms, config):
    """The one-size case of :func:`els_sweep`: all columns, failure raised."""
    psi = np.asarray(psi, dtype=float)
    (fit,) = els_sweep(psi, y_s, [psi.shape[1] if psi.ndim == 2 else 0], n_noise_terms, config)
    if isinstance(fit, Exception):
        raise fit
    return fit


def ls_estimate(psi, y_s):
    """Ordinary least squares via Householder QR.

    Returns an :class:`EstimationReport` with the residual vector
    ``y_s - psi @ theta``.
    """
    return _fit_one(psi, y_s, 0, ElsConfig())


def els_core(psi, y_s, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on a prebuilt regression matrix.

    Iteratively appends lagged copies of the residual vector as
    moving-average columns Xi and re-estimates until the parameter change
    drops below ``config.zeta``.  With ``n_noise_terms=0`` this is
    exactly ordinary least squares.  This is the one-size case of
    :func:`els_sweep`: Psi is factored once per call and each iteration
    borders that factorization with the noise columns.
    """
    return _fit_one(psi, y_s, n_noise_terms, config)


def _null_space(c_mat):
    """Orthonormal null-space basis of a full-row-rank p x n matrix: its
    last n - p right singular vectors, as a column slice of a C-ordered V.
    That is scipy.linalg.null_space's layout, so products with it round alike."""
    return np.ascontiguousarray(np.linalg.svd(c_mat)[2].T)[:, c_mat.shape[0]:]


def constrained_ls_estimate(psi, y_s, constraints):
    """Least squares subject to linear equality constraints c^T theta = b.

    Solved by the null-space method: a particular solution of the
    constraint system plus an unconstrained fit in its null space, so the
    constraints hold to machine precision.
    """
    psi = np.asarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    _check_shapes(psi, y_s)
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
    z = _null_space(c_mat)
    reduced = ls_estimate(psi @ z, y_s - psi @ theta_p)
    theta = theta_p + z @ reduced.theta
    return _ls_report(theta, y_s - psi @ theta)
