"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

All solvers go through orthogonal decompositions rather than the normal
equations, which keeps the condition number of the data matrix instead
of its square.  Extended least squares has one implementation,
:func:`els_sweep`, which fits several column prefixes of one regression
matrix together: the prefixes share a single Householder QR (the QR of a
column prefix is the prefix of the QR), and each iteration borders that
factorization with the noise columns of every size still iterating, at
O(m n k) work per size for m rows, n process and k noise columns.  The
noise columns are views of one zero-padded residual buffer, and the
border W (the part of the noise columns orthogonal to Q) is left
unnormalised: it is orthogonalized against Q a second time only when one
pass lost more than half a column's squared norm ("twice is enough":
Daniel, Gragg, Kaufman & Stewart 1976), its squared column norms serve
the rank check and the solve, and the new residual is the prefix's
least-squares residual minus W phi, so no iteration forms Psi theta.
:func:`els_core` is its one-size case and :func:`ls_estimate` the
one-size case without noise columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConstraintError, ParameterError, SingularMatrixError
from .regression import build_regression  # noqa: F401  perfbench/tracing.py wraps this binding

_RANK_RTOL = 1e-10
#: prefix sizes iterated together; bounds the m x block working buffers
_BLOCK_SIZES = 10


def is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ElsConfig:
    """Convergence limit (quadratic norm of the parameter change) and
    iteration cap for the extended least-squares loop."""

    zeta: float = 1e-8
    max_iterations: int = 30

    def __post_init__(self):
        if not (self.zeta > 0) or not is_int(self.max_iterations) or self.max_iterations < 1:
            raise ParameterError("zeta must be positive and max_iterations an integer >= 1")


def check_noise_terms(n_noise_terms):
    """Raise :class:`ParameterError` unless ``n_noise_terms`` is an integer >= 0."""
    if not is_int(n_noise_terms) or n_noise_terms < 0:
        raise ParameterError("n_noise_terms must be a nonnegative integer")


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


def _fit_block(a, y_s, q, r, qty, sizes, n_noise_terms, config):
    """Fit the prefix sizes ``sizes`` (ascending, all of full rank) together.

    ``a`` holds the ranked columns, factored as ``q r``.  Returns
    ``{position in sizes: report or SingularMatrixError}``.  Every size
    still iterating has done the same number of iterations, so one counter
    serves the block; a size leaves the block when it converges or its
    noise columns fail the rank check.  The tall buffers hold one row per
    size.
    """
    m, k = len(y_s), n_noise_terms
    diag = np.abs(np.diag(r))
    lo, hi = np.minimum.accumulate(diag), np.maximum.accumulate(diag)
    n_top = sizes[-1]
    below = np.arange(n_top) < sizes[:, None]  # columns inside each size's prefix
    theta = np.linalg.solve(r[:n_top, :n_top], (qty[:n_top] * below).T).T
    # least-squares residual of each prefix, one row per size
    r0 = np.ascontiguousarray((y_s[:, None] - a[:, :n_top] @ theta.T).T)
    if k == 0:
        return {j: EstimationReport(theta=theta[j, :s].copy(), residuals=r0[j].copy())
                for j, s in enumerate(sizes)}
    # the residual Xi is lagged from, after k zeros: lag l is buf[:, k - l:m + k - l]
    buf = np.zeros((len(sizes), m + k))
    buf[:, k:] = r0
    pos = np.arange(len(sizes))
    phi = np.zeros((k, len(sizes)))
    history, fits, iterations = [], {}, 0

    def report(j, converged):
        # the residual y - Psi theta - Xi phi itself, not its projected form,
        # so that it holds exactly for the reported theta and phi; buf still
        # holds the residual this iteration's Xi was lagged from
        s = sizes[j]
        lags = sliding_window_view(buf[j], k)[:m]  # row i holds lags k, ..., 1
        return EstimationReport(
            theta=theta[j, :s].copy(),
            residuals=y_s - a[:, :s] @ theta[j, :s] - lags @ phi[::-1, j],
            iterations=iterations,
            converged=converged,
            noise_theta=phi[:, j].copy(),
            change_norms=tuple(float(h[j]) for h in history),
        )

    stay = None  # set when sizes leave the block
    w = None
    while True:
        if stay is not None:
            w = None  # reallocated for the sizes that stay
            sizes, pos, theta, below, r0, buf = (
                x[stay] for x in (sizes, pos, theta, below, r0, buf))
            phi = phi[:, stay]
            history = [h[stay] for h in history]
            stay = None
        if not sizes.size:
            break
        if w is None:
            n_top = sizes[-1]
            theta, below = theta[:, :n_top], below[:, :n_top]
            qb, r_top, qty_below = q[:, :n_top], r[:n_top, :n_top], qty[:n_top] * below
            w, c = np.empty((k, len(sizes), m)), np.empty((k, len(sizes), n_top))
        # border W = Xi - Q C with C = Q^T Xi, masked to each size's prefix
        for l in range(k):
            lag = buf[:, k - 1 - l:m + k - 1 - l]  # lag l + 1
            np.matmul(lag, qb, out=c[l])
            c[l] *= below
            np.matmul(c[l], qb.T, out=w[l])
            np.subtract(lag, w[l], out=w[l])
        d = np.einsum("...i,...i->...", w, w)
        # Xi = Q C + W with W orthogonal to Q, so a column kept less than
        # 1/sqrt(2) of its norm exactly when |W|^2 < |C|^2.  Only then does a
        # second pass against Q run; otherwise one pass is orthogonal to
        # working precision (Daniel, Gragg, Kaufman & Stewart 1976).
        if np.any(d < np.einsum("...i,...i->...", c, c)):
            for l in range(k):
                c2 = (w[l] @ qb) * below
                w[l] -= c2 @ qb.T
                c[l] += c2
            d = np.einsum("...i,...i->...", w, w)
        # scaled Gram-Schmidt among the lags, twice against each predecessor:
        # W = V U with V's columns orthogonal (kept in w), U unit upper
        # triangular, and d the squared column norms of V, which are R_W's
        # squared diagonal.  A lag is divided by only after its norm passed
        # the rank check.
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
            failed = (np.minimum(lo[sizes - 1], root.min(axis=0))
                      <= _RANK_RTOL * np.maximum(hi[sizes - 1], root.max(axis=0)))
            if failed.any():
                break
        if failed.any():
            for j in np.flatnonzero(failed):
                fits[pos[j]] = _rank_error(np.concatenate([diag[:sizes[j]], root[:, j]]))
            stay = ~failed
            continue
        iterations += 1
        # back substitution: U phi = D^-1 V^T y, then R theta = Q^T y - C phi
        # for every size at once; a right-hand side that is zero beyond
        # column s solves the leading s x s block.  The LU inside
        # np.linalg.solve has L = I on triangular R, so this is the
        # triangular solve, and it keeps the loop in numpy's BLAS (scipy's
        # has its own thread pool, and the two pools contend when their
        # calls alternate).
        g = (w @ y_s) / d
        phi_new = np.empty_like(g)
        for l in reversed(range(k)):
            phi_new[l] = g[l] - np.einsum("pj,pj->j", u[l, l + 1:], phi_new[l + 1:])
        theta_new = np.linalg.solve(
            r_top, (qty_below - np.einsum("lji,lj->ji", c, phi_new)).T).T
        change = np.sqrt(np.sum((theta_new - theta) ** 2, axis=1)
                         + np.sum((phi_new - phi) ** 2, axis=0))
        history.append(change)
        theta, phi = theta_new, phi_new
        done = change < config.zeta
        finished = done | (iterations == config.max_iterations)
        if finished.any():
            for j in np.flatnonzero(finished):
                fits[pos[j]] = report(j, bool(done[j]))
            stay = ~finished
        # next residual y - Psi theta - Xi phi = r0 - W phi = r0 - V g, as W
        # is orthogonal to Q; it overwrites the one Xi was lagged from
        xi = buf[:, k:]
        w *= g[:, :, None]
        np.subtract(r0, w[0], out=xi)
        for l in range(1, k):
            xi -= w[l]
    return fits


def els_sweep(psi, y_s, cols, sizes, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on several column prefixes of one matrix.

    Entry i of the returned list is what
    ``els_core(psi[:, cols[:sizes[i]]], y_s, n_noise_terms, config)``
    returns, or the :class:`ParameterError` / :class:`SingularMatrixError`
    it raises for that size; invalid arguments raise for the whole call.
    ``sizes`` must be increasing and within 1..len(cols).

    The ranked columns are factored once.  Sizes are fitted in blocks of
    ``_BLOCK_SIZES``, each block using only the Q prefix it needs and
    forming each size's least-squares residual r0 once.  The noise columns
    Xi are views of one residual buffer padded with k zeros.  Each
    iteration forms C = Q^T Xi (masked to each size's prefix) and the
    unnormalised border W = Xi - Q C, repeated on W only if |W|^2 < |C|^2
    for some column, i.e. it kept less than 1/sqrt(2) of its norm; for
    k > 1 a scaled Gram-Schmidt W = V U (U unit upper triangular) makes the
    lags orthogonal.  Then U phi = D^-1 V^T y with D the squared norms of V
    (phi = W^T y / W^T W for k = 1), one triangular solve on R for all
    sizes, and the next residual r0 - W phi in place, after the finishing
    sizes have reported y - Psi theta - Xi phi.  The rank
    check is applied per size to the prefix diagonal of R and to sqrt(D),
    each lag before it is divided by; each size keeps its own convergence
    test.
    """
    psi = np.asarray(psi, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    check_noise_terms(n_noise_terms)
    if psi.ndim != 2:
        raise ParameterError("regression matrix must be 2-D")
    cols = np.asarray(cols, dtype=int)
    sizes = np.asarray(sizes, dtype=int)
    if (sizes.ndim != 1 or not sizes.size or sizes[0] < 1 or sizes[-1] > len(cols)
            or np.any(np.diff(sizes) <= 0)):
        raise ParameterError("sizes must increase within 1..len(cols)")
    m = psi.shape[0]
    k = n_noise_terms
    # row-major like psi, so a one-size fit's Psi theta sums each row as psi @ theta does
    a = psi.take(cols[:min(sizes[-1], m)], axis=1)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    rank_bad = np.minimum.accumulate(diag) <= _RANK_RTOL * np.maximum.accumulate(diag)
    fits = []
    for s in sizes:
        if s > m:
            fits.append(ParameterError(f"underdetermined system: {m} rows < {s} columns"))
        elif rank_bad[s - 1]:
            fits.append(_rank_error(diag[:s]))
        elif k and m < s + k:
            fits.append(ParameterError(f"underdetermined system: {m} rows < {s + k} columns"))
        else:
            fits.append(None)
    # the failing sizes are a suffix: rows run out, and a rank deficiency
    # stays once the largest diagonal entry has outgrown a small one
    n_ok = fits.count(None)
    qty = q.T @ y_s
    for start in range(0, n_ok, _BLOCK_SIZES):
        block = sizes[start:min(start + _BLOCK_SIZES, n_ok)]
        for j, fit in _fit_block(a, y_s, q, r, qty, block, k, config).items():
            fits[start + j] = fit
    return fits


def _fit_one(psi, y_s, n_noise_terms, config):
    """The one-size case of :func:`els_sweep`: all columns, failure raised."""
    psi = np.asarray(psi, dtype=float)
    n = psi.shape[1] if psi.ndim == 2 else 0
    (fit,) = els_sweep(psi, y_s, np.arange(n), [n], n_noise_terms, config)
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
