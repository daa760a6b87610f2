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
border is orthogonalized against Q a second time only when one pass lost
more than half a column's squared norm ("twice is enough": Daniel, Gragg,
Kaufman & Stewart 1976), and the new residual is the prefix's
least-squares residual minus the border's share Q_W Q_W^T y, so no
iteration forms Psi theta.  :func:`els_core` is its one-size case and
:func:`ls_estimate` the one-size case without noise columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


def _lagged_columns(xi, n_lags, out=None):
    """Lagged copies of residual vectors within the regression row frame.

    ``xi`` is (m,) or (m, b); column j - 1 of the result, (m, n_lags) or
    (m, n_lags, b), holds lag j.  Rows without lagged-residual history
    get 0.
    """
    m = len(xi)
    if out is None:
        out = np.empty((m, n_lags) + xi.shape[1:])
    for j in range(1, n_lags + 1):
        out[:j, j - 1] = 0.0
        out[j:, j - 1] = xi[:m - j]
    return out


def _orthonormalize(w):
    """Gram-Schmidt QR of every m x k slice ``w[:, :, j]`` in place.

    ``w`` becomes the orthonormal factors; returns R as a (k, k, b) array.
    Each column is orthogonalized twice against its predecessors.  A zero
    column stays zero (its R diagonal is 0, which the rank check rejects).
    """
    k, b = w.shape[1:]
    r = np.zeros((k, k, b))
    for l in range(k):
        for _ in range(2):
            for p in range(l):
                proj = np.einsum("ij,ij->j", w[:, p], w[:, l])
                w[:, l] -= w[:, p] * proj
                r[p, l] += proj
        r[l, l] = np.sqrt(np.einsum("ij,ij->j", w[:, l], w[:, l]))
        np.divide(w[:, l], r[l, l], out=w[:, l], where=r[l, l] > 0)
    return r


def _fit_block(psi, y_s, cols, q, r, qty, sizes, n_noise_terms, config):
    """Fit the prefix sizes ``sizes`` (ascending, all of full rank) together.

    Returns ``{position in sizes: report or SingularMatrixError}``.  Every
    size still iterating has done the same number of iterations, so one
    counter serves the block; a size leaves the block when it converges
    or its noise columns fail the rank check.
    """
    m, k = len(y_s), n_noise_terms
    diag = np.abs(np.diag(r))
    lo, hi = np.minimum.accumulate(diag), np.maximum.accumulate(diag)
    n_top = sizes[-1]
    below = np.arange(n_top)[:, None] < sizes  # rows inside each size's prefix
    theta = np.linalg.solve(r[:n_top, :n_top], qty[:n_top, None] * below)
    # least-squares residual of each prefix, theta scattered into psi's column order
    theta_all = np.zeros((psi.shape[1], len(sizes)))
    theta_all[cols[:n_top]] = theta
    r0 = y_s[:, None] - psi @ theta_all
    if k == 0:
        return {j: EstimationReport(theta=theta[:s, j].copy(), residuals=r0[:, j].copy())
                for j, s in enumerate(sizes)}
    xi = r0.copy()
    pos = np.arange(len(sizes))
    phi = np.zeros((k, len(sizes)))
    history, fits, iterations = [], {}, 0

    def report(j, converged):
        # the residual y - Psi theta - Xi phi itself, not its projected form,
        # so that it holds exactly for the reported theta and phi
        theta_j = np.zeros(psi.shape[1])
        theta_j[cols[:sizes[j]]] = theta[:sizes[j], j]
        return EstimationReport(
            theta=theta[:sizes[j], j].copy(),
            residuals=y_s - psi @ theta_j - noise[:, :, j] @ phi[:, j],
            iterations=iterations,
            converged=converged,
            noise_theta=phi[:, j].copy(),
            change_norms=tuple(float(h[j]) for h in history),
        )

    stay = None  # set when sizes leave the block
    noise = None
    while True:
        if stay is not None:
            noise = w = flat = w_flat = None  # free the buffers before xi shrinks
            sizes, pos, theta, phi, r0, xi = (
                sizes[stay], pos[stay], theta[:, stay], phi[:, stay], r0[:, stay], xi[:, stay])
            below = below[:, stay]
            history = [h[stay] for h in history]
            stay = None
        if not sizes.size:
            break
        if noise is None:
            n_top = sizes[-1]
            theta, below = theta[:n_top], below[:n_top]
            qb, r_top, qty_below = q[:, :n_top], r[:n_top, :n_top], qty[:n_top, None] * below
            mask = below[:, None, :]
            noise, w = np.empty((m, k, len(sizes))), np.empty((m, k, len(sizes)))
        flat, w_flat = noise.reshape(m, -1), w.reshape(m, -1)
        # border W = Xi - Q C with C = Q^T Xi.  A second pass against Q runs
        # only if some column kept less than 1/sqrt(2) of its norm; otherwise
        # one pass is orthogonal to working precision (Daniel, Gragg, Kaufman
        # & Stewart 1976).  Xi stays intact for the reported residuals.
        _lagged_columns(xi, k, out=noise)
        c = (qb.T @ flat).reshape(n_top, k, -1) * mask
        np.matmul(qb, c.reshape(n_top, -1), out=w_flat)
        np.subtract(flat, w_flat, out=w_flat)
        if np.any(np.einsum("ij,ij->j", w_flat, w_flat)
                  < 0.5 * np.einsum("ij,ij->j", flat, flat)):
            c2 = (qb.T @ w_flat).reshape(n_top, k, -1) * mask
            w_flat -= qb @ c2.reshape(n_top, -1)
            c += c2
        r_w = _orthonormalize(w)
        d_w = np.abs(r_w[np.arange(k), np.arange(k)])
        top = np.maximum(hi[sizes - 1], d_w.max(axis=0))
        failed = np.minimum(lo[sizes - 1], d_w.min(axis=0)) <= _RANK_RTOL * top
        if failed.any():
            for j in np.flatnonzero(failed):
                fits[pos[j]] = _rank_error(np.concatenate([diag[:sizes[j]], d_w[:, j]]))
            stay = ~failed
            continue
        iterations += 1
        # back substitution: R_W phi = Q_W^T y, then R theta = Q^T y - C phi
        # for every size at once; a right-hand side that is zero below row s
        # solves the leading s x s block.  The LU inside np.linalg.solve has
        # L = I on triangular R, so this is the triangular solve, and it keeps
        # the loop in numpy's BLAS (scipy's has its own thread pool, and the
        # two pools contend when their calls alternate).
        rhs_w = (y_s @ w_flat).reshape(k, -1)
        phi_new = np.empty_like(rhs_w)
        for l in reversed(range(k)):
            known = np.einsum("pj,pj->j", r_w[l, l + 1:], phi_new[l + 1:])
            phi_new[l] = (rhs_w[l] - known) / r_w[l, l]
        theta_new = np.linalg.solve(r_top, qty_below - np.einsum("ilj,lj->ij", c, phi_new))
        # residual y - Psi theta - Xi phi = r0 - Q_W Q_W^T y, as Q_W is orthogonal to Q
        np.einsum("ilj,lj->ij", w, rhs_w, out=xi)
        np.subtract(r0, xi, out=xi)
        change = np.sqrt(np.sum((theta_new - theta) ** 2, axis=0)
                         + np.sum((phi_new - phi) ** 2, axis=0))
        history.append(change)
        theta, phi = theta_new, phi_new
        done = change < config.zeta
        finished = done | (iterations == config.max_iterations)
        if finished.any():
            for j in np.flatnonzero(finished):
                fits[pos[j]] = report(j, bool(done[j]))
            stay = ~finished
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
    forming each size's least-squares residual r0 once.  Each iteration of
    a block forms C = Q^T Xi for all its sizes in one matrix product
    (masked to each size's prefix) and the border W = Xi - Q C, repeated
    on W only if some column of the block kept less than 1/sqrt(2) of its
    norm; then a small QR W = Q_W R_W of each size, one triangular solve on
    R for all sizes, and the residual r0 - Q_W Q_W^T y.  The rank check is
    applied per size to the prefix diagonal of R and the diagonal of its
    R_W, and each size keeps its own convergence test.
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
    q, r = np.linalg.qr(psi[:, cols[:min(sizes[-1], m)]])
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
        for j, fit in _fit_block(psi, y_s, cols, q, r, qty, block, k, config).items():
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
