"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

The regression matrix is solved through its Householder QR, never its
normal equations.  Extended least squares has one implementation,
:func:`els_sweep`, which fits several column prefixes of the matrix it is
given in one block: the prefixes share one QR (the QR of a column prefix
is the prefix of the QR), and each iteration borders that factorization
with the k noise columns Xi of every size, at O(m n k) work per size for
m rows and n process columns.  The border W = Xi - Q C, with C = Q^T Xi,
is never stored: the solve needs only its k x k Gram Xi^T Xi - C^T C and
W^T y, and both come from one matrix product of the residual rows with
[Q^T; y] in a stacked buffer, where a second product writes the next
residual.  The Gram keeps a noise column to kappa^2 eps of its norm, so a
size where some noise column keeps less than 1/kappa of its norm outside Q
and the earlier lags takes the explicit border, with a second pass against
Q, on its rows alone.  No iteration solves with R either: the process
parameters are the prefix's least-squares fit minus R^-1 C phi, with R^-1
formed once per call.  :func:`els_core` is its one-size case and
:func:`ls_estimate` the one-size case without noise columns.
"""

from __future__ import annotations

import itertools
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


def _checked(psi, y_s):
    """Psi and y as float arrays; :class:`ParameterError` unless they are real
    (the cast would drop an imaginary part), Psi 2-D and y 1-D with a sample per row."""
    if np.iscomplexobj(psi) or np.iscomplexobj(y_s):
        raise ParameterError("regression matrix and target must be real")
    psi, y_s = np.asarray(psi, dtype=float), np.asarray(y_s, dtype=float)
    if psi.ndim != 2:
        raise ParameterError("regression matrix must be 2-D")
    if y_s.shape != psi.shape[:1]:
        raise ParameterError("target must be 1-D with one sample per regression row")
    return psi, y_s


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
    must be integers increasing within 1..psi.shape[1], and ``psi`` and
    ``y_s`` real and finite.

    The columns are factored once and the sizes that pass the checks before
    the loop fitted in one block, C = Q^T Xi masked to each size's prefix.
    One buffer holds the rows [Xi_A; Q^T; y; Xi_B], its columns aligned so
    that Q(t), y(t) and xi(t - 1) share one; the residual halves take turns,
    each iteration lagging the noise columns Xi from one and writing the
    next residual into the other.  A product of the lag rows with
    [Q^T; y] gives C and Xi^T y, so the border W = Xi - Q C is not formed:
    its Gram is Xi^T Xi - C^T C, the lag products taken over column windows,
    and W^T y = Xi^T y - C^T c0, c0 the masked Q^T y.  The Gram's LDL^T
    factors U^T D U (U unit upper triangular) give U phi = D^-1 U^-T W^T y,
    phi = W^T y / W^T W for k = 1, and theta = theta_LS - R^-1 C phi with
    theta_LS the prefixes' least-squares fits and R^-1 formed once.  One
    product [-diag(phi_1) | -(c0 - C phi) | 1] [Xi; Q^T; y] then writes the
    next residual y - Psi theta - Xi phi; lags 2..k are subtracted after it.

    The gate in the loop sends a size to the explicit border when one of
    its noise columns keeps less than 1/kappa of its norm outside Q and the
    earlier lags: W formed on that size's rows, a second pass against Q and
    Gram-Schmidt twice among the lags.  The rank check is applied per size
    to the prefix diagonal of R and to sqrt(D), lag by lag; a size is done
    when it converges, reaches the cap or fails the rank check, and its row
    is then zeroed.  A size whose least-squares residual r0 is at rounding,
    ||r0|| <= ``_RANK_RTOL`` ||y||, has no noise to model: it reports its
    least-squares fit (phi = 0, converged in one iteration) and takes no
    part in the loop.
    """
    # row-major, so a one-size fit's Psi theta sums each row as psi @ theta does
    psi, y_s = _checked(psi, y_s)
    psi = np.ascontiguousarray(psi)
    check_noise_terms(n_noise_terms)
    if not (np.isfinite(psi).all() and np.isfinite(y_s).all()):
        raise ParameterError("regression matrix and target must be finite")
    m, n = psi.shape
    sizes = np.asarray(sizes, dtype=object)
    if (sizes.ndim != 1 or not sizes.size or not all(map(is_int, sizes)) or sizes[0] < 1
            or sizes[-1] > n or np.any(np.diff(sizes) <= 0)):
        raise ParameterError(f"sizes must be integers increasing within 1..{n}")
    sizes, k = sizes.astype(int), n_noise_terms
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
    n_top, n_sizes = sizes[-1], len(sizes)
    r_top = r[:n_top, :n_top]
    below = np.arange(n_top) < sizes[:, None]  # columns inside each size's prefix
    qty_below = (q.T @ y_s)[:n_top] * below  # c0
    theta = np.linalg.solve(r_top, qty_below.T).T
    # rows [Xi_A; Q^T; y; Xi_B]: a residual row holds k zeros, then xi(0..m-1), so
    # lag l is its window k - l:m + k - l, and Q^T and y sit in lag 1's.  Each
    # half is paired with the rows the second product reads: it, Q^T and y.
    stacked = np.zeros((2 * n_sizes + n_top + 1, m + max(k, 1)))
    halves = [(slice(0, n_sizes), slice(0, n_sizes + n_top + 1)),
              (slice(n_sizes + n_top + 1, None), slice(n_sizes, None))]
    r0 = stacked[:n_sizes, -m:]  # least-squares residual of each prefix
    np.subtract(y_s, np.matmul(theta, a[:, :n_top].T, out=r0), out=r0)
    exact = np.sqrt(np.einsum("ij,ij->i", r0, r0)) <= _RANK_RTOL * np.linalg.norm(y_s)
    for j in np.flatnonzero(exact | (k == 0)):  # no noise columns, or no noise to model
        fits[j] = _ls_report(theta[j, :sizes[j]], r0[j], k)
    if k == 0 or exact.all():
        return fits
    qy = stacked[n_sizes:n_sizes + n_top + 1, k - 1:m + k - 1]
    qy[:n_top], qy[n_top] = q[:, :n_top].T, y_s
    del q, r0
    # R^-1 is upper triangular and its leading s x s block inverts R's, so one
    # product with it solves every size's prefix (Higham 2002, chs. 8 and 14)
    theta_ls, r_inv_t = theta, np.linalg.solve(r_top, np.eye(n_top)).T
    phi = np.zeros((k, n_sizes))
    lo, hi = lo[sizes - 1], hi[sizes - 1]
    active = ~exact
    history = np.empty((config.max_iterations, n_sizes))  # change norms
    cross = np.empty((k, n_sizes, n_top + 1))  # [C | Xi^T y] for each lag
    # the second product's left factor, a column for each stacked row; a done
    # size's row is zeroed, so no NaN it holds reaches another row
    coef, rows = np.zeros((n_sizes, len(stacked))), np.arange(n_sizes)
    coef[:, n_sizes + n_top] = 1.0
    # a done size's row is still computed until it is zeroed, and one that
    # failed the rank check may divide by a zero norm
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iterations + 1):
            (cur, block), (nxt, _) = halves
            xi = [stacked[cur, k - l:m + k - l] for l in range(1, k + 1)]  # lag l at l - 1
            for l in range(k):
                np.matmul(xi[l], qy.T, out=cross[l])
            c = cross[:, :, :n_top] * below
            lag_products = np.empty((k, k, n_sizes))
            for l, p in itertools.combinations_with_replacement(range(k), 2):
                lag_products[l, p] = lag_products[p, l] = np.einsum("ij,ij->i", xi[l], xi[p])
            gram = lag_products - np.einsum("lji,pji->lpj", c, c)
            border_y = cross[:, :, n_top] - np.einsum("lji,ji->lj", c, qty_below)  # W^T y
            # LDL^T of the border's Gram, W^T W = U^T D U: d holds D, the squared
            # norm each noise column keeps outside Q and the earlier lags
            u, d, dg = np.zeros((k, k, n_sizes)), np.empty((k, n_sizes)), np.empty((k, n_sizes))
            for l in range(k):
                d[l] = gram[l, l] - sum(u[p, l] ** 2 * d[p] for p in range(l))
                for i in range(l + 1, k):
                    u[l, i] = (gram[l, i] - sum(u[p, l] * u[p, i] * d[p] for p in range(l))) / d[l]
                dg[l] = border_y[l] - sum(u[p, l] * dg[p] for p in range(l))
            g = dg / d
            # The Gram holds a column that keeps 1/kappa of its norm to about
            # kappa^2 eps; below that the size's border is formed, with a second
            # pass against Q, as one pass leaves it orthogonal to Q to about
            # kappa * eps (Parlett, The Symmetric Eigenvalue Problem, sec. 6.9;
            # Daniel, Gragg, Kaufman & Stewart 1976 take kappa = sqrt(2)).  For
            # k = 1 the test reads |C|^2 > (kappa^2 - 1) |W|^2, 99 |W|^2 here.
            redo = np.flatnonzero((_REORTH_KAPPA ** 2 * d < np.diagonal(lag_products).T).any(axis=0)
                                  & active)
            if redo.size:
                q_t = qy[:n_top]
                w = np.stack([lag[redo] - c[l, redo] @ q_t for l, lag in enumerate(xi)])
                c2 = (w @ q_t.T) * below[redo]
                w -= c2 @ q_t
                c[:, redo] += c2
                # scaled Gram-Schmidt among the lags, twice against each
                # predecessor: W = V U with V's columns orthogonal (kept in w)
                u[:, :, redo] = 0.0
                for l in range(k):
                    for _, p in itertools.product(range(2), range(l)):
                        proj = np.einsum("ij,ij->i", w[p], w[l]) / d[p, redo]
                        w[l] -= proj[:, None] * w[p]
                        u[p, l, redo] += proj
                    d[l, redo] = np.einsum("ij,ij->i", w[l], w[l])
                g[:, redo] = (w @ y_s) / d[:, redo]
            # a size is done at the first lag whose norm fails the rank check
            root = np.sqrt(d)
            for l in range(k):
                failed = active & (np.minimum(lo, root[:l + 1].min(axis=0))
                                   <= _RANK_RTOL * np.maximum(hi, root[:l + 1].max(axis=0)))
                for j in np.flatnonzero(failed):
                    fits[j] = _rank_error(np.concatenate([diag[:sizes[j]], root[:l + 1, j]]))
                active &= ~failed
            # back substitution: U phi = g, then R theta = Q^T y - C phi for
            # every size at once as theta = theta_LS - R^-1 C phi, where C phi
            # is zero beyond column s and so is its product with R^-1
            phi_new = np.empty_like(g)
            for l in reversed(range(k)):
                phi_new[l] = g[l] - sum(u[l, p] * phi_new[p] for p in range(l + 1, k))
            c_phi = np.einsum("lji,lj->ji", c, phi_new)
            theta_new = theta_ls - c_phi @ r_inv_t
            change = np.sqrt(np.sum((theta_new - theta) ** 2, axis=1)
                             + np.sum((phi_new - phi) ** 2, axis=0))
            history[iterations - 1] = change
            theta, phi = theta_new, phi_new
            done = change < config.zeta
            finished = active & (done | (iterations == config.max_iterations))
            for j in np.flatnonzero(finished):
                # the residual y - Psi theta - Xi phi itself, so that it holds
                # exactly for the reported theta and phi; lags[t] holds lags k..1
                s, lags = sizes[j], sliding_window_view(stacked[cur][j], k)
                process = y_s - a[:, :s] @ theta[j, :s]
                fits[j] = EstimationReport(
                    theta[j, :s].copy(), process - lags[:m] @ phi[::-1, j],
                    float(np.var(process)), iterations=iterations, converged=bool(done[j]),
                    noise_theta=phi[:, j].copy(),
                    change_norms=tuple(history[:iterations, j].tolist()))
            active &= ~finished
            if not active.any():
                break
            # next residual y - Q (c0 - C phi) - Xi phi, into the other half
            coef[:, n_sizes:n_sizes + n_top] = c_phi - qty_below
            coef[rows, rows + cur.start] = -phi[0]
            coef[~active] = 0.0
            np.matmul(coef[:, block], stacked[block, k - 1:m + k - 1], out=stacked[nxt, k:])
            for l in range(1, k):
                stacked[nxt, k:] -= np.where(active, phi[l], 0.0)[:, None] * xi[l]
            halves.reverse()
    return fits


def _fit_one(psi, y_s, n_noise_terms, config):
    """The one-size case of :func:`els_sweep`: all columns, failure raised."""
    shape = np.shape(psi)
    (fit,) = els_sweep(psi, y_s, [shape[1] if len(shape) == 2 else 0], n_noise_terms, config)
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
    psi, y_s = _checked(psi, y_s)
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
