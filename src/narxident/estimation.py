"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

The regression matrix is solved through its Householder QR, never its
normal equations.  Extended least squares has one implementation,
:func:`els_core`, which factors Psi = QR once and borders that
factorization with the k noise columns Xi in each iteration, at O(m n k)
work for m rows and n process columns; :func:`ls_estimate` is its case
without noise columns.  No iteration solves with R: the process parameters
are the least-squares fit minus R^-1 C phi, C = Q^T Xi, with R^-1 formed
once.  The information-criterion curve of :mod:`.selection` fits every
model size by least squares with the same factorization (:func:`_qr`),
rank rule and noise columns (:func:`lagged`); only the final fit iterates.
:func:`els_sweep` gives the iterated fit of several column prefixes, one
:func:`els_core` call per size.

A regression taller than one row block of ``_QR_BLOCK_ROWS`` = 2048 rows,
such as Bouc-Wen's 19,199, is factored by blocks (tall-skinny QR,
:func:`_qr`), which keeps LAPACK's column-by-column Householder loops in
cache; its Q and R round differently from a whole factorization's.  A
matrix of one block is factored whole, so heating's 1,997 rows give the
bits of ``np.linalg.qr``: there, blocking measured no faster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, ParameterError, SingularMatrixError
from .model import is_int, is_real
from .regression import build_regression  # noqa: F401  perfbench/tracing.py wraps this binding

_RANK_RTOL = 1e-10
_REORTH_KAPPA = 10.0  # the second-pass gate in els_core
_QR_BLOCK_ROWS = 2048  # the row block of _qr, measured in CHANGES.md


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


def check_regression(psi, y_s):
    """Psi and y as float arrays; :class:`ParameterError` unless they are real
    (the cast would drop an imaginary part) and finite, Psi 2-D and y 1-D with
    a sample per row."""
    if np.iscomplexobj(psi) or np.iscomplexobj(y_s):
        raise ParameterError("regression matrix and target must be real")
    psi, y_s = np.asarray(psi, dtype=float), np.asarray(y_s, dtype=float)
    if psi.ndim != 2:
        raise ParameterError("regression matrix must be 2-D")
    if y_s.shape != psi.shape[:1]:
        raise ParameterError("target must be 1-D with one sample per regression row")
    if not (np.isfinite(psi).all() and np.isfinite(y_s).all()):
        raise ParameterError("regression matrix and target must be finite")
    return psi, y_s


def _ls_report(theta, residuals, n_noise_terms=0):
    """A least-squares fit as an ELS report: phi = 0, one iteration, converged."""
    return EstimationReport(theta.copy(), residuals.copy(), float(np.var(residuals)),
                            noise_theta=np.zeros(n_noise_terms))


def _qr(a, mode="reduced"):
    """``np.linalg.qr(a, mode)`` for mode ``"reduced"`` or ``"r"``, by row
    blocks when ``a`` is taller than one block.

    On a few dozen columns LAPACK's geqrf and orgqr run their unblocked
    Householder loops, which stream the whole matrix once per column; a block
    of at most ``_QR_BLOCK_ROWS`` rows stays in cache.  Tall-skinny QR
    (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci. Comput. 34(1)), as
    backward stable as Householder QR: the rows split into the fewest equal
    blocks of at most that many, factored in one batched call; one more
    factors their R factors stacked over the remainder rows, and
    Q = blockdiag(Q_i) Q_2 is one batched product.  R matches a whole
    factorization's to rounding, up to the sign of each row.  A matrix of one
    block, or whose blocks would be no taller than wide, is factored whole,
    by ``np.linalg.qr`` itself.
    """
    m, n = a.shape
    count = -(-m // _QR_BLOCK_ROWS)
    if count < 2 or m // count <= n:
        return np.linalg.qr(a, mode=mode)
    rows = m // count
    top = count * rows
    # the blocks are a view of a's rows in either memory order
    factors = np.linalg.qr(a[:top].reshape(count, rows, n), mode=mode)
    r_blocks = factors if mode == "r" else factors[1]
    stacked = np.concatenate([r_blocks.reshape(count * n, n), a[top:]])
    if mode == "r":
        return np.linalg.qr(stacked, mode="r")
    q_2, r = np.linalg.qr(stacked)
    q = np.empty((m, n))
    np.matmul(factors[0], q_2[:count * n].reshape(count, n, n), out=q[:top].reshape(count, rows, n))
    q[top:] = q_2[count * n:]
    return q, r


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


def _valid_columns(diag):
    """How many leading entries of a triangular factor's diagonal pass the rank
    check, each above ``_RANK_RTOL`` times the largest up to it: a column
    prefix's factor is the prefix of the factor, so prefix s is valid when s
    does not exceed this count."""
    diag = np.abs(diag)
    return int(np.sum(np.minimum.accumulate(diag) > _RANK_RTOL * np.maximum.accumulate(diag)))


def lagged(e, k):
    """Lags 1..k of ``e`` as the columns of an (m, k) array, zero before the record."""
    xi = np.zeros((len(e), k), order="F")
    for l in range(1, k + 1):
        xi[l:, l - 1] = e[:len(e) - l]
    return xi


def ls_estimate(psi, y_s):
    """Ordinary least squares via Householder QR: ``els_core(psi, y_s, 0)``.

    Returns an :class:`EstimationReport` with the residual vector
    ``y_s - psi @ theta``.
    """
    return els_core(psi, y_s, 0)


def els_core(psi, y_s, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on a prebuilt regression matrix.

    Iteratively appends lagged copies of the residual vector as
    moving-average columns Xi and re-estimates until the parameter change
    drops below ``config.zeta``, or stops unconverged at
    ``config.max_iterations``.  With ``n_noise_terms=0`` this is exactly
    ordinary least squares.  ``psi`` and ``y_s`` must be real and finite.

    Psi = QR is factored once, and each iteration borders it with the k
    noise columns.  The border W = Xi - Q C, C = Q^T Xi, is not formed: one
    product of each residual lag with the rows [y; Q^T] gives Xi^T y and C,
    so W's Gram is Xi^T Xi - C^T C and W^T y = Xi^T y - C^T Q^T y.  Its LDL^T,
    U^T D U with U unit upper triangular, gives U phi = D^-1 U^-T W^T y, and
    theta = theta_LS - R^-1 C phi, R^-1 formed once.  A second product,
    [1 | -(Q^T y - C phi)] [y; Q^T], writes the next residual
    y - Psi theta - Xi phi before the lags are subtracted.

    The Gram holds a column that keeps 1/kappa of its norm to about
    kappa^2 eps; when a noise column keeps less than that outside Q and the
    earlier lags, W is formed with a second pass against Q, as one pass
    leaves it orthogonal to Q to about kappa eps (Parlett, The Symmetric
    Eigenvalue Problem, sec. 6.9; Daniel, Gragg, Kaufman & Stewart 1976
    take kappa = sqrt(2)), and Gram-Schmidt twice among the lags gives U
    and D.  The rank check takes the range of R's diagonal and of sqrt(D)
    cumulatively over the lags, and reports the first failing lag.

    Raises :class:`ParameterError` for fewer rows than columns and, with
    noise columns, for fewer than s + k + 2 rows: with one spare row the
    residual has one degree of freedom, so from the second iteration on the
    noise columns follow from the first residual by a map that does not
    involve y, and rounding can grow a billionfold in 10 iterations.  A
    least-squares residual r0 at rounding, ||r0|| <= ``_RANK_RTOL`` ||y||,
    leaves no noise to model: the fit is the least-squares one (phi = 0,
    converged in one iteration).
    """
    # row-major, so Psi theta sums each row as psi @ theta does
    psi, y_s = check_regression(psi, y_s)
    psi = np.ascontiguousarray(psi)
    check_noise_terms(n_noise_terms)
    (m, n), k = psi.shape, n_noise_terms
    if n > m:
        raise ParameterError(f"underdetermined system: {m} rows < {n} columns")
    q, r = _qr(psi)
    diag = np.abs(np.diag(r))
    if (error := _rank_error(diag)) is not None:
        raise error
    if k and m < n + k + 2:
        raise ParameterError(f"too few rows for {k} noise terms: {m} rows < {n + k + 2}, "
                             "two more than the columns")
    c0 = q.T @ y_s
    theta = theta_ls = np.linalg.solve(r, c0)
    r0 = y_s - psi @ theta_ls
    if k == 0 or np.linalg.norm(r0) <= _RANK_RTOL * np.linalg.norm(y_s):
        return _ls_report(theta_ls, r0, k)
    qy = np.empty((n + 1, m))  # [y; Q^T]
    qy[0], qy[1:] = y_s, q.T
    del q
    r_inv = np.linalg.solve(r, np.eye(n))
    # a residual of k zeros, then xi(0..m-1): lag l is the window k - l:m + k - l
    residual = np.zeros(m + k)
    residual[k:] = r0
    xi = [residual[k - l:m + k - l] for l in range(1, k + 1)]
    cross, phi, change_norms = np.empty((k, n + 1)), np.zeros(k), []
    # a zero border norm divides before the rank check raises on it
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iterations + 1):
            for l in range(k):
                np.matmul(qy, xi[l], out=cross[l])  # [Xi^T y | C^T]
            c = cross[:, 1:]
            lag_products = np.array([[xi[l] @ xi[p] for p in range(k)] for l in range(k)])
            gram = lag_products - c @ c.T
            # LDL^T of the Gram, then a = D^-1 U^-T W^T y
            u, d, a = np.eye(k), np.empty(k), cross[:, 0] - c @ c0
            for l in range(k):
                d[l] = gram[l, l] - (u[:l, l] ** 2) @ d[:l]
                u[l, l + 1:] = (gram[l, l + 1:] - (u[:l, l] * d[:l]) @ u[:l, l + 1:]) / d[l]
                a[l] -= u[:l, l] @ a[:l]
            a /= d
            if np.any(_REORTH_KAPPA ** 2 * d < np.diag(lag_products)):
                # the explicit border, with a second pass against Q; scaled
                # Gram-Schmidt among the lags, twice against each predecessor:
                # W = V U with V's columns orthogonal (kept in w)
                q_t = qy[1:]
                w = np.array(xi) - c @ q_t
                c2 = w @ q_t.T
                w -= c2 @ q_t
                c = c + c2
                u = np.eye(k)
                for l in range(k):
                    for _, p in itertools.product(range(2), range(l)):
                        proj = (w[p] @ w[l]) / d[p]
                        w[l] -= proj * w[p]
                        u[p, l] += proj
                    d[l] = w[l] @ w[l]
                a = (w @ y_s) / d
            # the rank check over R's diagonal and the lags' norms, sqrt(D): the
            # diagonal of the factor of [Psi Xi]; it fails at the first bad lag
            columns = np.concatenate([diag, np.sqrt(d)])
            if (valid := _valid_columns(columns)) < n + k:
                raise _rank_error(columns[:valid + 1])
            phi_new = a
            for l in reversed(range(k - 1)):  # U phi = a
                phi_new[l] -= u[l, l + 1:] @ phi_new[l + 1:]
            c_phi = c.T @ phi_new
            theta_new = theta_ls - r_inv @ c_phi
            change_norms.append(float(np.sqrt(np.sum((theta_new - theta) ** 2)
                                              + np.sum((phi_new - phi) ** 2))))
            theta, phi = theta_new, phi_new
            if change_norms[-1] < config.zeta or iterations == config.max_iterations:
                break
            # next residual y - Q (Q^T y - C phi) - Xi phi
            new = np.concatenate([[1.0], c_phi - c0]) @ qy
            for l in range(k):
                new -= phi[l] * xi[l]
            residual[k:] = new
    # the residual y - Psi theta - Xi phi itself, so that it holds exactly for
    # the reported theta and phi, its lags summed k..1
    process = y_s - psi @ theta
    return EstimationReport(
        theta, process - sum(xi[l] * phi[l] for l in reversed(range(k))), float(process.var()),
        iterations=iterations, converged=change_norms[-1] < config.zeta, noise_theta=phi,
        change_norms=tuple(change_norms))


def els_sweep(psi, y_s, sizes, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on several column prefixes of one matrix.

    Entry i of the returned list is what
    ``els_core(psi[:, :sizes[i]], y_s, n_noise_terms, config)`` returns, or
    the :class:`ParameterError` / :class:`SingularMatrixError` it raises
    for that size; invalid arguments raise for the whole call.  ``sizes``
    must be integers increasing within 1..psi.shape[1], and ``psi`` and
    ``y_s`` real and finite.  This is the iterated fit of each size, for
    comparison with the two least-squares stages that score the sizes of
    the information-criterion curve.
    """
    psi, y_s = check_regression(psi, y_s)
    check_noise_terms(n_noise_terms)
    n = psi.shape[1]
    sizes = np.asarray(sizes, dtype=object)
    if (sizes.ndim != 1 or not sizes.size or not all(map(is_int, sizes)) or sizes[0] < 1
            or sizes[-1] > n or np.any(np.diff(sizes) <= 0)):
        raise ParameterError(f"sizes must be integers increasing within 1..{n}")
    fits = []
    for s in sizes:
        try:
            fits.append(els_core(psi[:, :s], y_s, n_noise_terms, config))
        except (ParameterError, SingularMatrixError) as exc:
            fits.append(exc)
    return fits


def constrained_ls_estimate(psi, y_s, constraints):
    """Least squares subject to linear equality constraints c^T theta = b.

    Solved by the null-space method: a particular solution of the
    constraint system plus an unconstrained fit in its null space, so the
    constraints hold to machine precision.  One SVD C = U S V^T of the p
    constraint rows gives the dependency test (Psi's rank rule: a singular
    value at or below ``_RANK_RTOL`` times the largest), the particular
    solution V_1 S^-1 U^T b and the null space, the last n - p columns of V.
    """
    psi, y_s = check_regression(psi, y_s)
    if not constraints:
        return ls_estimate(psi, y_s)
    c_mat = np.vstack([np.asarray(c, dtype=float) for c, _ in constraints])
    b_vec = np.array([float(b) for _, b in constraints])
    p, n = len(b_vec), psi.shape[1]
    if c_mat.shape[1] != n:
        raise ConstraintError("constraint vectors must match the parameter dimension")
    if not (np.isfinite(c_mat).all() and np.isfinite(b_vec).all()):
        raise ConstraintError("constraint vectors and bounds must be finite")
    if p >= n:
        raise ConstraintError("need fewer constraints than parameters")
    u_c, sigma, vt = np.linalg.svd(c_mat)
    if sigma[-1] <= _RANK_RTOL * sigma[0]:
        raise ConstraintError("constraints are linearly dependent")
    theta_p = vt[:p].T @ (u_c.T @ b_vec / sigma)
    if np.linalg.norm(c_mat @ theta_p - b_vec) > 1e-8 * max(1.0, np.linalg.norm(b_vec)):
        raise ConstraintError("constraints are inconsistent")
    # a column slice of a C-ordered V, scipy.linalg.null_space's layout,
    # so products with it round alike
    z = np.ascontiguousarray(vt.T)[:, p:]
    reduced = ls_estimate(psi @ z, y_s - psi @ theta_p)
    theta = theta_p + z @ reduced.theta
    return _ls_report(theta, y_s - psi @ theta)
