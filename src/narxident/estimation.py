"""Parameter estimation: least squares, extended least squares, and
equality-constrained least squares.

The regression matrix is solved through its Householder QR, never its
normal equations.  Extended least squares has one implementation,
:func:`els_sweep`, which fits several column prefixes of the matrix it is
given in one block: the prefixes share one QR (the QR of a column prefix
is the prefix of the QR), and each iteration borders that factorization
with the k noise columns Xi of every size, at O(m n k) work per size for
m rows and n process columns.  The border W = Xi - Q C, with C = Q^T Xi,
is not formed (but for a size whose noise column keeps under 1/kappa of
its norm): the solve needs only its k x k Gram Xi^T Xi - C^T C and W^T y,
both from one matrix product of the residual rows with [y; Q^T] in a
stacked buffer, where a second product writes the next residual; the rest
of an iteration is a fixed set of operations on small arrays holding every
size.  No iteration solves with R: the process parameters are the
prefix's least-squares fit minus R^-1 C phi, with R^-1 formed once per
call.  :func:`els_core` is its one-size case and :func:`ls_estimate` the
one-size case without noise columns.

A regression taller than one row block of ``_QR_BLOCK_ROWS`` = 2048 rows,
such as Bouc-Wen's 19,199, is factored by blocks (tall-skinny QR,
:func:`_qr`), which keeps LAPACK's column-by-column Householder loops in
cache; its Q and R round differently from a whole factorization's.  A
matrix of one block is factored whole, so heating's 1,997 rows give the
bits of ``np.linalg.qr``: there, blocking measured no faster.  The row count also
decides how the sweep's products run: on one block, whose stacked buffer
stays in cache, per run of ``_GROUP_SIZES`` = 8 sizes on the Q^T prefix the
run needs, which skips the masked zeros beyond each size's prefix; taller,
in one run, as there they follow their passes over the buffer, not flops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, ParameterError, SingularMatrixError
from .model import is_int, is_real
from .regression import build_regression  # noqa: F401  perfbench/tracing.py wraps this binding

_RANK_RTOL = 1e-10
_REORTH_KAPPA = 10.0  # the second-pass gate in els_sweep
_QR_BLOCK_ROWS = 2048  # the row block of _qr, measured in CHANGES.md
_GROUP_SIZES = 8  # sizes per run of els_sweep's products, measured in CHANGES.md


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
    One buffer holds the rows [Xi_A; y; Q^T; Xi_B], its columns aligned so
    that y(t), Q(t) and xi(t - 1) share one; the residual halves take turns,
    each iteration lagging the noise columns Xi from one and writing the
    next residual into the other.  A product of the lag rows with [y; Q^T]
    gives Xi^T y and C, so the border W = Xi - Q C is not formed: its Gram
    is Xi^T Xi - C^T C and W^T y = Xi^T y - C^T c0, c0 the masked Q^T y.
    The Gram's LDL^T, U^T D U with U unit upper triangular, gives
    U phi = D^-1 U^-T W^T y, and theta = theta_LS - R^-1 C phi with theta_LS
    the prefixes' least-squares fits and R^-1 formed once.  One product
    [-diag(phi_1) | 1 | -(c0 - C phi)] [Xi; y; Q^T] writes the next residual
    y - Psi theta - Xi phi, lags 2..k subtracted after it.  The rest of an
    iteration works on small arrays of all sizes, allocated once per call,
    and builds the reports of the sizes that finish, from its lag windows.

    Both products run per run of ``_GROUP_SIZES`` consecutive sizes, on the
    rows [y; Q^T[:p]] that the run's largest size p needs, which y's place
    above Q^T makes one row range.  The first is Xi_run [y; Q^T[:p]]^T; the
    second multiplies the rows from the run's first Xi_A row through y and
    Q^T[:p] (side A) or from y through Q^T and the Xi_B rows up to the run's
    last (side B), and writes the run's rows of the other half.  A
    regression taller than ``_QR_BLOCK_ROWS`` is too large for cache and
    keeps all sizes in one run, the whole products.

    A size takes the explicit border when one of its noise columns keeps
    less than 1/kappa of its norm outside Q and the earlier lags: W formed
    on its rows, a second pass against Q and Gram-Schmidt twice among the
    lags.  The rank check takes the range of R's prefix diagonal and of
    sqrt(D) cumulatively over the lags, and reports the first failing lag.
    A size is done when it converges, reaches the cap or fails the rank
    check, and its row is then zeroed.  A size with noise columns needs at
    least two more rows than its s + k columns: with fewer, the residual
    has no more than one degree of freedom and the noise model is not
    fitted to the data.  A size whose least-squares residual
    r0 is at rounding, ||r0|| <= ``_RANK_RTOL`` ||y||, has no noise to
    model: it reports its least-squares fit (phi = 0, converged in one
    iteration) and takes no part in the loop.
    """
    # row-major, so a one-size fit's Psi theta sums each row as psi @ theta does
    psi, y_s = check_regression(psi, y_s)
    psi = np.ascontiguousarray(psi)
    check_noise_terms(n_noise_terms)
    m, n = psi.shape
    sizes = np.asarray(sizes, dtype=object)
    if (sizes.ndim != 1 or not sizes.size or not all(map(is_int, sizes)) or sizes[0] < 1
            or sizes[-1] > n or np.any(np.diff(sizes) <= 0)):
        raise ParameterError(f"sizes must be integers increasing within 1..{n}")
    sizes, k = sizes.astype(int), n_noise_terms
    a = psi[:, :min(sizes[-1], m)]
    q, r = _qr(a)
    diag = np.abs(np.diag(r))
    lo, hi = np.minimum.accumulate(diag), np.maximum.accumulate(diag)
    fits = []
    for s in sizes:
        if s > m:
            fits.append(ParameterError(f"underdetermined system: {m} rows < {s} columns"))
        elif lo[s - 1] <= _RANK_RTOL * hi[s - 1]:
            fits.append(_rank_error(diag[:s]))
        elif k and m < s + k + 2:
            # one spare row leaves the residual (z^T y) z, z spanning the left null space
            # of [Psi Xi]: from the second iteration on, the noise columns follow from
            # the first residual by a map that does not involve y, so the noise model is
            # not fitted to the data, and rounding can grow a billionfold in 10 iterations
            fits.append(ParameterError(f"too few rows for {k} noise terms: {m} rows < "
                                       f"{s + k + 2}, two more than the columns"))
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
    # rows [Xi_A; y; Q^T; Xi_B]: a residual row holds k zeros, then xi(0..m-1), so
    # lag l is its window k - l:m + k - l, and y and Q^T sit in lag 1's
    stacked = np.zeros((2 * n_sizes + n_top + 1, m + max(k, 1)))
    r0 = stacked[:n_sizes, -m:]  # least-squares residual of each prefix
    np.subtract(y_s, np.matmul(theta, a[:, :n_top].T, out=r0), out=r0)
    exact = np.sqrt(np.einsum("ij,ij->i", r0, r0)) <= _RANK_RTOL * np.linalg.norm(y_s)
    for j in np.flatnonzero(exact | (k == 0)):  # no noise columns, or no noise to model
        fits[j] = _ls_report(theta[j, :sizes[j]], r0[j], k)
    if k == 0 or exact.all():
        return fits
    row_b = n_sizes + n_top + 1  # Xi_B's first row
    qy = stacked[n_sizes:row_b, k - 1:m + k - 1]
    qy[0], qy[1:] = y_s, q[:, :n_top].T
    del q, r0
    # R^-1 is upper triangular and its leading s x s block inverts R's, so one
    # product with it solves every size's prefix (Higham 2002, chs. 8 and 14)
    theta_ls, r_inv_t = theta, np.linalg.solve(r_top, np.eye(n_top)).T
    lo, hi, active = lo[sizes - 1], hi[sizes - 1], ~exact
    history = np.empty((config.max_iterations, n_sizes))  # change norms
    # the loop's state, allocated once: [Xi^T y | C] per lag (zeroed: no run writes
    # the columns beyond its prefix, which the mask multiplies by zero), C, the lag
    # products (upper triangle), the Gram, which the LDL^T turns into U and D (its
    # diagonal), and two generations of phi and theta (C-ordered: the norms sum
    # theta's rows)
    cross, c = np.zeros((k, n_sizes, n_top + 1)), np.empty((k, n_sizes, n_top))
    lag_products, u = np.zeros((k, k, n_sizes)), np.empty((k, k, n_sizes))
    d, lag_d = u.reshape(k * k, n_sizes)[::k + 1], np.diagonal(lag_products).T
    phi, phi_new = np.zeros((k, n_sizes)), np.empty((k, n_sizes))
    theta, theta_new, c_phi = theta_ls.copy(), np.empty_like(c[0]), np.empty_like(c[0])
    # the second product's left factor, a column per stacked row, written for active
    # sizes; a size's row is zeroed as it leaves, so no NaN of its reaches another row
    coef = np.zeros((n_sizes, len(stacked)))
    coef[active, n_sizes] = 1.0
    # runs of consecutive sizes, each on the rows its largest size needs; a
    # regression too tall for one QR block is too large for cache and keeps one
    step = n_sizes if m > _QR_BLOCK_ROWS else _GROUP_SIZES
    runs = [(j, min(j + step, n_sizes)) for j in range(0, n_sizes, step)]
    # per half at row cur: lag windows (lag l at l - 1), each size's coefficient on its
    # own row, and per run the first product's factors and output, then the second's
    # factors (its coefficients, the stacked rows) and output (its rows of the other half)
    halves = []
    for cur, nxt in ((0, row_b), (row_b, 0)):
        xi = [stacked[cur:cur + n_sizes, k - l:m + k - l] for l in range(1, k + 1)]
        products = []
        for j0, j1 in runs:
            width = sizes[j1 - 1] + 1  # y and the run's Q^T prefix
            rows = slice(j0, n_sizes + width) if cur == 0 else slice(n_sizes, row_b + j1)
            products.append(([lag[j0:j1] for lag in xi], qy[:width].T, cross[:, j0:j1, :width],
                             coef[j0:j1, rows], stacked[rows, k - 1:m + k - 1],
                             stacked[nxt + j0:nxt + j1, k:]))
        halves.append((xi, coef.reshape(-1)[cur::len(stacked) + 1][:n_sizes], products,
                       stacked[nxt:nxt + n_sizes, k:]))
    # a done size's C, Gram and phi are still computed, and may divide by a zero norm
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iterations + 1):
            xi, own, products, out = halves[(iterations - 1) % 2]
            for xi_run, qy_run, cross_run, *_ in products:
                for l in range(k):
                    np.matmul(xi_run[l], qy_run, out=cross_run[l])
            np.multiply(cross[:, :, 1:], below, out=c)
            for l, p in itertools.combinations_with_replacement(range(k), 2):
                np.einsum("ij,ij->i", xi[l], xi[p], out=lag_products[l, p])
            np.subtract(lag_products, np.einsum("lji,pji->lpj", c, c, out=u), out=u)
            np.subtract(cross[:, :, 0], np.einsum("lji,ji->lj", c, qty_below, out=phi_new),
                        out=phi_new)  # W^T y
            # LDL^T of the Gram, W^T W = U^T D U, in place: d holds D, the squared
            # norm each noise column keeps outside Q and the earlier lags, and
            # phi_new U^-T W^T y, then D^-1 U^-T W^T y
            for l in range(1, k):
                u[l - 1, l:] /= d[l - 1]
                u[l, l:] -= (u[:l, l, None] * u[:l, l:] * d[:l, None]).sum(axis=0)
                phi_new[l] -= (u[:l, l] * phi_new[:l]).sum(axis=0)
            phi_new /= d
            # The Gram holds a column that keeps 1/kappa of its norm to about kappa^2
            # eps; below that the size's border is formed, with a second pass against
            # Q, as one pass leaves it orthogonal to Q to about kappa * eps (Parlett,
            # The Symmetric Eigenvalue Problem, sec. 6.9; Daniel, Gragg, Kaufman &
            # Stewart 1976 take kappa = sqrt(2)).  For k = 1: |C|^2 > 99 |W|^2.
            redo = ((_REORTH_KAPPA ** 2 * d < lag_d).any(axis=0) & active).nonzero()[0]
            if redo.size:
                q_t = qy[1:]
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
                phi_new[:, redo] = (w @ y_s) / d[:, redo]
            # a size is done at the first lag whose norm fails the rank check
            # over R's prefix diagonal and the norms of lags 1..l
            root = np.sqrt(d)
            failing = (np.minimum(lo, np.minimum.accumulate(root))
                       <= _RANK_RTOL * np.maximum(hi, np.maximum.accumulate(root)))
            for j in (active & failing.any(axis=0)).nonzero()[0]:
                fits[j] = _rank_error(np.concatenate([diag[:sizes[j]],
                                                      root[:failing[:, j].argmax() + 1, j]]))
                active[j], coef[j] = False, 0.0
            # back substitution: U phi = D^-1 U^-T W^T y, then R theta = Q^T y - C phi
            # for every size at once as theta = theta_LS - R^-1 C phi, where C phi
            # is zero beyond column s and so is its product with R^-1
            for l in reversed(range(k - 1)):
                phi_new[l] -= (u[l, l + 1:] * phi_new[l + 1:]).sum(axis=0)
            np.einsum("lji,lj->ji", c, phi_new, out=c_phi)
            np.subtract(theta_ls, np.matmul(c_phi, r_inv_t, out=theta_new), out=theta_new)
            history[iterations - 1] = change = np.sqrt(((theta_new - theta) ** 2).sum(axis=1)
                                                       + ((phi_new - phi) ** 2).sum(axis=0))
            theta, theta_new, phi, phi_new = theta_new, theta, phi_new, phi
            done = change < config.zeta
            finished = active & (done | (iterations == config.max_iterations))
            for j, s in zip(finished.nonzero()[0], sizes[finished]):
                # the residual y - Psi theta - Xi phi itself, so that it holds
                # exactly for the reported theta and phi, its lags summed k..1
                process = y_s - a[:, :s] @ theta[j, :s]
                lagged = sum(xi[l][j] * phi[l, j] for l in reversed(range(k)))
                fits[j] = EstimationReport(
                    theta[j, :s].copy(), process - lagged, float(process.var()),
                    iterations=iterations, converged=bool(done[j]), noise_theta=phi[:, j].copy(),
                    change_norms=tuple(history[:iterations, j].tolist()))
                coef[j] = 0.0
            active ^= finished
            if not active.any():
                break
            # next residual y - Q (c0 - C phi) - Xi phi, into the other half
            np.subtract(c_phi, qty_below, out=coef[:, n_sizes + 1:row_b], where=active[:, None])
            np.negative(phi[0], out=own, where=active)
            for *_, left, right, out_run in products:
                np.matmul(left, right, out=out_run)
            for l in range(1, k):
                out -= np.where(active, phi[l], 0.0)[:, None] * xi[l]
    return fits


def ls_estimate(psi, y_s):
    """Ordinary least squares via Householder QR: ``els_core(psi, y_s, 0)``.

    Returns an :class:`EstimationReport` with the residual vector
    ``y_s - psi @ theta``.
    """
    return els_core(psi, y_s, 0)


def els_core(psi, y_s, n_noise_terms=1, config=ElsConfig()):
    """Extended least squares on a prebuilt regression matrix: the one-size
    :func:`els_sweep` over all of Psi's columns, its failure raised.

    Iteratively appends lagged copies of the residual vector as
    moving-average columns Xi and re-estimates until the parameter change
    drops below ``config.zeta``.  With ``n_noise_terms=0`` this is
    exactly ordinary least squares.
    """
    # a 2-D Psi gives one size, its column count; any other shape fails the sweep's check
    (fit,) = els_sweep(psi, y_s, np.shape(psi)[1:], n_noise_terms, config)
    if isinstance(fit, Exception):
        raise fit
    return fit


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
