"""Regression-matrix assembly, one-step prediction, and free-run simulation."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import TimeSeriesData
from .errors import InsufficientDataError, ParameterError
from .hysteresis import hysteresis_signals
from .model import CandidateSet, NarxModel, Variable


def _signal_table(u):
    """Full-length sample arrays of the input and its difference signals.

    The difference signals are derived from the input; their value at k=0
    is 0 by convention.
    """
    u = np.asarray(u, dtype=float)
    phi1, phi2 = hysteresis_signals(u)
    return {Variable.INPUT: u, Variable.PHI1: phi1, Variable.PHI2: phi2}


def _multiply_factors(col, factors, table, p):
    """Multiply ``col``, rows k = p .. p + len(col) - 1, in place by the factors."""
    n = p + len(col)
    for var, lag, exp in factors:
        samples = table[var][p - lag:n - lag]
        col *= samples ** exp if exp > 1 else samples
    return col


def build_regression(candidates, data: TimeSeriesData):
    """Regression matrix and aligned target vector for a candidate set.

    Rows with incomplete lag history (the first ``p`` samples, ``p`` the
    maximum lag over the candidates) are dropped.  Returns ``(Psi, y_s)``
    with ``Psi`` of shape ``(N - p, n_candidates)``.
    """
    terms = candidates.terms if isinstance(candidates, CandidateSet) else tuple(candidates)
    p = max((t.max_lag for t in terms), default=0)
    n = len(data)
    if n <= p:
        raise InsufficientDataError(f"need more than {p} samples, got {n}")
    table = _signal_table(data.u)
    table[Variable.OUTPUT] = np.asarray(data.y, dtype=float)
    columns = [_multiply_factors(np.ones(n - p), t.factors, table, p) for t in terms]
    psi = np.column_stack(columns) if columns else np.empty((n - p, 0))
    return psi, table[Variable.OUTPUT][p:]


def one_step_predict(model: NarxModel, data: TimeSeriesData):
    """One-step-ahead prediction using measured past outputs.

    Deterministic part only; returns predictions for k = p .. N-1 where p
    is the model's maximum lag.
    """
    psi, _ = build_regression(model.process_terms, data)
    return psi @ np.asarray(model.theta)


@dataclass(frozen=True)
class SimulationResult:
    """A simulated trajectory and its first out-of-bound step, if any.

    When ``diverged`` is true the trajectory is partial: samples from
    ``diverged_at`` onward are NaN.
    """

    y: np.ndarray
    diverged_at: int | None = None

    @property
    def diverged(self):
        return self.diverged_at is not None


def divergence_bound(reference):
    """Default free-run divergence bound, 1e6 * max(1, max|reference|).

    The floor of 1 keeps a run that starts from a zero state from being
    flagged on its first step.
    """
    return 1e6 * max(1.0, float(np.max(np.abs(reference), initial=0.0)))


def resolve_bound(bound, reference):
    """``bound``, or :func:`divergence_bound` of ``reference`` when it is None.

    A given bound must be positive; ``inf`` means no bound.
    """
    if bound is None:
        return divergence_bound(reference)
    if not bound > 0:  # NaN too, which no |y(k)| would exceed
        raise ParameterError(f"divergence bound must be positive or inf, got {bound!r}")
    return bound


def zero_buffer(n):
    """A zero-filled ``array('d')`` of length n and a numpy view of it.

    The recursions read and write the buffer, whose items are Python
    floats; the view fills it and is returned as the result.
    """
    buf = array("d", [0.0]) * n
    return buf, np.frombuffer(buf)


def nan_from_unbounded(x, bound, start=0):
    """Index of the first sample of ``x`` from ``start`` on that is not
    finite or exceeds ``bound`` in magnitude, with ``x`` set to NaN from
    there on; None, and ``x`` unchanged, when there is none.

    The recursions run to the end on Python floats, which overflow to inf
    or NaN without raising, and check their trajectory once with this.
    """
    tail = x[start:]
    bad = np.flatnonzero(~np.isfinite(tail) | (np.abs(tail) > bound))
    if not bad.size:
        return None
    tail[bad[0]:] = np.nan
    return start + int(bad[0])


# Validating a fixed model set reuses a few structures and skips the
# compile; an identification mostly brings a new structure per run.
@lru_cache(maxsize=16)
def _step_loop(structure):
    """The free-run loop for one output-lag structure, compiled once.

    ``structure`` gives each output monomial's lags (powers repeated),
    each monomial once, and whether its exogenous part is a vector,
    holding samples start .. n-1, or a bare parameter.  The loop carries
    the last outputs in locals ``y1`` (y(k-1)) .. ``yL``, zips the vectors
    in beside the sample index, and evaluates monomials and factors in
    order, left to right, as in ``y0 = 0.0 + x0 * y1 + x1`` for
    ``pzt_narx``; then it stores y0 and shifts the locals by one.  The
    source holds only integer lags and positional names.
    """
    names = [f"p{i}" for i in range(len(structure))]
    vectors = [i for i, (_, vector) in enumerate(structure) if vector]
    max_lag = max((lag for lags, _ in structure for lag in lags), default=0)
    step = "0.0" + "".join(
        f" + {'x' if vector else 'p'}{i}" + "".join(f" * y{lag}" for lag in lags)
        for i, (lags, vector) in enumerate(structure))
    steps = "range(start, n)"
    if vectors:
        steps = f"zip({steps}{''.join(f', p{i}' for i in vectors)})"
    source = "\n".join([
        f"def loop({', '.join(['y', 'start', 'n', *names])}):",
        *(f"    y{lag} = y[start - {lag}]" for lag in range(1, max_lag + 1)),
        f"    for k{''.join(f', x{i}' for i in vectors)} in {steps}:",
        f"        y0 = {step}",
        "        y[k] = y0",
        *(f"        y{lag} = y{lag - 1}" for lag in range(max_lag, 0, -1)),
    ]) + "\n"
    namespace = {}
    exec(source, namespace)
    # popped, so that the function and its globals form no reference cycle
    # and a loop evicted from the cache is freed at once
    return namespace.pop("loop")


def free_run_simulate(model: NarxModel, u, y_init, bound=None):
    """Simulate the model recursively, feeding outputs back as lagged outputs.

    The difference signals are computed from ``u``; the moving-average
    noise terms are not simulated.  ``bound`` caps |y(k)| and defaults to
    :func:`divergence_bound` of ``y_init``; it must be positive, and
    ``inf`` means no bound.  The first sample that is not finite or
    exceeds it is returned as ``diverged_at``, with NaN from there on.

    Each term's exogenous part (its parameter times its input and
    difference-signal factors) is computed once as a vector over the
    simulated samples, or kept as the bare parameter, and the parts of
    the terms on one output monomial are summed in term order, so that
    a·y + b·y is stepped as (a + b)·y.  A model whose output monomials are
    all distinct gets the bits of a loop over its terms.  A loop generated
    for the model's output-lag structure steps through the summed parts,
    monomials in order of first use, and multiplies each sample by the
    monomial's lagged outputs, which it carries as local Python floats
    from step to step.  The bound is checked once after the loop, with
    :func:`nan_from_unbounded`: the samples before the first bad one are the
    ones a check at every step would have kept.
    """
    u = np.asarray(u, dtype=float)
    y_init = np.atleast_1d(np.asarray(y_init, dtype=float))
    if len(y_init) < model.max_output_lag:
        raise InsufficientDataError(
            f"need at least {model.max_output_lag} initial output samples, got {len(y_init)}"
        )
    n = len(u)
    p = model.max_lag
    start = max(len(y_init), p)
    if n < start:
        raise InsufficientDataError("input shorter than the initialization horizon")
    bound = resolve_bound(bound, y_init)

    table = _signal_table(u)
    parts = {}  # output lags -> the exogenous parts of its terms, summed in term order
    for th, t in zip(model.theta, model.process_terms):
        exogenous = [f for f in t.factors if f[0] is not Variable.OUTPUT]
        lags = tuple(lag for var, lag, exp in t.factors if var is Variable.OUTPUT
                     for _ in range(exp))
        part = th  # a bare parameter stays a float: no allocation, no per-step index
        if exogenous:
            part = _multiply_factors(np.full(n - start, th), exogenous, table, start)
        parts[lags] = parts[lags] + part if lags in parts else part
    structure = tuple((lags, isinstance(part, np.ndarray)) for lags, part in parts.items())
    # the loop zips Python floats out of an array('d') copy of each vector
    args = [array("d", part.tobytes()) if isinstance(part, np.ndarray) else part
            for part in parts.values()]

    buf, y = zero_buffer(n)
    y[: len(y_init)] = y_init
    _step_loop(structure)(buf, start, n, *args)
    return SimulationResult(y, diverged_at=nan_from_unbounded(y, bound, start))


def run_inverse_model(model: NarxModel, y, u_init):
    """Free-run an inverse-direction model: the system output drives the
    recursion and the trajectory is the estimated input."""
    if model.direction != "inverse":
        raise ParameterError("model is not tagged as inverse-direction")
    return free_run_simulate(model, u=y, y_init=u_init)
