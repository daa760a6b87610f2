"""Regression-matrix assembly, one-step prediction, and free-run simulation."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isfinite

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
    if len(u) >= 2:
        phi1, phi2 = hysteresis_signals(u)
    else:
        phi1 = np.zeros_like(u)
        phi2 = np.zeros_like(u)
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
    if not model.process_terms:
        return np.zeros(len(data))
    psi, _ = build_regression(model.process_terms, data)
    return psi @ np.asarray(model.theta)


@dataclass(frozen=True)
class SimulationResult:
    """Free-run trajectory plus a divergence flag.

    When ``diverged`` is true the trajectory is partial: samples from the
    first out-of-bound step onward are NaN.
    """

    y: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None


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


def free_run_simulate(model: NarxModel, u, y_init, bound=None):
    """Simulate the model recursively, feeding outputs back as lagged outputs.

    The difference signals are computed from ``u``; the moving-average
    noise terms are not simulated.  ``bound`` caps |y(k)| and defaults to
    :func:`divergence_bound` of ``y_init``; when exceeded the run stops
    and the partial trajectory is returned with ``diverged=True``.  It
    must be positive; ``inf`` means no bound.

    Each term's exogenous part (its parameter times its input and
    difference-signal factors) is computed once as a vector; the
    recursion multiplies it by the term's lagged outputs on Python floats.
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
    terms = []  # (exogenous part over k = 0 .. n-1, output lags with repeats)
    for th, t in zip(model.theta, model.process_terms):
        exogenous = [f for f in t.factors if f[0] is not Variable.OUTPUT]
        buf, view = zero_buffer(n)
        view[start:] = th
        _multiply_factors(view[start:], exogenous, table, start)
        lags = tuple(lag for var, lag, exp in t.factors if var is Variable.OUTPUT
                     for _ in range(exp))
        terms.append((buf, lags))

    y, y_view = zero_buffer(n)
    y_view[: len(y_init)] = y_init
    for k in range(start, n):
        acc = 0.0
        for part, lags in terms:
            val = part[k]
            for lag in lags:
                val *= y[k - lag]
            acc += val
        if not isfinite(acc) or abs(acc) > bound:
            y_view[k:] = np.nan
            return SimulationResult(y_view, diverged=True, diverged_at=k)
        y[k] = acc
    return SimulationResult(y_view)


def run_inverse_model(model: NarxModel, y, u_init):
    """Free-run an inverse-direction model: the system output drives the
    recursion and the trajectory is the estimated input."""
    if model.direction != "inverse":
        raise ParameterError("model is not tagged as inverse-direction")
    return free_run_simulate(model, u=y, y_init=u_init)
