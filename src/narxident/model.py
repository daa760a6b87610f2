"""NARX model representation and candidate-regressor enumeration.

A model term is a monomial: a product of lagged signal values raised to
integer powers.  Terms are stored in a canonical form (factors sorted by
variable kind, then lag, then exponent) so structural equality and
duplicate detection are well defined.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError


def is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_interval(ts):
    """Raise :class:`ParameterError` unless the sampling interval ``ts`` is a finite real > 0."""
    if not is_real(ts) or not 0 < ts < np.inf:
        raise ParameterError(f"sampling interval ts must be a finite real > 0, got {ts!r}")


def _as_variable(var):
    """``var``; :class:`ParameterError` unless it is a :class:`Variable`."""
    if not isinstance(var, Variable):
        raise ParameterError(f"not a Variable: {var!r}")
    return var


class Variable(Enum):
    """Signals a regressor factor may refer to.

    OUTPUT and INPUT are the model output and exogenous input (swapped
    roles for inverse-direction models).  PHI1 is the first difference of
    the input, PHI2 its sign.
    """

    OUTPUT = "y"
    INPUT = "u"
    PHI1 = "phi1"
    PHI2 = "phi2"

    @property
    def order(self):
        return _VARIABLE_ORDER[self]


_VARIABLE_ORDER = {var: i for i, var in enumerate(Variable)}  # definition order


@dataclass(frozen=True)
class RegressorTerm:
    """One product-of-lagged-variables monomial.

    ``factors`` is a tuple of ``(variable, lag, exponent)`` triples with
    positive integer lags and exponents; construction canonicalizes order and
    merges repeated (variable, lag) pairs.  An empty factor tuple is the
    constant term.
    """

    factors: tuple

    def __post_init__(self):
        merged = {}
        for var, lag, exp in self.factors:
            if not (is_int(lag) and is_int(exp)) or lag < 1 or exp < 1:
                raise ParameterError("lags and exponents must be positive integers")
            key = (_as_variable(var), int(lag))
            merged[key] = merged.get(key, 0) + int(exp)
        canon = tuple(
            (var, lag, exp)
            for (var, lag), exp in sorted(merged.items(), key=lambda kv: (kv[0][0].order, kv[0][1]))
        )
        object.__setattr__(self, "factors", canon)

    @property
    def degree(self):
        return sum(exp for _, _, exp in self.factors)

    @property
    def max_lag(self):
        return max((lag for _, lag, _ in self.factors), default=0)

    @property
    def is_constant(self):
        return not self.factors

    def max_lag_of(self, variable):
        return max((lag for var, lag, _ in self.factors if var is variable), default=0)

    def uses(self, variable):
        return any(var is variable for var, _, _ in self.factors)

    def sort_key(self):
        return (self.degree, tuple((v.order, lag, exp) for v, lag, exp in self.factors))

    def __str__(self):
        if self.is_constant:
            return "1"
        parts = []
        for var, lag, exp in self.factors:
            s = f"{var.value}(k-{lag})"
            if exp > 1:
                s += f"^{exp}"
            parts.append(s)
        return "*".join(parts)


_FACTOR_RE = re.compile(rf"^({'|'.join(var.value for var in Variable)})\(k-(\d+)\)(?:\^(\d+))?$")


def parse_term(text):
    """Parse the string form produced by ``str(RegressorTerm)``."""
    text = text.strip()
    if text == "1":
        return RegressorTerm(())
    factors = []
    for part in text.split("*"):
        m = _FACTOR_RE.match(part.strip())
        if m is None:
            raise ParameterError(f"cannot parse term factor: {part!r}")
        var = Variable(m.group(1))
        factors.append((var, int(m.group(2)), int(m.group(3) or 1)))
    return RegressorTerm(tuple(factors))


def term(*factors):
    """Shorthand constructor: ``term((Variable.OUTPUT, 1, 1), ...)``."""
    return RegressorTerm(tuple(factors))


@dataclass(frozen=True)
class CandidateMeta:
    """Meta-parameters bounding a candidate set: degree and lag ranges,
    integers with degree, n_y, tau_d >= 1 and n_u >= tau_d."""

    degree: int
    n_y: int
    n_u: int
    tau_d: int = 1

    def __post_init__(self):
        bounds = (self.degree, self.n_y, self.n_u, self.tau_d)
        if (not all(map(is_int, bounds)) or self.degree < 1 or self.n_y < 1 or self.tau_d < 1
                or self.n_u < self.tau_d):
            raise ParameterError(
                f"invalid meta-parameters: degree={self.degree}, n_y={self.n_y}, "
                f"n_u={self.n_u}, tau_d={self.tau_d}"
            )


@dataclass(frozen=True)
class CandidateSet:
    """Ordered, duplicate-free list of candidate regressor terms."""

    terms: tuple
    meta: CandidateMeta

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ParameterError("candidate set contains structurally equal terms")

    def __len__(self):
        return len(self.terms)


DEFAULT_VARIABLES = frozenset({Variable.OUTPUT, Variable.INPUT})


def generate_candidates(degree, n_y, n_u, tau_d=1, variables=DEFAULT_VARIABLES,
                        include_constant=False):
    """Enumerate all monomials of total degree 1..degree over the lagged variables.

    Returns a :class:`CandidateSet` in canonical order; the constant term,
    when requested, comes first.
    """
    meta = CandidateMeta(degree, n_y, n_u, tau_d)
    # input delay applies uniformly to u and to the difference signals
    atoms = [(var, lag) for var in sorted(map(_as_variable, variables), key=lambda v: v.order)
             for lag in (range(1, n_y + 1) if var is Variable.OUTPUT else range(tau_d, n_u + 1))]
    terms = []
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(atoms, d):
            terms.append(RegressorTerm(tuple((v, lag, 1) for v, lag in combo)))
    terms = sorted(set(terms), key=RegressorTerm.sort_key)
    if include_constant:
        terms.insert(0, RegressorTerm(()))
    return CandidateSet(tuple(terms), meta)


@dataclass(frozen=True)
class NarxModel:
    """A polynomial NARX model: process terms with their parameters.

    ``direction`` is ``"direct"`` for output-predicting models and
    ``"inverse"`` for input-predicting models (input and output roles
    swapped at the data level).
    """

    process_terms: tuple
    theta: tuple
    meta: CandidateMeta
    ts: float = 1.0
    direction: str = "direct"
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "process_terms", tuple(self.process_terms))
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) != len(self.process_terms):
            raise ParameterError("theta length must match process term count")
        check_interval(self.ts)
        if self.direction not in ("direct", "inverse"):
            raise ParameterError(f"unknown direction {self.direction!r}")

    @property
    def max_lag(self):
        return max((t.max_lag for t in self.process_terms), default=0)

    @property
    def max_output_lag(self):
        return max((t.max_lag_of(Variable.OUTPUT) for t in self.process_terms), default=0)

    def __str__(self):
        parts = [f"{th:+.6g}*{t}" for th, t in zip(self.theta, self.process_terms)]
        return "y(k) = " + " ".join(parts) if parts else "y(k) = 0"
