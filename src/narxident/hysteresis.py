"""Hysteresis-specific machinery.

Polynomial NARX models can reproduce rate-independent loops when the
first difference of the input and its sign are available as regressor
variables.  This module builds those signals, prunes candidate sets with
the three published exclusion rules, which always apply together
(:class:`ExperimentConfig` applies them exactly when its variables
include a difference signal), and assembles the unit-sum constraint on
linear output regressors that gives the constant-input hold property.
The rules are direction-agnostic; an inverse-direction model is tagged
by :attr:`NarxModel.direction`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError, ParameterError
from .model import CandidateSet, RegressorTerm, Variable


def hysteresis_signals(x):
    """First difference and its sign for a sampled signal.

    phi1(k) = x(k) - x(k-1) with phi1(0) = 0; phi2 = sign(phi1) with
    sign(0) = 0 so loading and unloading branches stay symmetric at rest.
    Any 1-D length works: one sample gives zeros, none empty arrays.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ParameterError("need a 1-D signal")
    phi1 = np.empty_like(x)
    phi1[:1] = 0.0
    phi1[1:] = x[1:] - x[:-1]
    return phi1, np.sign(phi1)


def _rule_i(t: RegressorTerm):
    # output raised to a power > 1, alone or with difference-signal factors
    return any(var is Variable.OUTPUT and exp > 1 for var, _, exp in t.factors)


def _rule_ii(t: RegressorTerm):
    # sign signal raised to a power above 1.  Because the sign takes
    # values in {-1, 0, 1}, even powers collapse to an indicator and odd
    # powers collapse to the sign itself, so any such term duplicates a
    # lower-degree candidate (e.g. y(k-1)*phi2(k-1)^2 shadows y(k-1) on
    # strictly varying inputs) and is removed whatever the cofactors.
    return any(var is Variable.PHI2 and exp > 1 for var, _, exp in t.factors)


def _rule_iii(t: RegressorTerm):
    # input factor present without any difference-signal factor: covers
    # pure-input terms and output-input cross terms lacking phi factors
    return t.uses(Variable.INPUT) and not (t.uses(Variable.PHI1) or t.uses(Variable.PHI2))


def apply_exclusion_rules(candidates: CandidateSet):
    """Remove candidate terms matching any of the three exclusion rules.

    Returns ``(pruned_set, exclusion_report)`` where the report maps each
    removed term to the name of the rule that removed it.
    """
    removed = {}
    kept = []
    for t in candidates.terms:
        if _rule_i(t):
            removed[t] = "rule_i"
        elif _rule_ii(t):
            removed[t] = "rule_ii"
        elif _rule_iii(t):
            removed[t] = "rule_iii"
        else:
            kept.append(t)
    return CandidateSet(tuple(kept), candidates.meta), removed


def exclusion_report_text(removed):
    """Human-readable exclusion report (term, rule that removed it)."""
    lines = [f"{t}\t{rule}" for t, rule in sorted(removed.items(), key=lambda kv: str(kv[0]))]
    return "\n".join(lines)


def sigma_y_constraint(terms):
    """Unit-sum constraint over the linear output regressors.

    Returns ``(c, b)`` with c_i = 1 exactly where term i is a pure
    first-power output lag and b = 1.  Feeding this to the constrained
    least-squares estimator forces the parameters of those terms to sum
    to one, which makes the model hold its state under constant input.
    """
    c = np.array([1.0 if t.degree == 1 and t.uses(Variable.OUTPUT) else 0.0 for t in terms])
    if not np.any(c):
        raise ConstraintError("no linear output regressor present; unit-sum constraint inapplicable")
    return c, 1.0
