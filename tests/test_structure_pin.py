"""Pinned selected structures of the built-in experiments.

A change meant to keep the selected models (a refactor or a speed-up of
ranking, truncation or estimation) must leave this table as it is.  A
change that means to select other models updates the table and lists the
ACCEPTANCE 1-8 lines before and after.
"""

import pytest

from narxident import default_config, run_identification

# (experiment, seed, AIC argmin, FROLS order prefix up to the argmin)
PINNED = (
    ("heating", 0, 30,
     "y(k-1) u(k-3)^2 y(k-2) u(k-3) u(k-2)*u(k-3) y(k-3) u(k-2) u(k-2)^2 "
     "y(k-2)^3 y(k-3)^2*u(k-3) y(k-3)^2*u(k-2) u(k-2)^3 u(k-2)^2*u(k-3) "
     "u(k-3)^3 y(k-3)*u(k-2) y(k-3)*u(k-3) y(k-1)*u(k-3) "
     "y(k-2)*y(k-3)*u(k-3) y(k-2)*u(k-2)^2 y(k-2)^2*u(k-2) y(k-2)^2*y(k-3) "
     "y(k-1)*y(k-2) y(k-1)*y(k-3) y(k-2)*u(k-3)^2 y(k-2)^2*u(k-3) y(k-3)^2 "
     "y(k-2)^2 y(k-2)*u(k-3) y(k-1)^2 y(k-3)*u(k-3)^2"),
    ("heating", 1, 3,
     "y(k-1) y(k-2) u(k-2)^2"),
    ("heating", 2, 22,
     "y(k-1) y(k-2) u(k-2)^2 u(k-3) u(k-3)^2 y(k-3) y(k-1)^2*y(k-2) "
     "y(k-1)*u(k-2) y(k-1)^2*u(k-3) u(k-2) y(k-1)^2*y(k-3) y(k-1)^2*u(k-2) "
     "y(k-1)^2 u(k-2)*u(k-3) y(k-1)*u(k-3)^2 y(k-3)^2*u(k-2) "
     "y(k-3)^2*u(k-3) y(k-1)*y(k-3)*u(k-3) y(k-1)*y(k-3)*u(k-2) "
     "y(k-1)*u(k-2)*u(k-3) y(k-3)*u(k-2)^2 y(k-3)^3"),
    ("heating", 3, 3,
     "y(k-1) y(k-3) u(k-2)^2"),
    ("heating", 4, 27,
     "y(k-1) u(k-3)^2 y(k-2) u(k-3) u(k-2)*u(k-3) u(k-2) u(k-2)^2 y(k-3) "
     "y(k-3)*u(k-2) y(k-2)*y(k-3)^2 y(k-3)*u(k-3) y(k-3)^2*u(k-2) "
     "y(k-3)^2*u(k-3) y(k-2)*y(k-3) u(k-2)^3 u(k-2)^2*u(k-3) "
     "u(k-2)*u(k-3)^2 y(k-2)*y(k-3)*u(k-3) y(k-3)*u(k-2)^2 y(k-3)*u(k-3)^2 "
     "y(k-2)^2*u(k-2) y(k-2)*u(k-3) y(k-2)*u(k-2)^2 y(k-2)*y(k-3)*u(k-2) "
     "y(k-2)*u(k-2)*u(k-3) y(k-3)^2 y(k-2)*u(k-2)"),
    ("bouc_wen", 0, 5,
     "y(k-1) phi1(k-1) u(k-1)*phi1(k-1)*phi2(k-1) "
     "y(k-1)*phi1(k-1)*phi2(k-1) phi1(k-1)^2"),
)


@pytest.mark.parametrize("name, seed, argmin, prefix", PINNED)
def test_selected_structure_is_pinned(name, seed, argmin, prefix):
    result = run_identification(default_config(name), seed)
    assert result.curve.argmin == argmin
    assert [str(t) for t in result.ranking.ordered_terms[:argmin]] == prefix.split()
    assert [str(t) for t in result.model.process_terms] == prefix.split()
