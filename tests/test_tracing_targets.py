"""The bindings the benchmark's tracer wraps stay resolvable.

``perfbench/tracing.py`` replaces each ``narxident.<module>.<attr>`` in its
``TARGETS`` with a timing wrapper; a binding that no longer exists breaks
every traced benchmark run, which this suite does not otherwise exercise.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"narxident.{module}"), attr))
