"""The bindings the benchmark's tracer wraps stay resolvable, and every
binding kept only for it is one that it wraps.

``perfbench/tracing.py`` replaces each ``narxident.<module>.<attr>`` in its
``TARGETS`` with a timing wrapper; a binding that no longer exists breaks
every traced benchmark run, which this suite does not otherwise exercise.
An import marked ``# noqa: F401`` outside ``__init__.py`` is read by
nothing in its module, so it must name a ``TARGETS`` row; once the row
goes, the import is dead and this check names it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "narxident"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_binding_resolves():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(f"narxident.{module}"), attr))


def test_every_kept_import_is_a_traced_binding():
    traced = {(module, attr) for module, attr, _ in _targets()}
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno])):
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert [binding for binding in kept if binding not in traced] == []
