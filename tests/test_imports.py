"""Every module-level import in the package is used, one module writes
CSV, and one module generates code.

An import that nothing in its module reads is dead code that still runs
at import time and misleads a reader about the module's dependencies.
``__init__.py`` re-exports by design and is skipped, as is an import on a
line marked ``# noqa: F401`` (a binding kept on purpose).

Every module-level function and class of the package, and every method
and property of its classes (dunders aside), is read somewhere outside its
own definition, in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``:
code that nothing calls is dead weight a reader still has to check.  An
import, such as ``__init__.py``'s re-exports, is no reference.

Every CSV artifact goes through ``data.write_csv``, which owns the float
format; a second ``csv.writer`` would be a second copy of it to drift.
Likewise ``regression.py`` is the one module that generates and runs
code (the free-run loop), so ``exec`` and ``compile`` appear nowhere else,
and ``config.py`` is the one module that serializes a config: no other
module imports ``json`` or reads ``config_to_dict``.

Importing the package does not load SciPy: ``scipy.signal`` alone takes
most of a second to import, and only filter design and filtering use it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "narxident"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_modules_are_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


def _read_names(node, skip):
    """Names and attribute names that ``node`` reads, apart from ``skip``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))} - skip


def _own_name(node):
    return {node.name} if isinstance(node, DEFINITIONS) else set()


def _references(path):
    """Names that ``path`` reads, a top-level definition's or a method's own
    name not counted inside its body."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            for part in (*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body):
                names |= _read_names(part, _own_name(stmt) | _own_name(part))
        else:
            names |= _read_names(stmt, _own_name(stmt))
    return names


def _definitions(path):
    """``(line, name)`` of each top-level function and class of ``path`` and
    of each method and property of its classes, dunders skipped."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield item.lineno, f"{node.name}.{item.name}", item.name


def test_every_module_level_definition_is_referenced():
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    referenced = set().union(*map(_references, files))
    unreferenced = [f"{path.name}:{line} {label}" for path in MODULES
                    for line, label, name in _definitions(path) if name not in referenced]
    assert unreferenced == []


def _uses_csv_writer(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "writer"
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "csv"
                and any(alias.name == "writer" for alias in node.names)):
            return True
    return False


def test_csv_writer_is_used_in_one_module():
    assert [p.name for p in MODULES if _uses_csv_writer(p)] == ["data.py"]


def _calls_code_generation(path):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in ("exec", "compile")
               for node in ast.walk(ast.parse(path.read_text())))


def test_code_is_generated_in_one_module():
    assert [p.name for p in MODULES if _calls_code_generation(p)] == ["regression.py"]


def _serializes_config(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                node.module == "json" or any(a.name == "config_to_dict" for a in node.names)):
            return True
        if (isinstance(node, ast.Name) and node.id == "config_to_dict"
                or isinstance(node, ast.Attribute) and node.attr == "config_to_dict"):
            return True
    return False


def test_config_is_serialized_in_one_module():
    assert [p.name for p in MODULES if _serializes_config(p)] == ["config.py"]


_FRESH_IMPORT = """
import json, sys
import narxident, narxident.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import numpy as np
spec = narxident.InputDesignSpec((0.01,), (300,), (0.5,), (0.1,), sample_rate=1.0)
u = narxident.design_input(spec, np.random.default_rng(0))
print(json.dumps([loaded, len(u), bool(np.all(np.isfinite(u))), "scipy.signal" in sys.modules]))
"""


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    loaded, n, finite, signal_loaded = json.loads(out.stdout)
    assert loaded == []
    # the first design loads scipy.signal on demand
    assert (n, finite, signal_loaded) == (300, True, True)
