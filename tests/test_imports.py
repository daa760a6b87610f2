"""Every module-level import in the package is used, and one module
writes CSV.

An import that nothing in its module reads is dead code that still runs
at import time and misleads a reader about the module's dependencies.
``__init__.py`` re-exports by design and is skipped, as is an import on a
line marked ``# noqa: F401`` (a binding kept on purpose).

Every CSV artifact goes through ``data.write_csv``, which owns the float
format; a second ``csv.writer`` would be a second copy of it to drift.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "narxident"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
