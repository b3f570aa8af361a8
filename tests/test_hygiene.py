"""Package hygiene: every module of ``svalgebra`` uses the names it imports,
and the package exports exactly the names its ``__init__`` imports.

Standard-library AST scans.  A name counts as used only where the code
references it (a ``Name`` node, which includes annotations and the base of
an attribute access); a mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "svalgebra"

# "module.name" imported only to be re-exported: bench/workloads.py and the
# tests import project_columns from operators, where it used to live
REEXPORTED = {"operators.project_columns"}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_docstring_mentions_as_unused():
    source = '"""Mentions Iterable."""\nfrom typing import Iterable, List\nx: List[int] = []\n'
    assert unused_imports(source) == [(2, "Iterable")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    found = unused_imports((PACKAGE / f"{module}.py").read_text())
    unused = [f"line {line}: {name}" for line, name in found if f"{module}.{name}" not in REEXPORTED]
    assert not unused, f"{module}.py imports names it never uses: {unused}"


def test_all_lists_the_imported_names_sorted():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert exported == sorted(imported)
