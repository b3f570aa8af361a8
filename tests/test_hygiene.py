"""Package hygiene: every module of ``svalgebra`` uses the names it imports,
the package exports exactly the names its ``__init__`` imports, and one
function builds an exact elimination.

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


def callers(source: str, name: str):
    """Qualified name of the function or class around each call of ``name``
    (plain or as an attribute), ``<module>`` for a call at top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                    isinstance(func, ast.Attribute) and func.attr == name
                ):
                    found.append(".".join(where) or "<module>")
            visit(child, where)

    visit(ast.parse(source), [])
    return found


def test_scan_sees_nested_and_attribute_calls():
    source = (
        "x = _Rref()\n"
        "class A:\n    def f(self):\n        return [linalg._Rref() for _ in ()]\n"
        "def g():\n    def h():\n        return _Rref\n    return _Rref()\n"
    )
    assert callers(source, "_Rref") == ["<module>", "A.f", "g"]


def test_one_exact_elimination_path():
    """Every exact solve goes through the forced-zero presolve: only
    ``linalg._eliminate`` builds an ``_Rref``."""
    builders = [
        f"{module}.{where}"
        for module in MODULES + ["__init__"]
        for where in callers((PACKAGE / f"{module}.py").read_text(), "_Rref")
    ]
    assert builders == ["linalg._eliminate"]
