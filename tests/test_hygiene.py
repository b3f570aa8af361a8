"""Package hygiene: every module of ``svalgebra`` uses the names it imports,
the package exports exactly the names its ``__init__`` imports, one
echelon-form class serves the rational and the modular elimination, the
mod-p oracle shares only the forced-zero presolve with them, the post-Lie
checker evaluates instances without the Element bracket, the parser has no
character cursor and keeps no state between calls, solvers guard their
radius only through ``Window.require``, the command line keeps one
subcommand table and reads no argv text with Python's own number grammar,
each algebra rule (the structure constants, the lattice check and its
error, the sweep verdict) is written once, the classified derivation shape
is composed in one function, and no source line is longer than 114
characters.

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


def calls(source: str):
    """(qualified name of the function or class around it, called name) for
    each call, plain or as an attribute; ``<module>`` for a call at top
    level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    found.append((".".join(where) or "<module>", func.id))
                elif isinstance(func, ast.Attribute):
                    found.append((".".join(where) or "<module>", func.attr))
            visit(child, where)

    visit(ast.parse(source), [])
    return found


def callers(source: str, name: str):
    """Where ``name`` is called, as `calls` names the place."""
    return [where for where, called in calls(source) if called == name]


def reached(source: str, start: str, shared: set):
    """Every name that ``start`` calls, directly, in a nested function or
    through functions of the same module, without following the names in
    ``shared``."""
    pairs, found, todo = calls(source), set(), [start]
    while todo:
        f = todo.pop()
        for where, called in pairs:
            if (where == f or where.startswith(f + ".")) and called not in found:
                found.add(called)
                if called not in shared:
                    todo.append(called)
    return found


def test_scan_sees_nested_and_attribute_calls():
    source = (
        "x = _Rref()\n"
        "class A:\n    def f(self):\n        return [linalg._Rref() for _ in ()]\n"
        "def g():\n    def h():\n        return _Rref\n    return _Rref()\n"
    )
    assert callers(source, "_Rref") == ["<module>", "A.f", "g"]


def test_scan_follows_module_functions_and_stops_at_shared_ones():
    source = (
        "def oracle():\n    def inner():\n        return helper()\n    return shared(inner())\n"
        "def helper():\n    return vec_add_scaled()\n"
        "def shared():\n    return _Rref()\n"
    )
    assert reached(source, "oracle", {"shared"}) == {"helper", "inner", "shared", "vec_add_scaled"}
    assert "_Rref" in reached(source, "oracle", set())


def test_one_exact_elimination_path():
    """Every solve goes through the forced-zero presolve: only
    ``linalg._eliminate`` (over the rationals) and ``linalg._modular_kernel``
    (mod ``_P``) build an ``_Rref``, which is the package's one echelon-form
    class; ``_RrefModP``, its former copy mod ``_P``, is defined nowhere."""
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES + ["__init__"]}
    builders = [f"{module}.{where}" for module, source in sources.items() for where in callers(source, "_Rref")]
    assert builders == ["linalg._eliminate", "linalg._modular_kernel"]
    built = {
        node.name: [ast.unparse(call) for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == "_Rref"]
        for node in ast.parse(sources["linalg"]).body
        if isinstance(node, ast.FunctionDef)
    }
    assert built["_eliminate"] == ["_Rref()"]
    assert built["_modular_kernel"] == ["_Rref(_P)"]
    defined = [
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name.startswith("_Rref")
    ]
    assert defined == ["linalg._Rref"]


def test_oracle_shares_only_the_forced_pass():
    """The forced-zero worklist is defined once, in ``linalg._forced_columns``,
    and both eliminations call it, the exact one through ``_presolve``.
    Beyond it the mod-p oracle reaches none of the exact elimination's code
    and none of the kernel's modular pass, and the kernel never reaches the
    oracle's elimination."""
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES + ["__init__"]}
    defined = [
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_forced_columns"
    ]
    assert defined == ["linalg._forced_columns"]
    users = sorted(
        f"{module}.{where}" for module, source in sources.items() for where in callers(source, "_forced_columns")
    )
    assert users == ["linalg._presolve", "linalg.kernel_dimension_modp"]
    names = reached(sources["linalg"], "kernel_dimension_modp", {"_forced_columns"})
    assert {"_forced_columns", "_rank_mod"} <= names
    assert not names & {"_eliminate", "_Rref", "_reduce", "vec_add_scaled"}
    # the helpers the kernel calls; `_negated_rational` is handed over, not called
    modular = {"_presolve", "_modular_kernel", "_Rref", "_kernel_vectors", "_live_rows"}
    assert not names & modular
    kernel = reached(sources["linalg"], "kernel_basis", set())
    assert modular <= kernel
    assert "_rank_mod" not in kernel


ROW_BUILDERS = {
    "operators": "derivation_constraint_matrix",
    "biderivations": "biderivation_constraint_matrix",
    "postlie": "solve_postlie_window",
}


def test_row_builders_hand_their_rows_over_once():
    """The assembled systems go to the ``SparseMatrix`` constructor as one
    row list, never row by row through ``add_row``: no function of the
    package calls ``add_row``, which is kept for callers outside it.  The
    brute enclosure is trimmed by ``_trim_step``, and a span is cut by
    conditions on its coordinates in one place, ``linalg.vanishing_combinations``,
    which the skewsymmetric biderivations and the brute enclosure call;
    ``kernel_combinations`` and ``_trim_basis``, which it replaced, are gone."""
    sources = {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES + ["__init__"]}
    for module, builder in ROW_BUILDERS.items():
        names = reached(sources[module], builder, set())
        assert "SparseMatrix" in names, builder
        assert "add_row" not in names, builder
    assert "_trim_step" in reached(sources["postlie"], "solve_postlie_window", set())
    assert [f"{m}.{w}" for m, source in sources.items() for w in callers(source, "add_row")] == []
    defined = {
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    }
    assert [name for name in defined if name.endswith(".vanishing_combinations")] == ["linalg.vanishing_combinations"]
    assert not {name.split(".")[-1] for name in defined} & {"kernel_combinations", "_trim_basis"}
    users = sorted(
        f"{module}.{where}"
        for module, source in sources.items()
        for where in callers(source, "vanishing_combinations")
    )
    assert users == ["biderivations.skew_kernel_members", "postlie.solve_postlie_window"]


POSTLIE_ELEMENT_HELPERS = {"_left_product", "_right_product", "_axiom5_defect", "_axiom6_defect", "_axiom7_defect"}


def test_postlie_checker_skips_the_element_bracket():
    """Both post-Lie entry points evaluate through ``AxiomCheck``, neither
    reaches the Element bracket or window membership of elements, and the
    Element helpers of the old checker are gone.  ``bracket_basis`` is
    called only by the fill of the check's bracket table, which keeps what
    it computes, so the full check computes each bracket once; a replay
    computes the brackets its one instance reads."""
    source = (PACKAGE / "postlie.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert not defined & POSTLIE_ELEMENT_HELPERS
    for entry in ("postlie_axiom_defects", "axiom_defect"):
        names = reached(source, entry, set())
        assert "AxiomCheck" in names
        assert not names & ({"bracket", "contains_element"} | POSTLIE_ELEMENT_HELPERS), entry
    assert sorted(callers(source, "bracket_basis")) == ["AxiomCheck.__init__.bracket_entry", "triviality_witness"]


CURSOR_PARSER = {"_Cursor", "_parse_digits", "_parse_rational", "_parse_generator", "_parse_term"}


def test_parser_matches_patterns_without_a_cursor():
    """The parser reads text with compiled patterns matched in place: it
    defines no character cursor or its helpers and calls no per-character
    ``peek``, ``skip_ws`` or ``take``."""
    source = (PACKAGE / "parsing.py").read_text()
    defined = {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & CURSOR_PARSER
    assert not {called for _, called in calls(source)} & {"peek", "skip_ws", "take"}


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHES = {"cache", "lru_cache", "cached_property"}


def lasting_containers(source: str):
    """Line numbers of the dict, list and set values bound at module or
    class level, other than ``__all__``, and of the imports and uses of a
    functools cache decorator: state that outlives one call."""
    tree = ast.parse(source)
    found = []
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
                targets = [stmt.target.id] if isinstance(stmt.target, ast.Name) else []
            else:
                continue
            value = stmt.value
            if isinstance(value, ast.Call):
                func = value.func
                value = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (isinstance(value, CONTAINERS) or value in CONTAINER_CALLS) and targets != ["__all__"]:
                found.append(stmt.lineno)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in CACHES for alias in node.names):
                found.append(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                if name in CACHES:
                    found.append(deco.lineno)
    return found


def test_scan_sees_lasting_containers():
    source = (
        "import re\nfrom fractions import Fraction\n__all__ = ['f']\n"
        "_P = re.compile('x')\n_ONE = Fraction(1)\n"
        "_MEMO = {}\n_SEEN: set = set()\n"
        "class C:\n    rows = [1]\n"
        "from functools import lru_cache, partial\nimport functools\n"
        "@lru_cache(maxsize=None)\ndef f():\n    local = {}\n    return local\n"
        "@functools.cache\ndef g():\n    return partial(f)\n"
    )
    assert sorted(lasting_containers(source)) == [6, 7, 9, 10, 12, 16]


def test_parser_keeps_no_state_between_calls():
    """The parser's token memo is made by each public entry point and
    dropped when it returns: ``parsing.py`` binds no dict, list or set at
    module or class level (``__all__`` aside) and uses no functools cache.
    Compiled patterns and Fraction constants are allowed."""
    assert lasting_containers((PACKAGE / "parsing.py").read_text()) == []


def compares(source: str):
    """(qualified name of the function or class around it, unparsed
    comparison) for each comparison, as `calls` names the place."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Compare):
                found.append((".".join(where) or "<module>", child))
            visit(child, where)

    visit(ast.parse(source), [])
    return found


def radius_bounds(source: str):
    """Where a window radius (an attribute ``radius``) is compared with
    anything other than the size ``abs(...)`` of an index."""
    found = []
    for where, node in compares(source):
        operands = [node.left] + node.comparators
        if any(isinstance(o, ast.Attribute) and o.attr == "radius" for o in operands):
            others = [o for o in operands if not (isinstance(o, ast.Attribute) and o.attr == "radius")]
            if not all(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "abs" for o in others):
                found.append(where)
    return found


def test_scan_sees_radius_bounds_but_not_index_sizes():
    source = (
        "def solve(w):\n    if w.radius < 3:\n        raise ValueError\n"
        "def inside(self, i):\n    return abs(i) <= self.radius\n"
        "class W:\n    def need(self, k):\n        return k > self.radius\n"
    )
    assert radius_bounds(source) == ["solve", "W.need"]


def test_one_radius_guard():
    """Solvers state their smallest radius through ``Window.require``:
    outside ``windows.py`` only ``cli.main`` compares a radius with a
    minimum, for the usage error it gives before any file is read."""
    found = [
        f"{module}.{where}"
        for module in MODULES + ["__init__"]
        if module != "windows"
        for where in radius_bounds((PACKAGE / f"{module}.py").read_text())
    ]
    assert found == ["cli.main"]


def test_cli_keeps_one_subcommand_table():
    """The subparsers carry their handlers and minimum radii: ``cli.py``
    binds and reads no ``_HANDLERS`` or ``_MIN_WINDOW`` table."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"_HANDLERS", "_MIN_WINDOW"}


def test_cli_reads_numbers_with_the_element_grammar():
    """``cli.py`` converts no argv text with Python's own number grammar:
    every call of ``Fraction`` or ``int`` there takes integer literals only."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    conversions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("Fraction", "int")
    ]
    for node in conversions:
        assert all(isinstance(a, ast.Constant) and type(a.value) is int for a in node.args), ast.unparse(node)
        assert not node.keywords, ast.unparse(node)


def test_unused_families_tuple_is_gone():
    import svalgebra.algebra as algebra

    assert not hasattr(algebra, "FAMILIES")


MATH_MODULES = ["windows", "linalg", "operators", "biderivations", "propositions", "postlie"]


def function(source: str, name: str) -> ast.FunctionDef:
    (node,) = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_domain_error_is_defined_once():
    defined = [
        module
        for module in MODULES + ["__init__"]
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "DomainError"
    ]
    assert defined == ["algebra"]


@pytest.mark.parametrize("module", MATH_MODULES)
def test_math_modules_do_not_import_the_parser(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "parsing", f"line {node.lineno}"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[-1] == "parsing" for alias in node.names), f"line {node.lineno}"


def test_parser_leaves_the_lattice_check_to_algebra():
    """``parsing._generator`` calls ``validate_generator`` and raises no
    DomainError of its own."""
    node = function((PACKAGE / "parsing.py").read_text(), "_generator")
    raised = [ast.unparse(n.exc) for n in ast.walk(node) if isinstance(n, ast.Raise) and n.exc is not None]
    assert not [r for r in raised if "DomainError" in r]
    assert "validate_generator" in {called for _, called in calls(ast.unparse(node))}


def test_bracket_pair_reads_the_structure_table():
    """``_bracket_pair`` compares no family letter: it calls ``structure``,
    and the family pairs live in ``_STRUCTURE`` only."""
    node = function((PACKAGE / "algebra.py").read_text(), "_bracket_pair")
    letters = [
        ast.unparse(n)
        for n in ast.walk(node)
        if isinstance(n, ast.Compare)
        and any(isinstance(o, ast.Constant) and o.value in ("L", "Y", "M") for o in [n.left] + n.comparators)
    ]
    assert letters == []
    assert "structure" in {called for _, called in calls(ast.unparse(node))}


def test_only_structure_reads_the_structure_table():
    """``_STRUCTURE`` is bound at the top of ``algebra`` and read inside
    ``structure`` only, nowhere else in the package."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and any(
                isinstance(n, ast.Name) and n.id == "_STRUCTURE" for n in ast.walk(fn)
            ):
                readers.append(f"{path.stem}.{getattr(fn, 'name', '<lambda>')}")
        top = [n for n in tree.body if "_STRUCTURE" in {x.id for x in ast.walk(n) if isinstance(x, ast.Name)}]
        assert all(isinstance(n, (ast.FunctionDef, ast.AnnAssign)) for n in top), path.name
    assert readers == ["algebra.structure"]


def test_window_tables_read_the_structure_function():
    """The one integer-position table, ``BracketTable``, reads
    ``structure`` and never builds an Element bracket; in ``windows`` only
    the Lie axiom check, which tests ``bracket_basis`` itself, calls it.
    ``BracketTable`` keeps no ``product`` list that no solver reads."""
    from svalgebra.windows import BracketTable, Window
    from svalgebra.algebra import AlgebraConfig

    source = (PACKAGE / "windows.py").read_text()
    called = {name for where, name in calls(source) if where.startswith("BracketTable.")}
    assert "structure" in called and "bracket_basis" not in called
    assert callers(source, "bracket_basis") == ["lie_axiom_defects", "lie_axiom_defects"]
    assert not hasattr(BracketTable(Window(2), AlgebraConfig()), "product")


def test_one_bracket_table_per_window():
    """``windows`` reads ``structure`` in one function, ``BracketTable``
    keeps one inverse-free table (no ``left`` or ``right`` list), and
    ``LeibnizCheck`` extends it with no numbering or bracket reader of its
    own: it defines only ``__init__``, ``instance`` and ``element``, and
    its ``__init__`` reads no structure constant."""
    from svalgebra.windows import BracketTable, LeibnizCheck, Window
    from svalgebra.algebra import AlgebraConfig

    source = (PACKAGE / "windows.py").read_text()
    assert callers(source, "structure") == ["BracketTable._bracket"]
    table = BracketTable(Window(2), AlgebraConfig())
    assert not {"left", "right", "twice_index"} & set(vars(table))
    assert issubclass(LeibnizCheck, BracketTable)
    (cls,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == "LeibnizCheck"]
    defined = [n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert defined == ["__init__", "instance", "element"]
    called = {name for where, name in calls(source) if where.startswith("LeibnizCheck.")}
    assert not called & {"structure", "bracket_basis", "_bracket", "position", "divmod"}


CLOSED_FORM_READERS = {
    "operators": ["DerivationDecomposition.realize", "predicted_derivation_operators", "decompose_derivation"],
    "biderivations": ["BiderivationDecomposition.reassemble"],
}


def test_one_closed_form_for_the_classified_derivations(monkeypatch):
    """``DerivationDecomposition.value`` is the one function of ``operators``
    and ``biderivations`` that combines a bracket with ``outer_image``.
    ``realize``, ``predicted_derivation_operators``, ``decompose_derivation``
    and ``reassemble`` reach it when they run, and none of them calls
    ``outer_image``, ``bracket`` or ``bracket_basis`` itself."""
    from fractions import Fraction

    from svalgebra import AlgebraConfig, BiderivationForm, Element, Window, gen
    from svalgebra.biderivations import decompose_biderivation, realize
    from svalgebra.operators import (
        DerivationDecomposition,
        builtin_derivation,
        decompose_derivation,
        predicted_derivation_operators,
    )

    shape = {"outer_image", "bracket", "bracket_basis"}
    combining = []
    for module, readers in CLOSED_FORM_READERS.items():
        found = calls((PACKAGE / f"{module}.py").read_text())
        places = {where for where, _ in found}
        for where in places:
            names = {called for place, called in found if place == where}
            if "outer_image" in names and names & {"bracket", "bracket_basis"}:
                combining.append(f"{module}.{where}")
        for reader in readers:
            assert reader in places, reader
            names = {called for where, called in found if where == reader or where.startswith(reader + ".")}
            assert not names & shape, reader
    assert combining == ["operators.DerivationDecomposition.value"]

    value, seen = DerivationDecomposition.value, []

    def counted(self, g, cfg):
        seen.append(g)
        return value(self, g, cfg)

    monkeypatch.setattr(DerivationDecomposition, "value", counted)
    cfg, w = AlgebraConfig(Fraction(0)), Window(2)
    dec = decompose_biderivation(realize(BiderivationForm(1, {}), w, cfg), w, cfg)
    runs = {
        "realize": lambda: DerivationDecomposition(Element.monomial(gen("L", 1))).realize(w, cfg),
        "predicted_derivation_operators": lambda: predicted_derivation_operators(w, cfg),
        "decompose_derivation": lambda: decompose_derivation(builtin_derivation("D1", w, cfg), w, cfg),
        "reassemble": lambda: dec.reassemble(gen("L", 0), gen("L", 1), cfg),
    }
    for name, run in runs.items():
        seen.clear()
        run()
        assert seen, name


def test_dead_helpers_are_gone():
    from svalgebra.algebra import Element
    from svalgebra.windows import Window

    assert not {"support", "iter_terms"} & set(dir(Element))
    assert not hasattr(Window, "contains_index")


def test_sweep_builds_each_case_in_one_place():
    assert callers((PACKAGE / "postlie.py").read_text(), "SweepCase") == ["verify_triviality_theorem"]


MAX_LINE = 114


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_line_is_too_long(module):
    lines = (PACKAGE / f"{module}.py").read_text().splitlines()
    long = [number for number, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert not long, f"{module}.py lines longer than {MAX_LINE} characters: {long}"
