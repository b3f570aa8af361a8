"""Linear operators on a window: derivations, their solver and decomposition.

A derivation is a linear map with op([x,y]) = [op(x),y] + [x,op(y)].  On a
finite window four things live here:

  * the three outer derivations (D1, D2, D3), each written once as the
    image of one generator (``outer_image``), and inner derivations ad x,
  * a defect checker for the Leibniz identity over window pairs, on the
    integer core (``windows.LeibnizCheck``, the bracket table extended by
    the operator's value generators) the biderivation checker shares,
  * the exact constraint system whose kernel is the space of all window
    operators satisfying every truncation-faithful Leibniz constraint, on
    the columns ``OperatorCoords`` (the arity-1 ``windows.WindowCoords``),
    compared (``linalg.KernelComparison``) against the span of the known
    derivations on its interior; its rows (``derivation_rows``) also give
    the identity (2) rows of every biderivation slice,
  * the classified shape ad x + a.D1 + b.D2 + c.D3, written once as
    ``DerivationDecomposition.value``; the predicted span and the
    decomposition (radius 2 and up) read it through its unit forms.

Truncation discipline: a constraint row is emitted for a pair (g1, g2) and
an output coordinate h only when every generator the identity needs at
that coordinate exists inside the window.  Concretely the inner bracket
[g1,g2] must be window-supported and |h - g1|, |h - g2| <= N
(``BracketTable.faithful``), which covers every re-bracketed image
coordinate.  Window restrictions of genuine derivations then satisfy every
emitted row exactly, with no tolerance.  Rows are computed from the
window's one integer-position bracket table (``windows.BracketTable``),
which lists the closed pairs once; ``derivation_rows`` inverts it once,
and [p, g] = -[g, p] gives the other side.  Every term is a table lookup
plus integer column arithmetic, with no generator arithmetic per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Tuple

from .algebra import (
    ZERO,
    AlgebraConfig,
    DomainError,
    Element,
    GeneratorId,
    Scalar,
    bracket_basis,
    gen,
)
from .linalg import (
    KernelComparison,
    SparseMatrix,
    SparseVec,
    project_columns,  # re-exported: the benchmark and tests import it from here
    solve_linear,
    vec_bump,
)
from .windows import OUTSIDE, BracketTable, DefectReport, LeibnizCheck, Window, WindowCoords

M0 = gen("M", 0)


class DecompositionError(Exception):
    """No exact decomposition exists on this window."""


@dataclass
class LinearOperator:
    """Linear map given by its action on every window generator.

    Images are full elements and may reach outside the window; the map is
    only ever applied to window generators.
    """

    action: Dict[GeneratorId, Element]
    label: str = ""

    def apply_basis(self, g: GeneratorId) -> Element:
        img = self.action.get(g)
        if img is None:
            raise KeyError(f"operator {self.label or '?'} undefined on {g}")
        return img

    def apply(self, e: Element) -> Element:
        out = ZERO
        for g, c in e.terms.items():
            out = out + self.apply_basis(g).scaled(c)
        return out

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if set(self.action) != set(other.action):
            raise ValueError("operator domains differ")
        return LinearOperator(
            {g: img + other.action[g] for g, img in self.action.items()}
        )

    def scaled(self, c: Scalar) -> "LinearOperator":
        return LinearOperator({g: img.scaled(c) for g, img in self.action.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearOperator) and self.action == other.action


def operator_from_action(
    mapping: Mapping[GeneratorId, Element], w: Window, cfg: AlgebraConfig, label: str = ""
) -> LinearOperator:
    """Build an operator on the full window; omitted generators act as zero."""
    action: Dict[GeneratorId, Element] = {}
    for g in w.generators(cfg):
        action[g] = mapping.get(g, ZERO)
    for g in mapping:
        if g not in action:
            raise DomainError(f"generator {g} outside the window of radius {w.radius}")
    return LinearOperator(action, label)


OUTER_DERIVATIONS = ("D1", "D2", "D3")
_D3_WEIGHT = {"L": 0, "Y": 1, "M": 2}


def outer_image(which: str, g: GeneratorId) -> Element:
    """Image of one generator under an outer derivation.

    D1: L_m -> M_m.  D2: L_m -> m*M_m.  D3: Y_m -> Y_m, M_m -> 2*M_m.
    Each kills every other family.
    """
    if which == "D1":
        return Element.monomial(gen("M", g.index)) if g.family == "L" else ZERO
    if which == "D2":
        return Element.monomial(gen("M", g.index), g.index) if g.family == "L" else ZERO
    if which == "D3":
        return Element.monomial(g, _D3_WEIGHT[g.family])
    raise ValueError(f"unknown builtin derivation {which!r}")


def builtin_derivation(which: str, w: Window, cfg: AlgebraConfig) -> LinearOperator:
    """One of the three outer derivations (``outer_image``) on the window."""
    return LinearOperator({g: outer_image(which, g) for g in w.generators(cfg)}, which)


def inner_derivation(x: Element, w: Window, cfg: AlgebraConfig) -> LinearOperator:
    return DerivationDecomposition(x).realize(w, cfg, f"ad({x})")


def derivation_defect(op: LinearOperator, w: Window, cfg: AlgebraConfig) -> DefectReport:
    """Leibniz identity check over closed window pairs (``windows.LeibnizCheck``).

    A pair is closed when [g1,g2] is window-supported (so op applies) and
    both re-bracketed images stay window-supported.  Defects are compared
    on faithful coordinates only; mirrored pairs are skipped since the
    identity at (g2,g1) is the negative of the one at (g1,g2).  Raises
    KeyError when op is undefined on a window generator, and ValueError as
    ``LeibnizCheck`` does.
    """
    gens = w.generators(cfg)
    chk = LeibnizCheck(w, cfg, [op.apply_basis(g).terms for g in gens])
    rep = DefectReport()
    for a, b, t, cb in chk.pairs:
        d = chk.instance(a, b, cb, a, b, t)
        if d is not None:
            rep.tick()
            if d:
                rep.record((gens[a], gens[b]), chk.element(d), "leibniz")
    return rep


class OperatorCoords(WindowCoords):
    """Columns (source g, image h) of window operators: the value at (g,)
    is ``op.apply_basis(g)``."""

    def value(self, op: LinearOperator, args: Tuple[GeneratorId, ...]) -> Element:
        return op.apply_basis(*args)


def derivation_rows(table: BracketTable) -> Iterator[SparseVec]:
    """One row per (closed pair of ``table.pairs``, faithful output
    coordinate), on the ``OperatorCoords`` columns of the table's window;
    see the module docstring for the emission rule."""
    n, m = table.n, table.m
    # inverse[x * n + t]: each (p, c), p ascending, with [x, p] = c * t in the window
    inverse: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n * n)]
    for x in range(n):
        for p, e in enumerate(table.table[x * m:x * m + n]):
            if e is not None and e[0] != OUTSIDE:
                inverse[x * n + e[0]].append((p, Fraction(e[1], 2)))
    for p1, p2, t, dt in table.pairs:
        ct = Fraction(dt, 2)
        for h in table.faithful(p1, p2, range(n)):
            row: SparseVec = {t * n + h: ct} if ct else {}
            # -[op(g1), g2] = [g2, op(g1)] at h, then -[g1, op(g2)] at h
            for p, c in inverse[p2 * n + h]:
                vec_bump(row, p1 * n + p, c)
            for p, c in inverse[p1 * n + h]:
                vec_bump(row, p2 * n + p, -c)
            yield row


def derivation_constraint_matrix(w: Window, cfg: AlgebraConfig) -> Tuple[SparseMatrix, OperatorCoords]:
    """The exact linear system cutting out all window derivations."""
    coords = OperatorCoords(w, cfg)
    return SparseMatrix(coords.col_count, list(derivation_rows(BracketTable(w, cfg)))), coords


def predicted_derivation_operators(w: Window, cfg: AlgebraConfig) -> List[LinearOperator]:
    """Spanning set of the classified derivation space on the window: the
    unit forms (``_unit_forms``), realized under their labels."""
    return [form.realize(w, cfg, label) for label, form in _unit_forms(w, cfg)]


def classify_derivations(w: Window, cfg: AlgebraConfig) -> KernelComparison:
    w.require(3, "derivation solver")
    m, coords = derivation_constraint_matrix(w, cfg)
    predicted = [coords.encode(op) for op in predicted_derivation_operators(w, cfg)]
    return KernelComparison.of(coords, m, predicted)


@dataclass(frozen=True)
class DerivationDecomposition:
    """The classified shape ad(inner_part) + a*D1 + b*D2 + c*D3.

    ``value`` is its one closed form, read by ``realize``, the predicted
    span, ``decompose_derivation`` and the slice reassembly.  inner_part
    carries no M_0 term: ad M_0 = 0, so the coefficient is fixed to zero
    to make the decomposition unique.
    """

    inner_part: Element
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)

    def value(self, g: GeneratorId, cfg: AlgebraConfig) -> Element:
        """[inner_part, g] + a*D1(g) + b*D2(g) + c*D3(g); zero coefficients are skipped."""
        out = ZERO
        for x, k in self.inner_part.terms.items():
            out = out + bracket_basis(x, g, cfg).scaled(k)
        for d, k in zip(OUTER_DERIVATIONS, (self.a, self.b, self.c)):
            if k:
                out = out + outer_image(d, g).scaled(k)
        return out

    def realize(self, w: Window, cfg: AlgebraConfig, label: str = "decomposition") -> LinearOperator:
        return LinearOperator({g: self.value(g, cfg) for g in w.generators(cfg)}, label)


def _unit_forms(w: Window, cfg: AlgebraConfig) -> List[Tuple[str, DerivationDecomposition]]:
    """The classified spanning set as labelled unit forms: ad g for every
    window g != M_0 (M_0 is central) in canonical order, then D1, D2, D3."""
    forms = [(f"ad({x})", DerivationDecomposition(x))
             for x in (Element.monomial(g) for g in w.generators(cfg) if g != M0)]
    forms += [(d, DerivationDecomposition(ZERO, **{k: Fraction(1)})) for d, k in zip(OUTER_DERIVATIONS, "abc")]
    return forms


class UnitFormRows:
    """The equations ``decompose_derivation`` solves, less their right-hand
    sides, built once per window: for each interior generator g, in
    canonical order, the rows h -> {j: h coefficient of unit form j at g}
    (``_unit_forms``), h in canonical order.  Interior generators carry the
    equations because boundary images of a window-supported ad x reach
    outside the window.  ``decompose`` fits any number of operators, such
    as every slice of a biderivation, against this one build.
    """

    def __init__(self, w: Window, cfg: AlgebraConfig):
        self.forms = [form for _, form in _unit_forms(w, cfg)]
        self.rows: List[Tuple[GeneratorId, Dict[GeneratorId, SparseVec]]] = []
        for g in w.interior_generators(cfg):
            rows: Dict[GeneratorId, SparseVec] = {}
            for j, form in enumerate(self.forms):
                for h, c in form.value(g, cfg).terms.items():
                    vec_bump(rows.setdefault(h, {}), j, c)
            self.rows.append((g, {h: rows[h] for h in sorted(rows, key=GeneratorId.sort_key)}))

    def decompose(self, op: LinearOperator) -> DerivationDecomposition:
        """Solve op = ad x + a*D1 + b*D2 + c*D3 on the interior generators;
        see ``decompose_derivation``."""
        equations: List[SparseVec] = []
        rhs: List[Fraction] = []
        for g, rows in self.rows:
            target = op.apply_basis(g)
            for h, row in rows.items():
                equations.append(row)
                rhs.append(target.coefficient(h))
            for h, c in target.terms.items():
                if h not in rows:  # no unit form reaches h: the equation 0 = c
                    equations.append({})
                    rhs.append(c)
        forms = self.forms
        sol = solve_linear(SparseMatrix(len(forms), equations), rhs)
        if sol is None:
            raise DecompositionError(
                "operator does not match ad x + a*D1 + b*D2 + c*D3 on this window"
            )
        coeffs = [sol.get(j, Fraction(0)) for j in range(len(forms))]
        x = Element({g: k for form, k in zip(forms, coeffs) for g in form.inner_part.terms})
        return DerivationDecomposition(x, *coeffs[-len(OUTER_DERIVATIONS):])


def decompose_derivation(op: LinearOperator, w: Window, cfg: AlgebraConfig) -> DerivationDecomposition:
    """Solve op = ad x + a*D1 + b*D2 + c*D3 exactly on interior generators.

    x is window-supported with no M_0 term.  The equations are the
    window's ``UnitFormRows``: column j holds the values of the j-th unit
    form.  From radius 2 the columns are independent, so the result is
    unique.  Raises DecompositionError when the system is inconsistent
    (op is not of the classified shape on this window).
    """
    w.require(2, "derivation decomposition")
    return UnitFormRows(w, cfg).decompose(op)
