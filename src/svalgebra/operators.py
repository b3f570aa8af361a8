"""Linear operators on a window: derivations, their solver and decomposition.

A derivation is a linear map with op([x,y]) = [op(x),y] + [x,op(y)].  On a
finite window four things live here:

  * the three outer derivations (D1, D2, D3) and inner derivations ad x,
  * a defect checker for the Leibniz identity over window pairs,
  * the exact constraint system whose kernel is the space of all window
    operators satisfying every truncation-faithful Leibniz constraint,
    compared (``linalg.KernelComparison``) against the span of the known
    derivations,
  * the decomposition of a derivation as ad x + a.D1 + b.D2 + c.D3.

Truncation discipline: a constraint row is emitted for a pair (g1, g2) and
an output coordinate h only when every generator the identity needs at
that coordinate exists inside the window.  Concretely the inner bracket
[g1,g2] must be window-supported and |h - g1|, |h - g2| <= N, which covers
every re-bracketed image coordinate.  Window restrictions of genuine
derivations then satisfy every emitted row exactly, with no tolerance.
Rows are computed from the window's integer-position bracket table
(``windows.BracketTable``): every term is a table lookup plus integer
column arithmetic, with no generator or index arithmetic per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .algebra import (
    ZERO,
    AlgebraConfig,
    Element,
    GeneratorId,
    Scalar,
    bracket,
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
from .parsing import DomainError
from .windows import OUTSIDE, BracketTable, DefectReport, Window

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


def builtin_derivation(which: str, w: Window, cfg: AlgebraConfig) -> LinearOperator:
    """One of the three outer derivations.

    D1: L_m -> M_m.  D2: L_m -> m*M_m.  D3: Y_m -> Y_m, M_m -> 2*M_m.
    Each kills every other family.
    """
    if which not in ("D1", "D2", "D3"):
        raise ValueError(f"unknown builtin derivation {which!r}")
    action: Dict[GeneratorId, Element] = {}
    for g in w.generators(cfg):
        if which == "D1":
            img = Element.monomial(gen("M", g.index)) if g.family == "L" else ZERO
        elif which == "D2":
            img = Element.monomial(gen("M", g.index), g.index) if g.family == "L" else ZERO
        else:
            if g.family == "Y":
                img = Element.monomial(g)
            elif g.family == "M":
                img = Element.monomial(g, 2)
            else:
                img = ZERO
        action[g] = img
    return LinearOperator(action, which)


def inner_derivation(x: Element, w: Window, cfg: AlgebraConfig) -> LinearOperator:
    return LinearOperator(
        {g: bracket(x, Element.monomial(g), cfg) for g in w.generators(cfg)},
        f"ad({x})",
    )


def _faithful(e: Element, w: Window, *anchors: GeneratorId) -> Element:
    """Drop coordinates the window cannot vouch for.

    Keeps h with |h| <= N and |h - a| <= N for each anchor argument a; at
    such coordinates the identity involves no out-of-window generators.
    """
    n = w.radius
    kept = {
        h: c
        for h, c in e.terms.items()
        if abs(h.index) <= n and all(abs(h.index - a.index) <= n for a in anchors)
    }
    return Element(kept)


def derivation_defect(op: LinearOperator, w: Window, cfg: AlgebraConfig) -> DefectReport:
    """Leibniz identity check over closed window pairs.

    A pair is closed when [g1,g2] is window-supported (so op applies) and
    both re-bracketed images stay window-supported.  Defects are compared
    on faithful coordinates only; mirrored pairs are skipped since the
    identity at (g2,g1) is the negative of the one at (g1,g2).
    """
    rep = DefectReport()
    gens = w.generators(cfg)
    for i, g1 in enumerate(gens):
        e1 = Element.monomial(g1)
        for g2 in gens[i + 1:]:
            br = bracket_basis(g1, g2, cfg)
            if not w.contains_element(br):
                continue
            r1 = bracket(op.apply_basis(g1), Element.monomial(g2), cfg)
            r2 = bracket(e1, op.apply_basis(g2), cfg)
            if not (w.contains_element(r1) and w.contains_element(r2)):
                continue
            rep.tick()
            defect = _faithful(op.apply(br) - r1 - r2, w, g1, g2)
            if not defect.is_zero:
                rep.record((g1, g2), defect, "leibniz")
    return rep


class OperatorCoords:
    """Column enumeration for window operators: (source g, image h) pairs,
    lexicographic in canonical generator order."""

    def __init__(self, w: Window, cfg: AlgebraConfig):
        self.window = w
        self.gens: List[GeneratorId] = w.generators(cfg)
        self.pos: Dict[GeneratorId, int] = {g: i for i, g in enumerate(self.gens)}
        self.n = len(self.gens)
        self.col_count = self.n * self.n

    def col(self, g: GeneratorId, h: GeneratorId) -> int:
        return self.pos[g] * self.n + self.pos[h]

    def at(self, col: int) -> Tuple[GeneratorId, GeneratorId]:
        return self.gens[col // self.n], self.gens[col % self.n]

    def encode(self, op: LinearOperator) -> SparseVec:
        """Window restriction of an operator; out-of-window image terms drop."""
        v: SparseVec = {}
        for g in self.gens:
            for h, c in op.apply_basis(g).terms.items():
                if h in self.pos:
                    v[self.col(g, h)] = c
        return v

    def decode(self, v: SparseVec, label: str = "") -> LinearOperator:
        action: Dict[GeneratorId, Element] = {g: ZERO for g in self.gens}
        buckets: Dict[GeneratorId, Dict[GeneratorId, Fraction]] = {}
        for col, c in v.items():
            g, h = self.at(col)
            buckets.setdefault(g, {})[h] = c
        for g, terms in buckets.items():
            action[g] = Element(terms)
        return LinearOperator(action, label)

    def interior_columns(self) -> Set[int]:
        """Coordinates where window encodings of genuine solutions are exact.

        A window-supported x shifts indices by at most N, so demanding
        |g| <= r and |h - g| <= N - r keeps |h| <= N: no image term of
        ad x (or of the shift-0 outer derivations) gets clipped there.
        """
        r = self.window.interior_radius
        budget = self.window.radius - r
        cols = set()
        for g in self.gens:
            if abs(g.index) > r:
                continue
            for h in self.gens:
                if abs(h.index - g.index) <= budget:
                    cols.add(self.col(g, h))
        return cols


def derivation_constraint_matrix(w: Window, cfg: AlgebraConfig) -> Tuple[SparseMatrix, OperatorCoords]:
    """The exact linear system cutting out all window derivations.

    One row per (unordered pair, faithful output coordinate); see the
    module docstring for the emission rule.
    """
    coords = OperatorCoords(w, cfg)
    table = BracketTable(w, cfg)
    m = SparseMatrix(coords.col_count)
    n = coords.n
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            br = table.product[p1 * n + p2]
            if br is not None and br[0] == OUTSIDE:
                continue
            for h in table.anchored_targets(p1, p2):
                row: SparseVec = {} if br is None else {br[0] * n + h: br[1]}
                # -[op(g1), g2] at h, then -[g1, op(g2)] at h
                for p, c in table.right[p2 * n + h]:
                    vec_bump(row, p1 * n + p, -c)
                for p, c in table.left[p1 * n + h]:
                    vec_bump(row, p2 * n + p, -c)
                m.add_row(row)
    return m, coords


def predicted_derivation_operators(w: Window, cfg: AlgebraConfig) -> List[LinearOperator]:
    """Spanning set of the classified derivation space on the window:
    every ad g with g != M_0 (M_0 is central), plus D1, D2, D3."""
    ops = [
        inner_derivation(Element.monomial(g), w, cfg)
        for g in w.generators(cfg)
        if g != M0
    ]
    ops.extend(builtin_derivation(d, w, cfg) for d in ("D1", "D2", "D3"))
    return ops


def classify_derivations(w: Window, cfg: AlgebraConfig) -> KernelComparison:
    if w.radius < 3:
        raise ValueError("derivation solver needs window radius >= 3")
    m, coords = derivation_constraint_matrix(w, cfg)
    predicted = [coords.encode(op) for op in predicted_derivation_operators(w, cfg)]
    return KernelComparison.of(coords, m, predicted)


@dataclass(frozen=True)
class DerivationDecomposition:
    """The classified shape ad(inner_part) + a*D1 + b*D2 + c*D3.

    inner_part carries no M_0 term: ad M_0 = 0, so the coefficient is
    fixed to zero to make the decomposition unique.
    """

    inner_part: Element
    a: Fraction
    b: Fraction
    c: Fraction

    def realize(self, w: Window, cfg: AlgebraConfig) -> LinearOperator:
        op = inner_derivation(self.inner_part, w, cfg)
        op = op + builtin_derivation("D1", w, cfg).scaled(self.a)
        op = op + builtin_derivation("D2", w, cfg).scaled(self.b)
        op = op + builtin_derivation("D3", w, cfg).scaled(self.c)
        op.label = "decomposition"
        return op


def decompose_derivation(op: LinearOperator, w: Window, cfg: AlgebraConfig) -> DerivationDecomposition:
    """Solve op = ad x + a*D1 + b*D2 + c*D3 exactly on interior generators.

    x is window-supported with no M_0 term.  Interior generators carry the
    equations because boundary images of a window-supported ad x reach
    outside the window.  Raises DecompositionError when the system is
    inconsistent (op is not of the classified shape on this window).
    """
    xs = [g for g in w.generators(cfg) if g != M0]
    na, nb, nc = len(xs), len(xs) + 1, len(xs) + 2
    m = SparseMatrix(len(xs) + 3)
    rhs: List[Fraction] = []
    for g in w.interior_generators(cfg):
        target = op.apply_basis(g)
        rows: Dict[GeneratorId, SparseVec] = {}
        for j, gj in enumerate(xs):
            for h, c in bracket_basis(gj, g, cfg).terms.items():
                vec_bump(rows.setdefault(h, {}), j, c)
        if g.family == "L":
            mg = gen("M", g.index)
            vec_bump(rows.setdefault(mg, {}), na, Fraction(1))
            if g.index:
                vec_bump(rows.setdefault(mg, {}), nb, g.index)
        elif g.family == "Y":
            vec_bump(rows.setdefault(g, {}), nc, Fraction(1))
        else:
            vec_bump(rows.setdefault(g, {}), nc, Fraction(2))
        for h in target.terms:
            rows.setdefault(h, {})
        for h in sorted(rows, key=GeneratorId.sort_key):
            m.add_row(rows[h])
            rhs.append(target.coefficient(h))
    sol = solve_linear(m, rhs)
    if sol is None:
        raise DecompositionError(
            "operator does not match ad x + a*D1 + b*D2 + c*D3 on this window"
        )
    x = Element({gj: sol[j] for j, gj in enumerate(xs) if j in sol})
    zero = Fraction(0)
    return DerivationDecomposition(
        inner_part=x, a=sol.get(na, zero), b=sol.get(nb, zero), c=sol.get(nc, zero)
    )
