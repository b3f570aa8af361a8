"""Finite index windows and structured defect reports.

All solvers and checkers work on the finite slice of the algebra spanned by
generators whose index has absolute value at most a radius N.  The interior
radius floor(N/2) marks the sub-window on which truncation effects cannot
reach; classification claims are always asserted on interior data only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebra import AlgebraConfig, Element, GeneratorId, bracket_basis, gen, jacobi_defect

MAX_RECORDED = 100


@dataclass(frozen=True)
class Window:
    """Symmetric index window of a given integer radius."""

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")

    @property
    def interior_radius(self) -> int:
        return self.radius // 2

    def indices(self, cfg: AlgebraConfig, family: str, radius: int) -> List[Fraction]:
        """Valid indices for one family with |index| <= radius, ascending."""
        out: List[Fraction] = []
        if family in ("L", "M"):
            for i in range(-radius, radius + 1):
                out.append(Fraction(i))
        else:
            # Y indices live on epsilon + ZZ
            j = -Fraction(radius) + ((cfg.epsilon - Fraction(-radius)) % 1)
            while j <= radius:
                out.append(j)
                j += 1
        return out

    def generators(self, cfg: AlgebraConfig) -> List[GeneratorId]:
        """All window generators in canonical order (L block, Y block, M block)."""
        gens: List[GeneratorId] = []
        for fam in ("L", "Y", "M"):
            for i in self.indices(cfg, fam, self.radius):
                gens.append(gen(fam, i))
        return gens

    def interior_generators(self, cfg: AlgebraConfig) -> List[GeneratorId]:
        gens: List[GeneratorId] = []
        r = self.interior_radius
        for fam in ("L", "Y", "M"):
            for i in self.indices(cfg, fam, r):
                gens.append(gen(fam, i))
        return gens

    def contains_index(self, i: Fraction) -> bool:
        return abs(i) <= self.radius

    def contains(self, g: GeneratorId) -> bool:
        return self.contains_index(g.index)

    def contains_element(self, e: Element) -> bool:
        return all(self.contains(g) for g in e.terms)

    def is_interior(self, g: GeneratorId) -> bool:
        return abs(g.index) <= self.interior_radius


OUTSIDE = -1


class BracketTable:
    """The window's structure constants on integer positions.

    Positions index ``Window.generators`` in canonical order.  The bracket
    of two generators is zero or one generator times a coefficient, so
    ``product[a * n + b]`` is None or (target position, coefficient), the
    target being OUTSIDE when the result leaves the window.  The inverse
    lists, keyed by ``partner * n + target`` and in ascending position
    order, hold every in-window (p, c): ``left`` with [partner, p] =
    c*target, ``right`` with [p, partner] = c*target.  Because the algebra
    is graded, these lookups replace all index arithmetic on generators.
    """

    def __init__(self, w: Window, cfg: AlgebraConfig):
        gens = w.generators(cfg)
        pos = {g: i for i, g in enumerate(gens)}
        n = len(gens)
        self.n = n
        self.radius = w.radius
        self.twice_index = [int(2 * g.index) for g in gens]
        self.product: List[Optional[Tuple[int, Fraction]]] = []
        self.left: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n * n)]
        self.right: List[List[Tuple[int, Fraction]]] = [[] for _ in range(n * n)]
        for a, ga in enumerate(gens):
            for b, gb in enumerate(gens):
                entry = None
                for g, c in bracket_basis(ga, gb, cfg).terms.items():
                    t = pos.get(g, OUTSIDE)
                    entry = (t, c)
                    if t != OUTSIDE:
                        self.left[a * n + t].append((b, c))
                        self.right[b * n + t].append((a, c))
                self.product.append(entry)

    def anchored_targets(self, a: int, b: int) -> List[int]:
        """Positions whose index lies within N of the indices at a and b."""
        d = self.twice_index
        lo = max(d[a], d[b]) - 2 * self.radius
        hi = min(d[a], d[b]) + 2 * self.radius
        return [h for h in range(self.n) if lo <= d[h] <= hi]


@dataclass(frozen=True)
class Violation:
    """One failed check instance: the inputs, the nonzero defect, a rule tag."""

    inputs: Tuple[GeneratorId, ...]
    defect: Element
    rule: str

    def describe(self) -> str:
        args = ", ".join(str(g) for g in self.inputs)
        return f"{self.rule} at ({args}): defect {self.defect}"


@dataclass
class DefectReport:
    """Outcome of an exhaustive window check.

    Only the first max_recorded violations are stored; the total count keeps
    counting past the cap.
    """

    checked: int = 0
    total: int = 0
    violations: List[Violation] = field(default_factory=list)
    max_recorded: int = MAX_RECORDED

    @property
    def empty(self) -> bool:
        return self.total == 0

    def record(self, inputs: Sequence[GeneratorId], defect: Element, rule: str) -> None:
        self.total += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(Violation(tuple(inputs), defect, rule))

    def tick(self, n: int = 1) -> None:
        self.checked += n

    def summary(self) -> str:
        if self.empty:
            return f"ok ({self.checked} instances checked)"
        shown = len(self.violations)
        head = f"{self.total} violations in {self.checked} instances"
        if shown < self.total:
            head += f" (first {shown} recorded)"
        return head


def lie_axiom_defects(w: Window, cfg: AlgebraConfig) -> DefectReport:
    """Antisymmetry on all window pairs, Jacobi on all distinct triples.

    Both identities are exact on full elements; no truncation is involved,
    so any violation would point at the structure constants themselves.
    Repeated-argument instances hold by pure bilinearity and are skipped.
    """
    gens = w.generators(cfg)
    rep = DefectReport()
    pairs = 0
    for i, a in enumerate(gens):
        for b in gens[i:]:
            pairs += 1
            d = bracket_basis(a, b, cfg) + bracket_basis(b, a, cfg)
            if d.terms:
                rep.record((a, b), d, "antisymmetry")
    rep.tick(pairs)
    triples = 0
    for i, a in enumerate(gens):
        ea = Element.monomial(a, Fraction(1))
        for j, b in enumerate(gens[i + 1:], i + 1):
            eb = Element.monomial(b, Fraction(1))
            for c in gens[j + 1:]:
                triples += 1
                d = jacobi_defect(ea, eb, Element.monomial(c, Fraction(1)), cfg)
                if d.terms:
                    rep.record((a, b, c), d, "jacobi")
    rep.tick(triples)
    return rep
