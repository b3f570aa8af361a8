"""Finite index windows, the column layout of window maps, the one bracket
table on integer positions read from ``algebra.structure``, the Leibniz
rule the derivation and biderivation checkers share as that table extended
by their values, and defect reports.

All solvers and checkers work on the finite slice of the algebra spanned by
generators whose index has absolute value at most a radius N.  The interior
radius floor(N/2) marks the sub-window on which truncation effects cannot
reach; classification claims are always asserted on interior data only.
A map with k arguments is encoded on ``WindowCoords`` columns (arguments,
value generator); its interior keeps every argument within floor(N/2) and
the value shift within ``Window.shift_budget(k)`` = N - k*floor(N/2).
Every solver states the smallest radius it can use through
``Window.require``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import lcm
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .algebra import (
    AlgebraConfig, Element, GeneratorId, bracket_basis, format_rational, gen, jacobi_defect, structure,
)
from .linalg import SparseVec

MAX_RECORDED = 100


@dataclass(frozen=True)
class Window:
    """Symmetric index window of a given integer radius."""

    radius: int

    def __post_init__(self) -> None:
        if not isinstance(self.radius, int) or isinstance(self.radius, bool):
            raise ValueError(f"window radius {self.radius!r} is not an integer")
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")

    def require(self, minimum: int, what: str) -> None:
        """Raise ValueError unless the radius is at least ``minimum``."""
        if self.radius < minimum:
            raise ValueError(f"{what} needs window radius >= {minimum}")

    @property
    def interior_radius(self) -> int:
        return self.radius // 2

    def shift_budget(self, arity: int) -> int:
        """Largest value shift |h - (g_1 + ... + g_k)| of a k-argument map
        that keeps |h| <= N whenever every argument is interior."""
        return self.radius - arity * self.interior_radius

    def indices(self, cfg: AlgebraConfig, family: str) -> List[Fraction]:
        """Valid indices for one family inside the window, ascending: Y
        indices live on epsilon + ZZ (epsilon is 0 or 1/2), the others on ZZ."""
        n = self.radius
        if family == "Y" and cfg.epsilon:
            return [i + cfg.epsilon for i in range(-n, n)]
        return [Fraction(i) for i in range(-n, n + 1)]

    def generators(self, cfg: AlgebraConfig) -> List[GeneratorId]:
        """All window generators in canonical order (L block, Y block, M block)."""
        gens: List[GeneratorId] = []
        for fam in ("L", "Y", "M"):
            for i in self.indices(cfg, fam):
                gens.append(gen(fam, i))
        return gens

    def interior_generators(self, cfg: AlgebraConfig) -> List[GeneratorId]:
        return [g for g in self.generators(cfg) if self.is_interior(g)]

    def contains(self, g: GeneratorId) -> bool:
        return abs(g.twice) <= 2 * self.radius

    def contains_element(self, e: Element) -> bool:
        return all(self.contains(g) for g in e.terms)

    def is_interior(self, g: GeneratorId) -> bool:
        return abs(g.twice) <= 2 * self.interior_radius


class WindowCoords:
    """Column layout of window maps with ``arity`` arguments.

    Column (g_1, ..., g_k, h) holds the h coefficient of the value at
    (g_1, ..., g_k), lexicographic in canonical generator order.  A
    subclass says how to read a map's value at one argument tuple.
    """

    arity = 1

    def __init__(self, w: Window, cfg: AlgebraConfig):
        self.window = w
        self.gens: List[GeneratorId] = w.generators(cfg)
        self.pos: Dict[GeneratorId, int] = {g: i for i, g in enumerate(self.gens)}
        self.n = len(self.gens)
        self.col_count = self.n ** (self.arity + 1)

    def value(self, f: Any, args: Tuple[GeneratorId, ...]) -> Element:
        raise NotImplementedError

    def col(self, *gens: GeneratorId) -> int:
        c = 0
        for g in gens:
            c = c * self.n + self.pos[g]
        return c

    def at(self, col: int) -> Tuple[GeneratorId, ...]:
        out = []
        for _ in range(self.arity + 1):
            col, k = divmod(col, self.n)
            out.append(self.gens[k])
        return tuple(reversed(out))

    def encode(self, f: Any) -> SparseVec:
        """Window restriction of a map; out-of-window value terms drop."""
        v: SparseVec = {}
        for args in product(self.gens, repeat=self.arity):
            base = self.col(*args) * self.n
            for h, c in self.value(f, args).terms.items():
                if h in self.pos:
                    v[base + self.pos[h]] = c
        return v

    def interior_columns(self) -> Set[int]:
        """Coordinates where window encodings of genuine solutions are
        exact: every argument interior and the value shift within
        ``shift_budget``, so |h| <= N is automatic and no value term of a
        window-supported solution is clipped there.  Read on the doubled
        indices ``twice``, which are integers, with integer column arithmetic."""
        n, twice = self.n, [g.twice for g in self.gens]
        reach = 2 * self.window.shift_budget(self.arity)
        inner = [i for i, d in enumerate(twice) if abs(d) <= 2 * self.window.interior_radius]
        cols: Set[int] = set()
        for args in product(inner, repeat=self.arity):
            s, base = 0, 0
            for i in args:
                s, base = s + twice[i], base * n + i
            base *= n
            cols.update(base + h for h, d in enumerate(twice) if abs(d - s) <= reach)
        return cols


OUTSIDE = -1


class BracketTable:
    """The window's structure constants on integer positions.

    Positions are the window generators in canonical order, then each new
    ``extra`` generator, then any generator met as an in-window bracket;
    ``twice`` holds their doubled indices, read from the generators
    (``GeneratorId.twice``), and ``at`` maps (family, doubled index) to a
    position.  ``table[g * m + h]``, for window g and each of the first m
    positions h (the window and the extras), is [g, h] read once from
    ``structure``: None when it vanishes, else (target position, or
    OUTSIDE past the window, doubled coefficient).  Because the algebra
    is graded, these lookups replace all index arithmetic on generators.
    ``pairs`` lists the closed window pairs a < b, whose bracket vanishes
    or stays in the window, ascending, as (a, b, target, doubled
    coefficient), with (0, 0) when it vanishes; the rule at (b, a) is the
    negative of the one at (a, b), and zero at (a, a).  Raises ValueError
    naming an extra generator whose index is not a half-integer, or a
    bracket whose coefficient is not; generators of SV(eps) never are.
    """

    def __init__(self, w: Window, cfg: AlgebraConfig, extra: Iterable[GeneratorId] = ()):
        gens = w.generators(cfg)
        n = self.n = len(gens)
        self.reach = 2 * w.radius
        self.order: List[GeneratorId] = []
        self.twice: List[int] = []
        self.at: Dict[Tuple[str, int], int] = {}
        self._pos: Dict[GeneratorId, int] = {}
        for g in chain(gens, extra):
            self.position(g)
        m = self.m = len(self.order)
        table = self.table = [self._bracket(g, h) for g in range(n) for h in range(m)]
        self.pairs: List[Tuple[int, int, int, int]] = [
            (a, b) + (e or (0, 0))
            for a in range(n) for b in range(a + 1, n)
            if (e := table[a * m + b]) is None or e[0] != OUTSIDE
        ]

    def position(self, g: GeneratorId) -> int:
        """The position of g, numbering it next if it has none."""
        p = self._pos.get(g)
        if p is None:
            d = g.twice
            if d.__class__ is not int:
                raise ValueError(f"generator {g}: index {format_rational(g.index)} is not a half-integer")
            self.twice.append(d)
            p = self._pos[g] = self.at[g.family, d] = len(self.order)
            self.order.append(g)
        return p

    def _bracket(self, x: int, y: int) -> Optional[Tuple[int, int]]:
        order, twice = self.order, self.twice
        value = structure(order[x].family, twice[x], order[y].family, twice[y])
        if value is None:
            return None
        dc, odd = divmod(value[1], 2)
        if odd:
            q = format_rational(Fraction(value[1], 4))
            raise ValueError(f"bracket [{order[x]}, {order[y]}]: coefficient {q} is not a half-integer")
        d = twice[x] + twice[y]
        t = OUTSIDE if abs(d) > self.reach else self.at.get((value[0], d))
        return (self.position(gen(value[0], Fraction(d, 2))) if t is None else t), dc

    def faithful(self, a: int, b: int, positions: Iterable[int]) -> List[int]:
        """The positions h where the rule at the pair (a, b) is faithful:
        |h| <= N and |h - a|, |h - b| <= N."""
        twice = self.twice
        lo = max(twice[a], twice[b], 0) - self.reach
        hi = min(twice[a], twice[b], 0) + self.reach
        return [h for h in positions if lo <= twice[h] <= hi]


class LeibnizCheck(BracketTable):
    """The Leibniz rule D([a,b]) - [D(a), b] - [a, D(b)] on integer positions.

    ``values`` lists every image the checked map D can take, as term dicts;
    an instance names the values that are D(a), D(b) and D([a,b]).  A
    derivation has one value per window generator.  A bilinear map is a
    biderivation exactly when every slice f(., z) and f(x, .) is a
    derivation (M. Bresar and K. Zhao, J. Lie Theory 28, 2018), so both of
    its identities are instances over its n*n values.

    The check is the window's ``BracketTable`` extended by the values'
    generators.  Values are (position, s * coefficient) terms, s the lcm of
    all their denominators, and brackets carry doubled coefficients, so a
    defect is computed in integers as exactly 2s times the rational one.
    """

    def __init__(self, w: Window, cfg: AlgebraConfig, values: Sequence[Mapping[GeneratorId, Fraction]]):
        super().__init__(w, cfg, (h for terms in values for h in terms))
        pos = self._pos
        scale = self.scale = lcm(*{c.denominator for terms in values for c in terms.values()})
        self.flat = [
            [(pos[h], c.numerator * (scale // c.denominator)) for h, c in terms.items()]
            for terms in values
        ]

    def instance(self, a: int, b: int, cb: int, da: int, db: int, dt: int) -> Optional[Dict[int, int]]:
        """2s * (D([a,b]) - [D(a), b] - [a, D(b)]) for the entry (a, b, _, cb)
        of ``pairs``, D(a), D(b) and D([a,b]) being the values da, db, dt.

        None when a re-bracketed value leaves the window (the instance is
        not closed); else the defect as {position: int} on the coordinates
        ``faithful`` at (a, b), empty when the rule holds.
        """
        flat, table, m = self.flat, self.table, self.m
        # Against a monomial the products of distinct terms never collide
        # (the output family is injective in the other family), so the
        # first out-of-window term decides non-closedness.
        acc: Dict[int, int] = {}
        base = b * m
        for h, c in flat[da]:  # -[D(a), b] = [b, D(a)]
            e = table[base + h]
            if e is not None:
                if e[0] == OUTSIDE:
                    return None
                acc[e[0]] = c * e[1]
        base = a * m
        for h, c in flat[db]:  # -[a, D(b)]
            e = table[base + h]
            if e is not None:
                t = e[0]
                if t == OUTSIDE:
                    return None
                nv = acc.get(t, 0) - c * e[1]
                if nv:
                    acc[t] = nv
                else:
                    del acc[t]
        if cb:
            for h, c in flat[dt]:
                nv = acc.get(h, 0) + cb * c
                if nv:
                    acc[h] = nv
                else:
                    del acc[h]
        return {h: acc[h] for h in self.faithful(a, b, acc)} if acc else acc

    def element(self, defect: Dict[int, int]) -> Element:
        """The rational element of an integer defect from ``instance``."""
        den = 2 * self.scale
        return Element({self.order[h]: Fraction(c, den) for h, c in defect.items()})


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
