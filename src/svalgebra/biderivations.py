"""Bilinear maps on a window: the central-shift family, biderivation
checking and classification, and the slice decomposition.

A biderivation satisfies two identities on all inputs:

    (1)  f([x,y], z) = [x, f(y,z)] + [f(x,z), y]
    (2)  f(x, [y,z]) = [f(x,y), z] + [y, f(x,z)]

The classified shape is f = lam*[.,.] + central shift part, where the
shift part sends (L_m, L_n) to sum_k mu_k M_{m+n+k} and kills any argument
from the Y or M families.  The same truncation discipline as the operator
module applies: identity (1) re-brackets values against the first two
arguments, identity (2) against the last two, so those are the coordinate
anchors for row emission and defect projection.  As for derivations, the
constraint rows are computed from the window's integer-position bracket
table (``windows.BracketTable``), one lookup and integer column per term.
The defect checker runs on integer positions as well: the window first,
then every generator a tensor value reaches outside it, each with its
doubled index.  Tensor coefficients are scaled by D, the lcm of their
denominators, and bracket coefficients (half-integers) are doubled, so
each defect is computed in integers as exactly 2D times the rational one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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
    kernel_basis,
    vec_add_scaled,
    vec_bump,
)
from .operators import (
    DecompositionError,
    LinearOperator,
    builtin_derivation,
    decompose_derivation,
)
from .parsing import DomainError
from .windows import OUTSIDE, BracketTable, DefectReport, Window

Pair = Tuple[GeneratorId, GeneratorId]


@dataclass(frozen=True)
class OmegaSet:
    """Finite set of central shifts: shift k -> nonzero coefficient mu_k."""

    mu: Tuple[Tuple[int, Fraction], ...]

    def __init__(self, mu: Mapping[int, Scalar] = ()):  # type: ignore[assignment]
        entries = []
        for k, v in dict(mu).items():
            if not isinstance(k, int):
                raise ValueError(f"shift {k!r} is not an integer")
            v = Fraction(v)
            if v:
                entries.append((k, v))
        entries.sort()
        object.__setattr__(self, "mu", tuple(entries))

    @property
    def is_empty(self) -> bool:
        return not self.mu

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self.mu

    def get(self, k: int) -> Fraction:
        for kk, v in self.mu:
            if kk == k:
                return v
        return Fraction(0)

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.mu)

    def __str__(self) -> str:
        if not self.mu:
            return "{}"
        return "{" + ", ".join(f"mu[{k}]={v}" for k, v in self.mu) + "}"


EMPTY_OMEGA = OmegaSet({})


@dataclass(frozen=True)
class BiderivationForm:
    """The classified pair (lam, omega): f = lam*[.,.] + shift part."""

    lam: Fraction
    omega: OmegaSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not isinstance(self.omega, OmegaSet):
            object.__setattr__(self, "omega", OmegaSet(self.omega))

    @property
    def is_trivial(self) -> bool:
        return not self.lam and self.omega.is_empty

    def __str__(self) -> str:
        return f"(lam={self.lam}, omega={self.omega})"


@dataclass
class BilinearMap:
    """Bilinear map given by its values on every ordered window pair.

    Values are full elements and may reach outside the window.
    """

    tensor: Dict[Pair, Element]
    label: str = ""

    def value(self, g1: GeneratorId, g2: GeneratorId) -> Element:
        v = self.tensor.get((g1, g2))
        if v is None:
            raise KeyError(f"bilinear map {self.label or '?'} undefined on ({g1}, {g2})")
        return v

    def apply(self, x: Element, y: Element) -> Element:
        out = ZERO
        for g1, c1 in x.terms.items():
            for g2, c2 in y.terms.items():
                out = out + self.value(g1, g2).scaled(c1 * c2)
        return out

    def is_symmetric(self) -> bool:
        return all(v == self.tensor[(b, a)] for (a, b), v in self.tensor.items())

    def is_skewsymmetric(self) -> bool:
        return all(v == -self.tensor[(b, a)] for (a, b), v in self.tensor.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BilinearMap) and self.tensor == other.tensor


def bilinear_map_on_window(
    mapping: Mapping[Pair, Element], w: Window, cfg: AlgebraConfig, label: str = ""
) -> BilinearMap:
    """Total window tensor from a partial one; omitted pairs are zero."""
    tensor: Dict[Pair, Element] = {}
    gens = w.generators(cfg)
    for g1 in gens:
        for g2 in gens:
            tensor[(g1, g2)] = ZERO
    for pair, v in mapping.items():
        if pair not in tensor:
            raise DomainError(f"pair ({pair[0]}, {pair[1]}) outside the window")
        tensor[pair] = v
    return BilinearMap(tensor, label)


def chi_omega(omega: OmegaSet, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """The symmetric central-shift map: (L_m, L_n) -> sum_k mu_k M_{m+n+k},
    zero whenever either argument is from the Y or M families."""
    tensor: Dict[Pair, Element] = {}
    gens = w.generators(cfg)
    for g1 in gens:
        for g2 in gens:
            if g1.family == "L" and g2.family == "L":
                s = g1.index + g2.index
                tensor[(g1, g2)] = Element(
                    {gen("M", s + k): v for k, v in omega.items()}
                )
            else:
                tensor[(g1, g2)] = ZERO
    return BilinearMap(tensor, f"chi({omega})")


def realize(form: BiderivationForm, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """Materialize lam*[.,.] + shift part on the window."""
    chi = chi_omega(form.omega, w, cfg)
    tensor: Dict[Pair, Element] = {}
    for (g1, g2), tail in chi.tensor.items():
        tensor[(g1, g2)] = bracket_basis(g1, g2, cfg).scaled(form.lam) + tail
    return BilinearMap(tensor, f"realize{form}")


def _twice(x: Fraction) -> Optional[int]:
    """2*x as an int, or None when x is not a half-integer."""
    q, r = divmod(2 * x.numerator, x.denominator)
    return None if r else q


def biderivation_defects(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> DefectReport:
    """Both identities over closed window triples.

    Identity (1) is checked for unordered first pairs (swapping x and y
    negates it) and identity (2) for unordered last pairs; diagonal pairs
    make each identity trivially zero and are skipped.  A triple is closed
    when the bracketed argument pair is window-supported and both
    re-bracketed values stay window-supported; the defect is compared on
    the coordinates anchored to the re-bracketed arguments.

    The loops run on integer positions: the window generators first, then
    every other generator met in a value or as an in-window bracket, each
    with its doubled index, so the window and anchor tests compare ints.
    The tensor is a flat list of (position, D * coefficient) terms, D the
    lcm of its coefficient denominators, and the brackets of each window
    generator with every position are looked up once per call with doubled
    coefficients.  Each term of either identity is linear in f and in the
    bracket, so the integer defect is exactly 2D times the rational one; it
    is divided back by 2D only for a recorded violation.  Raises ValueError
    naming a value generator whose index is not a half-integer, or a
    bracket whose coefficient is not; generators of SV(eps) never are.
    """
    rep = DefectReport()
    gens = w.generators(cfg)
    ten = f.tensor
    for a in gens:
        for b in gens:
            if (a, b) not in ten:
                raise KeyError(f"bilinear map {f.label or '?'} undefined on ({a}, {b})")
    n = len(gens)
    reach = 2 * w.radius
    order: List[GeneratorId] = []
    pos: Dict[GeneratorId, int] = {}
    twice: List[int] = []

    def position(g: GeneratorId) -> int:
        p = pos.get(g)
        if p is None:
            d = _twice(g.index)
            if d is None:
                raise ValueError(f"generator {g}: index {g.index} is not a half-integer")
            twice.append(d)
            p = pos[g] = len(order)
            order.append(g)
        return p

    for g in gens:
        position(g)
    values = [ten[(a, b)].terms for a in gens for b in gens]
    scale = lcm(*{c.denominator for terms in values for c in terms.values()})
    # flat[a * n + b]: the terms of f(a, b) as (position, D * coefficient)
    flat = [
        [(position(h), c.numerator * (scale // c.denominator)) for h, c in terms.items()]
        for terms in values
    ]

    def doubled_bracket(x: int, y: int) -> Optional[Tuple[int, int]]:
        terms = bracket_basis(order[x], order[y], cfg).terms
        if not terms:
            return None
        ((t, c),) = terms.items()
        dc = _twice(c)
        if dc is None:
            raise ValueError(f"bracket [{order[x]}, {order[y]}]: coefficient {c} is not a half-integer")
        return (OUTSIDE if abs(twice[x] + twice[y]) > reach else position(t)), dc

    # left[g * m + h] = [g, h] and right[g * m + h] = [h, g] = -[g, h] for
    # window g and every position h met so far: None when zero, else (target
    # position, or OUTSIDE when it leaves the window, doubled coefficient)
    m = len(order)
    left = [doubled_bracket(g, h) for g in range(n) for h in range(m)]
    right = [None if e is None else (e[0], -e[1]) for e in left]

    # For a monomial partner the products below never collide on an output
    # position (the output family is injective in the other family), so a
    # plain assignment per term is exact and the first out-of-window term
    # already decides non-closedness.
    def image(table: List[Optional[Tuple[int, int]]], base: int,
              terms: List[Tuple[int, int]]) -> Optional[Dict[int, int]]:
        out: Dict[int, int] = {}
        for h, c in terms:
            e = table[base + h]
            if e is not None:
                t, gamma = e
                if t == OUTSIDE:
                    return None
                out[t] = c * gamma
        return out

    def settle(
        inputs: Tuple[int, int, int],
        acc: Dict[int, int],
        r1: Dict[int, int],
        r2: Dict[int, int],
        a1: int,
        a2: int,
        rule: str,
    ) -> None:
        for part in (r1, r2):
            for h, c in part.items():
                nv = acc.get(h, 0) - c
                if nv:
                    acc[h] = nv
                else:
                    del acc[h]
        if acc:
            lo = max(twice[a1], twice[a2]) - reach
            hi = min(twice[a1], twice[a2]) + reach
            kept = {
                h: c
                for h, c in acc.items()
                if -reach <= twice[h] <= reach and lo <= twice[h] <= hi
            }
            if kept:
                defect = Element({order[h]: Fraction(c, 2 * scale) for h, c in kept.items()})
                rep.record(tuple(gens[p] for p in inputs), defect, rule)

    closed = 0
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            br = left[p1 * m + p2]
            if br is not None and br[0] == OUTSIDE:
                continue
            for p3 in range(n):
                # (1): f([g1,g2], g3) - [g1, f(g2,g3)] - [f(g1,g3), g2]
                r1 = image(left, p1 * m, flat[p2 * n + p3])
                if r1 is None:
                    continue
                r2 = image(right, p2 * m, flat[p1 * n + p3])
                if r2 is None:
                    continue
                closed += 1
                acc: Dict[int, int] = {}
                if br is not None:
                    b, cb = br
                    for h, c in flat[b * n + p3]:
                        acc[h] = cb * c
                settle((p1, p2, p3), acc, r1, r2, p1, p2, "identity-1")
    rep.tick(closed)
    closed = 0
    for p1 in range(n):
        for p2 in range(n):
            for p3 in range(p2 + 1, n):
                br = left[p2 * m + p3]
                if br is not None and br[0] == OUTSIDE:
                    continue
                # (2): f(g1, [g2,g3]) - [f(g1,g2), g3] - [g2, f(g1,g3)]
                r1 = image(right, p3 * m, flat[p1 * n + p2])
                if r1 is None:
                    continue
                r2 = image(left, p2 * m, flat[p1 * n + p3])
                if r2 is None:
                    continue
                closed += 1
                acc = {}
                if br is not None:
                    b, cb = br
                    for h, c in flat[p1 * n + b]:
                        acc[h] = cb * c
                settle((p1, p2, p3), acc, r1, r2, p2, p3, "identity-2")
    rep.tick(closed)
    return rep


class PairCoords:
    """Column enumeration for window tensors: ((g1, g2), h), lexicographic."""

    def __init__(self, w: Window, cfg: AlgebraConfig):
        self.window = w
        self.gens: List[GeneratorId] = w.generators(cfg)
        self.pos: Dict[GeneratorId, int] = {g: i for i, g in enumerate(self.gens)}
        self.n = len(self.gens)
        self.col_count = self.n ** 3

    def col(self, g1: GeneratorId, g2: GeneratorId, h: GeneratorId) -> int:
        n = self.n
        return (self.pos[g1] * n + self.pos[g2]) * n + self.pos[h]

    def at(self, col: int) -> Tuple[GeneratorId, GeneratorId, GeneratorId]:
        n = self.n
        col, k = divmod(col, n)
        i, j = divmod(col, n)
        return self.gens[i], self.gens[j], self.gens[k]

    def encode(self, f: BilinearMap) -> SparseVec:
        v: SparseVec = {}
        for g1 in self.gens:
            for g2 in self.gens:
                for h, c in f.value(g1, g2).terms.items():
                    if h in self.pos:
                        v[self.col(g1, g2, h)] = c
        return v

    def decode(self, v: SparseVec, label: str = "") -> BilinearMap:
        tensor: Dict[Pair, Element] = {
            (g1, g2): ZERO for g1 in self.gens for g2 in self.gens
        }
        buckets: Dict[Pair, Dict[GeneratorId, Fraction]] = {}
        for col, c in v.items():
            g1, g2, h = self.at(col)
            buckets.setdefault((g1, g2), {})[h] = c
        for pair, terms in buckets.items():
            tensor[pair] = Element(terms)
        return BilinearMap(tensor, label)

    def interior_columns(self) -> Set[int]:
        """Coordinates where window encodings of genuine solutions are
        exact: both arguments in the interior and the value shift small
        enough that |h| <= N is automatic."""
        r = self.window.interior_radius
        budget = self.window.radius - 2 * r
        cols = set()
        inner = [g for g in self.gens if abs(g.index) <= r]
        for g1 in inner:
            for g2 in inner:
                s = g1.index + g2.index
                for h in self.gens:
                    if abs(h.index - s) <= budget:
                        cols.add(self.col(g1, g2, h))
        return cols


def representable_shifts(w: Window) -> List[int]:
    """Shifts k whose central-shift map is fully visible on the interior:
    |m + n + k| <= N for all interior m, n."""
    cap = w.radius - 2 * w.interior_radius
    return list(range(-cap, cap + 1))


def identity1_rows(coords: PairCoords, cfg: AlgebraConfig):
    """Faithful rows of identity (1), anchored at the bracketed pair."""
    table = BracketTable(coords.window, cfg)
    n = coords.n
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            br = table.product[p1 * n + p2]
            if br is not None and br[0] == OUTSIDE:
                continue
            targets = table.anchored_targets(p1, p2)
            for p3 in range(n):
                # f([g1,g2], g3) - [g1, f(g2,g3)] - [f(g1,g3), g2] at h
                base23, base13 = (p2 * n + p3) * n, (p1 * n + p3) * n
                for h in targets:
                    row: SparseVec = {} if br is None else {(br[0] * n + p3) * n + h: br[1]}
                    for p, c in table.left[p1 * n + h]:
                        vec_bump(row, base23 + p, -c)
                    for p, c in table.right[p2 * n + h]:
                        vec_bump(row, base13 + p, -c)
                    yield row


def identity2_rows(coords: PairCoords, cfg: AlgebraConfig):
    """Faithful rows of identity (2), anchored at the bracketed pair."""
    table = BracketTable(coords.window, cfg)
    n = coords.n
    anchors = []
    for p2 in range(n):
        for p3 in range(p2 + 1, n):
            br = table.product[p2 * n + p3]
            if br is None or br[0] != OUTSIDE:
                anchors.append((p2, p3, br, table.anchored_targets(p2, p3)))
    for p1 in range(n):
        for p2, p3, br, targets in anchors:
            # f(g1, [g2,g3]) - [f(g1,g2), g3] - [g2, f(g1,g3)] at h
            base12, base13 = (p1 * n + p2) * n, (p1 * n + p3) * n
            for h in targets:
                row: SparseVec = {} if br is None else {(p1 * n + br[0]) * n + h: br[1]}
                for p, c in table.right[p3 * n + h]:
                    vec_bump(row, base12 + p, -c)
                for p, c in table.left[p2 * n + h]:
                    vec_bump(row, base13 + p, -c)
                yield row


def biderivation_constraint_matrix(w: Window, cfg: AlgebraConfig) -> Tuple[SparseMatrix, PairCoords]:
    """The exact linear system cutting out all window biderivations.

    One row per identity, closed triple and faithful output coordinate;
    anchors are (g1, g2) for identity (1) and (g2, g3) for identity (2).
    """
    coords = PairCoords(w, cfg)
    m = SparseMatrix(coords.col_count)
    for row in identity1_rows(coords, cfg):
        m.add_row(row)
    for row in identity2_rows(coords, cfg):
        m.add_row(row)
    return m, coords


def predicted_biderivation_maps(w: Window, cfg: AlgebraConfig) -> List[BilinearMap]:
    """Spanning set of the classified family on the window: the bracket
    itself plus one single-shift central map per representable shift."""
    maps = [realize(BiderivationForm(Fraction(1), EMPTY_OMEGA), w, cfg)]
    for k in representable_shifts(w):
        maps.append(chi_omega(OmegaSet({k: 1}), w, cfg))
    return maps


@dataclass(frozen=True)
class BiderivationClassification(KernelComparison):
    """The kernel comparison, with the shifts of the classified span."""

    shifts: List[int]


def classify_biderivations(w: Window, cfg: AlgebraConfig) -> BiderivationClassification:
    if w.radius < 3:
        raise ValueError("biderivation solver needs window radius >= 3")
    m, coords = biderivation_constraint_matrix(w, cfg)
    predicted = [coords.encode(f) for f in predicted_biderivation_maps(w, cfg)]
    return BiderivationClassification.of(coords, m, predicted, shifts=representable_shifts(w))


def skew_kernel_members(bc: BiderivationClassification) -> List[SparseVec]:
    """Basis of the skewsymmetric subspace of the solver kernel.

    Solves for kernel combinations whose symmetrization vanishes; the
    returned vectors decode to skewsymmetric window maps.
    """
    basis = bc.kernel.vectors
    coords = bc.coords
    rows: Dict[Tuple[GeneratorId, GeneratorId, GeneratorId], SparseVec] = {}
    for i, v in enumerate(basis):
        for col, c in v.items():
            g1, g2, h = coords.at(col)
            a, b = (g1, g2) if g1.sort_key() <= g2.sort_key() else (g2, g1)
            row = rows.setdefault((a, b, h), {})
            nv = row.get(i, Fraction(0)) + c
            if nv:
                row[i] = nv
            else:
                del row[i]
    m = SparseMatrix(len(basis))
    for key in sorted(
        rows, key=lambda k: (k[0].sort_key(), k[1].sort_key(), k[2].sort_key())
    ):
        m.add_row(rows[key])
    out: List[SparseVec] = []
    for u in kernel_basis(m).vectors:
        v: SparseVec = {}
        for i, c in u.items():
            vec_add_scaled(v, basis[i], c)
        out.append(v)
    return out


def match_form(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> Optional[BiderivationForm]:
    """Fit f = lam*[.,.] + shift part on the interior, or report no match.

    lam comes from the first interior (L_m, L_n) pair with m != n; the
    mu_k come from the M coefficients of the residual on interior L pairs,
    cross-checked for consistency; finally f must equal the realized form
    on every ordered interior pair.  Returns None on any mismatch.
    """
    interior = w.interior_generators(cfg)
    l_gens = [g for g in interior if g.family == "L"]
    first = None
    for g1 in l_gens:
        for g2 in l_gens:
            if g1.index != g2.index:
                first = (g1, g2)
                break
        if first:
            break
    if first is None:
        return None
    g1, g2 = first
    lam = f.value(g1, g2).coefficient(gen("L", g1.index + g2.index)) / (
        g1.index - g2.index
    )
    mu: Dict[int, Fraction] = {}
    for a in l_gens:
        for b in l_gens:
            residual = f.value(a, b) - bracket_basis(a, b, cfg).scaled(lam)
            for h, c in residual.terms.items():
                if h.family != "M":
                    return None
                k_frac = h.index - a.index - b.index
                if k_frac.denominator != 1:
                    return None
                k = int(k_frac)
                if k in mu and mu[k] != c:
                    return None
                mu[k] = c
    form = BiderivationForm(lam, OmegaSet(mu))
    model = realize(form, w, cfg)
    for a in interior:
        for b in interior:
            if f.value(a, b) != model.value(a, b):
                return None
    return form


@dataclass
class BiderivationDecomposition:
    """Slice decomposition over interior generators.

    For interior x the slice y -> f(x,y) is a derivation; its inner part
    is phi(x) and its outer coefficients are (rho1, rho2, rho3)(x).  For
    interior y the slice x -> f(x,y) decomposes with inner part -psi(y)
    (sign fixed so the reassembled form uses [x, psi(y)]) and outer
    coefficients (theta1, theta2, theta3)(y).
    """

    phi: LinearOperator
    psi: LinearOperator
    rho: Tuple[Dict[GeneratorId, Fraction], ...]
    theta: Tuple[Dict[GeneratorId, Fraction], ...]

    def reassemble(self, x: GeneratorId, y: GeneratorId, w: Window, cfg: AlgebraConfig) -> Element:
        """rho1(x)D1(y) + rho2(x)D2(y) + rho3(x)D3(y) + [phi(x), y]."""
        out = bracket(self.phi.apply_basis(x), Element.monomial(y), cfg)
        for i, d in enumerate(("D1", "D2", "D3")):
            c = self.rho[i].get(x, Fraction(0))
            if c:
                out = out + builtin_derivation(d, w, cfg).apply_basis(y).scaled(c)
        return out


def decompose_biderivation(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> BiderivationDecomposition:
    """Decompose every interior slice of a window biderivation.

    Boundary slices are excluded: their inner parts can need generators
    outside the window, so only interior slices decompose faithfully.
    Raises DecompositionError when some slice is not of the derivation
    shape (f was not a biderivation on this window).
    """
    gens = w.generators(cfg)
    interior = w.interior_generators(cfg)
    phi_action: Dict[GeneratorId, Element] = {}
    psi_action: Dict[GeneratorId, Element] = {}
    rho: Tuple[Dict[GeneratorId, Fraction], ...] = ({}, {}, {})
    theta: Tuple[Dict[GeneratorId, Fraction], ...] = ({}, {}, {})
    for x in interior:
        slice_op = LinearOperator({g: f.value(x, g) for g in gens}, f"f({x}, .)")
        dec = decompose_derivation(slice_op, w, cfg)
        phi_action[x] = dec.inner_part
        rho[0][x], rho[1][x], rho[2][x] = dec.a, dec.b, dec.c
    for y in interior:
        slice_op = LinearOperator({g: f.value(g, y) for g in gens}, f"f(., {y})")
        dec = decompose_derivation(slice_op, w, cfg)
        psi_action[y] = -dec.inner_part
        theta[0][y], theta[1][y], theta[2][y] = dec.a, dec.b, dec.c
    return BiderivationDecomposition(
        phi=LinearOperator(phi_action, "phi"),
        psi=LinearOperator(psi_action, "psi"),
        rho=rho,
        theta=theta,
    )
