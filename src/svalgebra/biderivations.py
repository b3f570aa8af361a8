"""Bilinear maps on a window: the central-shift family, biderivation
checking and classification, and the slice decomposition.

A biderivation satisfies two identities on all inputs:

    (1)  f([x,y], z) = [x, f(y,z)] + [f(x,z), y]
    (2)  f(x, [y,z]) = [f(x,y), z] + [y, f(x,z)]

The classified shape is f = lam*[.,.] + central shift part, where the
shift part sends (L_m, L_n) to sum_k mu_k M_{m+n+k} and kills any argument
from the Y or M families.  ``BiderivationForm.value`` is its one closed
form: ``realize`` and ``chi_omega`` tabulate it on a window, while
``match_form`` and the post-Lie replay read single values from it.

Identity (1) is the Leibniz rule of every slice f(., z) and identity (2)
that of every slice f(x, .), so the operator module's truncation
discipline applies, anchored at the bracketed pair: the first two
arguments for identity (1), the last two for identity (2).
Identity (1) for f is identity (2) for the transpose of f.  The defect
checker evaluates both on the derivation checker's integer core
(``windows.LeibnizCheck``), and both row families are derivation rows
(``operators.derivation_rows``) of slices: identity (1) those of each
f(., z), identity (2) those of each f(x, .).  Tensors are encoded on
``PairCoords``, the arity-2 ``windows.WindowCoords``: its interior keeps
both arguments within floor(N/2) and the value shift within
``Window.shift_budget(2)``, and ``representable_shifts`` are exactly the
central shifts that budget admits.

``biderivation_constraint_matrix`` writes both row families on the n^3
tensor columns.  ``classify_biderivations`` solves the same system with
identity (1) imposed through the window derivation kernel
(``_slice_basis``, read by the post-Lie brute enclosure too), in k*n
unknowns for a kernel of dimension k (1491 instead of 9261 at N=3,
epsilon 0).  The reduced echelon basis is unique, so the lifted kernel is
the tensor system's, vector for vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .algebra import (
    ZERO,
    AlgebraConfig,
    DomainError,
    Element,
    GeneratorId,
    Scalar,
    bracket_basis,
    exact,
    format_rational,
    gen,
)
from .linalg import (
    KernelComparison,
    SparseMatrix,
    SparseVec,
    kernel_basis,
    vanishing_combinations,
    vec_bump,
)
from .operators import (
    DecompositionError,
    DerivationDecomposition,
    LinearOperator,
    UnitFormRows,
    derivation_rows,
)
from .windows import BracketTable, DefectReport, LeibnizCheck, Window, WindowCoords

Pair = Tuple[GeneratorId, GeneratorId]


@dataclass(frozen=True)
class OmegaSet:
    """Finite set of central shifts: shift k -> nonzero coefficient mu_k."""

    mu: Tuple[Tuple[int, Fraction], ...]

    def __init__(self, mu: Mapping[int, Scalar] = ()):  # type: ignore[assignment]
        entries = []
        for k, v in dict(mu).items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"shift {k!r} is not an integer")
            v = exact(v)
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
        return "{" + ", ".join(f"mu[{format_rational(k)}]={format_rational(v)}" for k, v in self.mu) + "}"


EMPTY_OMEGA = OmegaSet({})


@dataclass(frozen=True)
class BiderivationForm:
    """The classified pair (lam, omega): f = lam*[.,.] + shift part."""

    lam: Fraction
    omega: OmegaSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", exact(self.lam))
        if not isinstance(self.omega, OmegaSet):
            object.__setattr__(self, "omega", OmegaSet(self.omega))

    @property
    def is_trivial(self) -> bool:
        return not self.lam and self.omega.is_empty

    def value(self, g1: GeneratorId, g2: GeneratorId, cfg: AlgebraConfig) -> Element:
        """lam*[g1, g2], plus sum_k mu_k M_{m+n+k} when (g1, g2) = (L_m, L_n)."""
        tail = ZERO
        if g1.family == "L" and g2.family == "L":
            s = g1.index + g2.index
            tail = Element({gen("M", s + k): v for k, v in self.omega.items()})
        return bracket_basis(g1, g2, cfg).scaled(self.lam) + tail

    def __str__(self) -> str:
        return f"(lam={format_rational(self.lam)}, omega={self.omega})"


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
    """The symmetric central-shift map: the realized form (0, omega)."""
    return BilinearMap(realize(BiderivationForm(0, omega), w, cfg).tensor, f"chi({omega})")


def realize(form: BiderivationForm, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """Materialize lam*[.,.] + shift part on the window."""
    gens = w.generators(cfg)
    return BilinearMap(
        {(g1, g2): form.value(g1, g2, cfg) for g1 in gens for g2 in gens}, f"realize{form}"
    )


def biderivation_defects(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> DefectReport:
    """Both identities over closed window triples.

    Each identity is the Leibniz rule of a slice (``windows.LeibnizCheck``):
    identity (1) that of D = f(., z) at the pair (x, y), identity (2) that
    of D = f(x, .) at the pair (y, z).  It is checked for the unordered
    bracketed pair, since swapping it negates the identity, and diagonal
    pairs make it trivially zero.  A triple is closed when the bracketed
    pair is window-supported and both re-bracketed values stay
    window-supported; the defect is compared on the coordinates anchored
    to the bracketed pair.  Raises KeyError when f is undefined on a window
    pair, and ValueError as ``LeibnizCheck`` does.
    """
    gens = w.generators(cfg)
    chk = LeibnizCheck(w, cfg, [f.value(a, b).terms for a in gens for b in gens])
    rep = DefectReport()
    n = len(gens)
    closed = 0
    for a, b, t, cb in chk.pairs:
        for z in range(n):
            # (1): f([a,b], z) - [f(a,z), b] - [a, f(b,z)]
            d = chk.instance(a, b, cb, a * n + z, b * n + z, t * n + z)
            if d is not None:
                closed += 1
                if d:
                    rep.record((gens[a], gens[b], gens[z]), chk.element(d), "identity-1")
    rep.tick(closed)
    closed = 0
    for x in range(n):
        row = x * n
        for a, b, t, cb in chk.pairs:
            # (2): f(x, [a,b]) - [f(x,a), b] - [a, f(x,b)]
            d = chk.instance(a, b, cb, row + a, row + b, row + t)
            if d is not None:
                closed += 1
                if d:
                    rep.record((gens[x], gens[a], gens[b]), chk.element(d), "identity-2")
    rep.tick(closed)
    return rep


class PairCoords(WindowCoords):
    """Columns ((g1, g2), h) of window tensors: the value at (g1, g2) is
    ``f.value(g1, g2)``."""

    arity = 2

    def value(self, f: BilinearMap, args: Tuple[GeneratorId, ...]) -> Element:
        return f.value(*args)

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


def representable_shifts(w: Window) -> List[int]:
    """Shifts k whose central-shift map is fully visible on the interior:
    |m + n + k| <= N for all interior m, n."""
    cap = w.shift_budget(2)
    return list(range(-cap, cap + 1))


def _identity1_slices(rows: List[SparseVec], n: int):
    """The derivation rows of every slice f(., g3), whose operator column
    (g, h) is the tensor column (g, g3, h)."""
    for p3 in range(n):
        for row in rows:
            yield {(c // n * n + p3) * n + c % n: x for c, x in row.items()}


def _identity2_slices(rows: List[SparseVec], n: int):
    """The derivation rows of every slice f(g1, .), whose operator column
    (g, h) is the tensor column (g1, g, h)."""
    for shift in range(0, n ** 3, n * n):
        for row in rows:
            yield {c + shift: x for c, x in row.items()}


def identity1_rows(coords: PairCoords, cfg: AlgebraConfig):
    """Faithful rows of identity (1), anchored at the bracketed pair: for
    each g3 the derivation rows of the slice f(., g3)."""
    return _identity1_slices(list(derivation_rows(BracketTable(coords.window, cfg))), coords.n)


def identity2_rows(coords: PairCoords, cfg: AlgebraConfig):
    """Faithful rows of identity (2), anchored at the bracketed pair: for
    each g1 the derivation rows of the slice f(g1, .)."""
    return _identity2_slices(list(derivation_rows(BracketTable(coords.window, cfg))), coords.n)


def biderivation_constraint_matrix(w: Window, cfg: AlgebraConfig) -> Tuple[SparseMatrix, PairCoords]:
    """The exact linear system cutting out all window biderivations.

    One row per identity, closed triple and faithful output coordinate;
    anchors are (g1, g2) for identity (1) and (g2, g3) for identity (2).
    Both identities read one list of the window's derivation rows.
    """
    coords = PairCoords(w, cfg)
    der = list(derivation_rows(BracketTable(w, cfg)))
    rows = [*_identity1_slices(der, coords.n), *_identity2_slices(der, coords.n)]
    return SparseMatrix(coords.col_count, rows), coords


def _slice_basis(der: List[SparseVec], n: int) -> Tuple[int, List[List[Tuple[int, int]]], Callable]:
    """The tensors whose every slice f(., z) solves the derivation rows
    ``der``: exactly sum_{j,z} c_{j,z} B_j (x) e_z, B_1..B_k the canonical
    kernel basis of ``der`` on n * n columns, each scaled by the lcm of its
    denominators (primitive, as it holds a 1), injective in the unknowns
    c_{j,z} at column j * n + z.  Returns k, the index at[g * n + h] of each
    (j, B_j[(g, h)]) with a nonzero entry, j ascending, in ints, and the
    lift of vectors in the unknowns to tensor columns."""
    basis = []
    for v in kernel_basis(SparseMatrix(n * n, der)).vectors:
        scale = lcm(*(x.denominator for x in v.values()))
        basis.append({c: x * scale for c, x in v.items()})
    at: List[List[Tuple[int, int]]] = [[] for _ in range(n * n)]
    for j, b in enumerate(basis):
        for c, x in b.items():
            at[c].append((j, x.numerator))

    def lift(vectors: Iterable[SparseVec]) -> Iterator[SparseVec]:
        for v in vectors:
            t: SparseVec = {}
            for col, c in v.items():
                j, z = divmod(col, n)
                for oc, b in basis[j].items():
                    g, h = divmod(oc, n)
                    vec_bump(t, (g * n + z) * n + h, c * b)
            yield t

    return len(basis), at, lift


def _factored_system(w: Window, cfg: AlgebraConfig) -> Tuple[SparseMatrix, PairCoords, Callable]:
    """The biderivation system with identity (1) imposed by construction:
    its tensors are those of `_slice_basis` over the window's derivation
    rows, and only the identity (2) rows are rewritten in its unknowns.
    For slice x, derivation row r gives sum_h r[(g, h)] * B_j[(x, h)] at
    column j * n + g, in ints, the halves of r doubled; rows that vanish
    are dropped.  Returns the matrix, the tensor columns and the lift."""
    coords = PairCoords(w, cfg)
    n = coords.n
    der = list(derivation_rows(BracketTable(w, cfg)))
    k, at, lift = _slice_basis(der, n)
    doubled = [[(c // n, c % n, (2 * x).numerator) for c, x in row.items()] for row in der]
    rows = []
    for x in range(n):
        base = x * n
        for r in doubled:
            row: Dict[int, int] = {}
            for g, h, a in r:
                for j, b in at[base + h]:
                    vec_bump(row, j * n + g, a * b)
            if row:
                rows.append(row)
    return SparseMatrix(k * n, rows), coords, lift


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
    """The kernel of the factored system (``_factored_system``), lifted to
    tensor columns, against the classified span.  ``matrix`` is the
    factored system; ``biderivation_constraint_matrix`` is the same
    system on tensor columns, and its kernel basis equals ``kernel``."""
    w.require(3, "biderivation solver")
    m, coords, lift = _factored_system(w, cfg)
    predicted = [coords.encode(f) for f in predicted_biderivation_maps(w, cfg)]
    return BiderivationClassification.of(coords, m, predicted, lift=lift, shifts=representable_shifts(w))


def skew_kernel_members(bc: BiderivationClassification) -> List[SparseVec]:
    """Basis of the skewsymmetric subspace of the solver kernel.

    The kernel combinations whose symmetrization vanishes: the entries at
    ((p1, p2), h) and ((p2, p1), h) sum to zero.  The returned vectors
    decode to skewsymmetric window maps.
    """
    n = bc.coords.n

    def unordered(col: int) -> int:
        pair, h = divmod(col, n)
        p1, p2 = divmod(pair, n)
        return (min(p1, p2) * n + max(p1, p2)) * n + h

    return vanishing_combinations(bc.kernel.vectors, unordered)


def match_form(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> Optional[BiderivationForm]:
    """Fit f = lam*[.,.] + shift part on the interior, or report no match.

    lam comes from the two lowest interior L generators; the mu_k come
    from the M coefficients of the residual on interior L pairs; finally
    f must equal ``form.value`` on every ordered interior pair, which also
    rejects a residual term outside the M family and a shift read with two
    coefficients.  Returns None on any mismatch, and raises ValueError
    below radius 2, where the interior holds a single L generator.
    """
    w.require(2, "form matching")
    interior = w.interior_generators(cfg)
    l_gens = [g for g in interior if g.family == "L"]
    g1, g2 = l_gens[:2]
    lam = f.value(g1, g2).coefficient(gen("L", g1.index + g2.index)) / (
        g1.index - g2.index
    )
    mu: Dict[int, Fraction] = {}
    for a in l_gens:
        for b in l_gens:
            residual = f.value(a, b) - bracket_basis(a, b, cfg).scaled(lam)
            for h, c in residual.terms.items():
                k = h.index - a.index - b.index
                if k.denominator != 1:
                    return None
                mu[int(k)] = c
    form = BiderivationForm(lam, OmegaSet(mu))
    for a in interior:
        for b in interior:
            if f.value(a, b) != form.value(a, b, cfg):
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

    def reassemble(self, x: GeneratorId, y: GeneratorId, cfg: AlgebraConfig) -> Element:
        """The value at y of the slice-x decomposition (phi(x), rho1(x), rho2(x), rho3(x))."""
        outer = (r.get(x, Fraction(0)) for r in self.rho)
        return DerivationDecomposition(self.phi.apply_basis(x), *outer).value(y, cfg)


def decompose_biderivation(f: BilinearMap, w: Window, cfg: AlgebraConfig) -> BiderivationDecomposition:
    """Decompose every interior slice of a window biderivation.

    Boundary slices are excluded: their inner parts can need generators
    outside the window, so only interior slices decompose faithfully.
    Raises DecompositionError, naming the first slice that is not of the
    derivation shape, when f is not a biderivation on this window.  Like
    ``decompose_derivation`` it needs radius 2.
    """
    w.require(2, "biderivation decomposition")
    gens = w.generators(cfg)
    interior = w.interior_generators(cfg)
    phi_action: Dict[GeneratorId, Element] = {}
    psi_action: Dict[GeneratorId, Element] = {}
    rho: Tuple[Dict[GeneratorId, Fraction], ...] = ({}, {}, {})
    theta: Tuple[Dict[GeneratorId, Fraction], ...] = ({}, {}, {})

    units = UnitFormRows(w, cfg)

    def decompose_slice(action: Dict[GeneratorId, Element], label: str):
        try:
            return units.decompose(LinearOperator(action, label))
        except DecompositionError as exc:
            raise DecompositionError(f"{label}: {exc}; f is not a biderivation on this window") from None

    for x in interior:
        dec = decompose_slice({g: f.value(x, g) for g in gens}, f"f({x}, .)")
        phi_action[x] = dec.inner_part
        rho[0][x], rho[1][x], rho[2][x] = dec.a, dec.b, dec.c
    for y in interior:
        dec = decompose_slice({g: f.value(g, y) for g in gens}, f"f(., {y})")
        psi_action[y] = -dec.inner_part
        theta[0][y], theta[1][y], theta[2][y] = dec.a, dec.b, dec.c
    return BiderivationDecomposition(
        phi=LinearOperator(phi_action, "phi"),
        psi=LinearOperator(psi_action, "psi"),
        rho=rho,
        theta=theta,
    )
