"""Commutative post-Lie products on index windows.

A candidate product is a bilinear map (x, y) -> x * y given by its values on
all ordered pairs of window generators.  Three axioms are checked:

  axiom-5:  x * y = y * x
  axiom-6:  [x, y] * z = x * (y * z) - y * (x * z)
  axiom-7:  x * [y, z] = [x * y, z] + [y, x * z]

Axiom checks run on integer positions (``AxiomCheck``) and are exact.  A
stored product value may stick out of the window and still enters the
comparison exactly.  An axiom instance is skipped only when it cannot be
evaluated from window data: axiom-6 needs [x, y], y * z and x * z inside
the window (the product accepts only window arguments), axiom-7 needs
[y, z] inside the window.  Axiom-5 instances are always evaluable.

The main classification result reduces every window product built from a
bracket multiple plus a central shift tail to the trivial one: any nonzero
parameter choice breaks one of the axioms, and `triviality_witness` returns
the breaking instance together with its exact residual in closed form.
`verify_triviality_theorem` sweeps a fixed parameter grid and replays each
witness through the generic axiom evaluator (`axiom_defect`), so the closed
form and the checker must agree term by term.

`solve_postlie_window` is an independent brute-force cross-check.  It treats
the product tensor itself as the unknown and works with the windowed axiom
system for window-supported tensors: symmetry rows, the faithful axiom-7
rows shared with the biderivation solver, and the axiom-6 rows, which are
quadratic in the unknowns.  On symmetric tensors the axiom-7 rows, those of
identity (2), are by transposition those of identity (1), which hold by
construction on the injective image of `biderivations._slice_basis`.  So
only the symmetry rows are eliminated, in its unknowns, and the lifted
canonical kernel is that of the unfactored rows, counted in ``linear_rows``
(`_enclosure_kernel`).  The quadratic rows are used soundly: a row none of
whose column pairs lies in the support of the current solution enclosure
has a quadratic part that vanishes on the whole enclosure, so it forces its
one linear column to zero (`_trim_step`, set algebra on that support).
Iterating this trim keeps an enclosure of the true solution set at every
step, so `interior_dimension == 0` is a proof that all window solutions
vanish on the interior, while a nonzero value only reports possible
truncation artifacts, never classifies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .algebra import (
    AlgebraConfig,
    Element,
    GeneratorId,
    bracket_basis,
    format_element,
    gen,
    validate_generator,
)
from .biderivations import (
    BiderivationForm,
    BilinearMap,
    PairCoords,
    _slice_basis,
    realize,
)
from .linalg import (
    SparseMatrix,
    SparseVec,
    SpanBasis,
    kernel_basis,
    project_columns,
    span_basis,
    vanishing_combinations,
    vec_bump,
)
from .operators import derivation_rows
from .windows import MAX_RECORDED, BracketTable, DefectReport, Window

ProductLike = Union[BilinearMap, BiderivationForm]
Values = Callable[[GeneratorId, GeneratorId], Element]

AXIOM_COMMUTATIVITY = "axiom-5"
AXIOM_WEIGHTED_LEIBNIZ = "axiom-6"
AXIOM_BRACKET_DERIVATION = "axiom-7"


def materialize_product(p: ProductLike, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """Accept either a ready window tensor or a parametric form."""
    if isinstance(p, BiderivationForm):
        return realize(p, w, cfg)
    return p


def _product_values(p: ProductLike, w: Window, cfg: AlgebraConfig) -> Values:
    """A map's stored values, or a form's values read one pair at a time
    (``BiderivationForm.value``); a pair outside the window raises the
    KeyError that the realized map would raise."""
    if isinstance(p, BilinearMap):
        return p.value

    def on_window(g: GeneratorId) -> bool:
        return w.contains(g) and cfg.valid_index(g.family, g.index)

    def value(a: GeneratorId, b: GeneratorId) -> Element:
        if not (on_window(a) and on_window(b)):
            raise KeyError(f"bilinear map realize{p} undefined on ({a}, {b})")
        return p.value(a, b, cfg)

    return value


# Key stride of the value and bracket tables: any generator can be an
# argument, so it only has to exceed every position.
_STRIDE = 1 << 32


class _OnDemand(dict):
    """A dict that fills a missing key a * _STRIDE + b with fill(a, b)."""

    def __init__(self, fill: Callable[[int, int], Any]):
        super().__init__()
        self.fill = fill

    def __missing__(self, k: int) -> Any:
        v = self[k] = self.fill(*divmod(k, _STRIDE))
        return v


class AxiomCheck:
    """The axioms of one product, evaluated on integer positions.

    Positions number generators as they are met: as an argument, in a
    value or as a bracket target.  With k = _STRIDE, ``vals[a * k + b]``
    holds the value a * b as (position, coefficient) terms in term order,
    ``closed`` at the same key whether every term lies within the window
    radius, and ``table[h * k + g]`` the bracket [g, h] as None or (target
    position, coefficient).  Each is read on first use and kept, so one
    instance reads only what it needs (a form is never realized) and the
    full check reads every value and bracket once.  Coefficients are exact
    rationals, and a defect is a {position: coefficient} dict.
    """

    def __init__(self, p: ProductLike, w: Window, cfg: AlgebraConfig):
        read = _product_values(p, w, cfg)
        order: List[GeneratorId] = []
        pos: Dict[GeneratorId, int] = {}
        inside: List[bool] = []

        # The fills below close over these lists, never over the check, so
        # a dropped check is freed at once and not left to the cycle
        # collector: a sweep makes one check per replay.
        def position(g: GeneratorId) -> int:
            i = pos.get(g)
            if i is None:
                i = pos[g] = len(order)
                order.append(g)
                inside.append(w.contains(g))
            return i

        def value(a: int, b: int) -> List[Tuple[int, Fraction]]:
            try:
                v = read(order[a], order[b])
            except KeyError:
                # a read the product cannot answer off the lattice is a domain error
                validate_generator(order[a], cfg)
                validate_generator(order[b], cfg)
                raise
            return [(position(h), c) for h, c in v.terms.items()]

        def bracket_entry(h: int, g: int) -> Optional[Tuple[int, Fraction]]:
            terms = bracket_basis(order[g], order[h], cfg).terms
            if not terms:
                return None
            ((target, c),) = terms.items()
            return position(target), c

        def closed(a: int, b: int) -> bool:
            return all(inside[h] for h, _ in vals[a * _STRIDE + b])

        vals = _OnDemand(value)
        self.window, self.cfg = w, cfg
        self.order, self.inside, self.position = order, inside, position
        self.vals = vals
        self.closed = _OnDemand(closed)
        self.table = _OnDemand(bracket_entry)

    def read_window(self) -> List[GeneratorId]:
        """Give the n window generators positions 0..n-1 and read every
        window value in canonical pair order, so a product undefined on a
        window pair raises its KeyError before any instance runs.  Call it
        on a new check; returns the window generators."""
        gens = self.window.generators(self.cfg)
        n = len(gens)
        for g in gens:
            self.position(g)
        for a in range(n):
            for b in range(n):
                self.vals[a * _STRIDE + b]
        return gens

    def element(self, defect: Dict[int, Fraction]) -> Element:
        """The defect as an element."""
        order = self.order
        return Element({order[h]: c for h, c in defect.items()})

    def commutativity(self, a: int, b: int) -> Dict[int, Fraction]:
        """a * b - b * a."""
        vals = self.vals
        acc = dict(vals[a * _STRIDE + b])
        for h, c in vals[b * _STRIDE + a]:
            vec_bump(acc, h, -c)
        return acc

    def weighted_leibniz(self, x: int, y: int, z: int) -> Optional[Dict[int, Fraction]]:
        """[x, y] * z - x * (y * z) + y * (x * z); None when [x, y], y * z
        or x * z leaves the window radius."""
        vals, k = self.vals, _STRIDE
        e = self.table[y * k + x]
        if e is not None and not self.inside[e[0]]:
            return None
        yz, xz = y * k + z, x * k + z
        # both values are read before either is tested, as the formula reads them
        closed_yz, closed_xz = self.closed[yz], self.closed[xz]
        if not (closed_yz and closed_xz):
            return None
        acc: Dict[int, Fraction] = {}
        if e is not None:
            target, c = e
            acc = {h: c * d for h, d in vals[target * k + z]}
        for left, right, sign in ((x, yz, -1), (y, xz, 1)):
            for h, c in vals[right]:
                for g, d in vals[left * k + h]:
                    vec_bump(acc, g, sign * c * d)
        return acc

    def bracket_derivation(self, x: int, y: int, z: int) -> Optional[Dict[int, Fraction]]:
        """x * [y, z] - [x * y, z] - [y, x * z]; None when [y, z] leaves the
        window radius."""
        vals, table, k = self.vals, self.table, _STRIDE
        e = table[z * k + y]
        if e is not None and not self.inside[e[0]]:
            return None
        acc: Dict[int, Fraction] = {}
        if e is not None:
            target, c = e
            acc = {h: c * d for h, d in vals[x * k + target]}
        # -[x * y, z] = [z, x * y], then -[y, x * z]
        for value, g, sign in ((x * k + y, z, 1), (x * k + z, y, -1)):
            for h, d in vals[value]:
                b = table[h * k + g]
                if b is not None:
                    vec_bump(acc, b[0], sign * d * b[1])
        return acc


def axiom_defect(
    p: ProductLike,
    axiom: str,
    inputs: Sequence[GeneratorId],
    w: Window,
    cfg: AlgebraConfig,
) -> Optional[Element]:
    """Defect of one axiom instance at the given ordered inputs.

    Returns None when the instance is not evaluable on the window.  This is
    the same per-instance evaluation the full checker runs (``AxiomCheck``),
    so a value here is exactly the entry `postlie_axiom_defects` would
    report.  A form is not realized: only the values and brackets the
    instance reads are evaluated.
    """
    chk = AxiomCheck(p, w, cfg)
    args = [chk.position(g) for g in inputs]
    if axiom == AXIOM_COMMUTATIVITY:
        a, b = args
        d = chk.commutativity(a, b)
    elif axiom == AXIOM_WEIGHTED_LEIBNIZ:
        x, y, z = args
        d = chk.weighted_leibniz(x, y, z)
    elif axiom == AXIOM_BRACKET_DERIVATION:
        x, y, z = args
        d = chk.bracket_derivation(x, y, z)
    else:
        raise ValueError(f"unknown axiom tag {axiom!r}")
    return None if d is None else chk.element(d)


def postlie_axiom_defects(
    p: ProductLike,
    w: Window,
    cfg: AlgebraConfig,
    max_recorded: int = MAX_RECORDED,
) -> DefectReport:
    """Exhaustive axiom check over the window.

    Axiom-5 runs on all unordered pairs (the diagonal is trivially
    symmetric), axioms 6 and 7 on all evaluable triples; each violation is
    tagged with its axiom.  Defects are full elements, not projections.
    Raises KeyError when the product is undefined on a pair it reads, and
    ``DomainError`` instead when that pair holds a generator off its
    lattice, as a value term within the radius can make it.  A map
    defined past the window is read there.
    """
    chk = AxiomCheck(p, w, cfg)
    gens = chk.read_window()
    n = len(gens)
    rep = DefectReport(max_recorded=max_recorded)

    pairs = 0
    for a in range(n):
        for b in range(a + 1, n):
            pairs += 1
            d = chk.commutativity(a, b)
            if d:
                rep.record((gens[a], gens[b]), chk.element(d), AXIOM_COMMUTATIVITY)
    rep.tick(pairs)

    # axiom-6 is antisymmetric in (x, y), axiom-7 in (y, z): unordered there
    closed = 0
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(n):
                d = chk.weighted_leibniz(x, y, z)
                if d is None:
                    continue
                closed += 1
                if d:
                    inputs = (gens[x], gens[y], gens[z])
                    rep.record(inputs, chk.element(d), AXIOM_WEIGHTED_LEIBNIZ)
    rep.tick(closed)

    closed = 0
    for x in range(n):
        for y in range(n):
            for z in range(y + 1, n):
                d = chk.bracket_derivation(x, y, z)
                if d is None:
                    continue
                closed += 1
                if d:
                    inputs = (gens[x], gens[y], gens[z])
                    rep.record(inputs, chk.element(d), AXIOM_BRACKET_DERIVATION)
    rep.tick(closed)
    return rep


class PostLieAxiomError(ValueError):
    """Raised when a product expected to satisfy the axioms does not."""


def biderivation_from_postlie(p: ProductLike, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """The product of a verified commutative post-Lie structure, as a map.

    Checks the axioms first and refuses a violating product; on success the
    returned tensor passes `biderivation_defects` on the same window, which
    callers can confirm independently.
    """
    f = materialize_product(p, w, cfg)
    rep = postlie_axiom_defects(f, w, cfg)
    if not rep.empty:
        first = rep.violations[0].describe() if rep.violations else "?"
        raise PostLieAxiomError(f"product violates the axioms: {rep.summary()}; first: {first}")
    return f


@dataclass(frozen=True)
class TrivialityWitness:
    """One axiom instance certifying that a parametric product is not post-Lie."""

    axiom: str
    inputs: Tuple[GeneratorId, ...]
    residual: Element

    def describe(self) -> str:
        args = ", ".join(str(g) for g in self.inputs)
        return f"{self.axiom} fails at ({args}): residual {format_element(self.residual)}"


def triviality_witness(form: BiderivationForm, cfg: AlgebraConfig) -> Optional[TrivialityWitness]:
    """Closed-form breaking instance for a nontrivial parametric product.

    A nonzero bracket multiple breaks commutativity at (L[1], L[2]): the
    shift tail is symmetric and cancels, leaving 2*lam*[L[1], L[2]].  With
    the multiple gone, a nonempty shift tail breaks axiom-6 at
    (L[2], L[1], L[3]): the left side is the tail at L[3] * L[3], the right
    side vanishes because the tail kills non-L arguments.  The residuals are
    written down directly, not read off a product evaluation, so they can be
    replayed against the generic checker as an independent route.
    """
    if form.lam:
        x, y = gen("L", 1), gen("L", 2)
        residual = bracket_basis(x, y, cfg).scaled(2 * form.lam)
        return TrivialityWitness(AXIOM_COMMUTATIVITY, (x, y), residual)
    if not form.omega.is_empty:
        inputs = (gen("L", 2), gen("L", 1), gen("L", 3))
        residual = Element({gen("M", 6 + k): mu for k, mu in form.omega.items()})
        return TrivialityWitness(AXIOM_WEIGHTED_LEIBNIZ, inputs, residual)
    return None


@dataclass
class SweepCase:
    """One parameter choice of the triviality sweep and how it fared."""

    form: BiderivationForm
    witness: Optional[TrivialityWitness]
    ok: bool
    detail: str = ""


@dataclass
class TrivialityReport:
    """Outcome of the fixed-grid triviality sweep on one window."""

    window: Window
    epsilon: Fraction
    cases: List[SweepCase]
    trivial_defects: DefectReport
    brute: Optional["PostLieBruteReport"] = None

    @property
    def all_ok(self) -> bool:
        if not (self.trivial_defects.empty and all(c.ok for c in self.cases)):
            return False
        return self.brute is None or self.brute.conclusive

    def summary(self) -> str:
        good = sum(1 for c in self.cases if c.ok)
        lines = [
            f"window radius {self.window.radius}, epsilon {self.epsilon}:"
            f" {good}/{len(self.cases)} sweep cases ok",
            f"trivial product axiom check: {self.trivial_defects.summary()}",
        ]
        for c in self.cases:
            if not c.ok:
                lines.append(f"  FAIL {c.form}: {c.detail}")
        if self.brute is not None:
            lines.append(self.brute.verdict())
        return "\n".join(lines)


def _sweep_forms(w: Window) -> List[BiderivationForm]:
    # fixed documented grid; every witness component must fit the window,
    # which needs 6 + k <= N, hence the spike cap, and N >= 5 overall
    n = w.radius
    lams = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2)]
    omegas = [{}]
    for k in range(-4, n - 6 + 1):
        omegas.append({k: Fraction(1)})
        omegas.append({k: Fraction(-1)})
    omegas.append({n - 6: Fraction(1), n - 7: Fraction(-2)})
    return [BiderivationForm(lam, om) for lam in lams for om in omegas]


def verify_triviality_theorem(
    w: Window,
    cfg: AlgebraConfig,
    brute: Optional[Window] = None,
) -> TrivialityReport:
    """Sweep a fixed parameter grid and certify every nontrivial case.

    For each grid point the closed-form witness must exist exactly when the
    parameters are nonzero, and replaying its inputs through the generic
    axiom evaluator must reproduce its residual term by term.  The trivial
    point must pass the full axiom check.  Passing `brute` additionally runs
    the independent windowed solve on that (small) window.
    """
    w.require(5, "triviality sweep")
    cases: List[SweepCase] = []
    for form in _sweep_forms(w):
        wit = triviality_witness(form, cfg)
        detail = ""
        if form.is_trivial:
            if wit is not None:
                detail = "unexpected witness for the trivial product"
        elif wit is None:
            detail = "missing witness"
        else:
            d = axiom_defect(form, wit.axiom, wit.inputs, w, cfg)
            if d is None:
                detail = "witness instance not evaluable"
            elif d != wit.residual:
                detail = f"checker defect {format_element(d)} != witness residual {format_element(wit.residual)}"
        cases.append(SweepCase(form, wit, not detail, detail))
    trivial_rep = postlie_axiom_defects(BiderivationForm(0, {}), w, cfg)
    brute_rep = solve_postlie_window(brute, cfg) if brute is not None else None
    return TrivialityReport(w, cfg.epsilon, cases, trivial_rep, brute_rep)


@dataclass
class PostLieBruteReport:
    """Result of the windowed brute-force solve of the axiom system."""

    window: Window
    epsilon: Fraction
    columns: int
    linear_rows: int
    kernel_dimension: int
    quadratic_instances: int
    forced_columns: int
    iterations: int
    final_dimension: int
    interior_dimension: int

    @property
    def conclusive(self) -> bool:
        return self.interior_dimension == 0

    def verdict(self) -> str:
        head = (
            f"brute solve on radius {self.window.radius} (epsilon {self.epsilon}):"
            f" enclosure {self.kernel_dimension} -> {self.final_dimension}"
            f" after {self.iterations} trims"
        )
        if self.conclusive:
            return head + "; interior-trivial: every window solution vanishes on the interior"
        return head + (
            f"; undetermined: {self.interior_dimension} interior directions survive the"
            " linear screen (possible window truncation artifacts, not genuine products)"
        )


def solve_postlie_window(w: Window, cfg: AlgebraConfig) -> PostLieBruteReport:
    """Enclose all window tensors satisfying the axioms; test the interior.

    The enclosure starts as the kernel of the linear rows
    (`_enclosure_kernel`).  The bracket of two generators is a monomial, so
    each axiom-6 row has one linear column; `_trim_step` forces it to zero
    when no quadratic term of the row has both columns in the support, and
    the enclosure shrinks to its part vanishing on every forced column,
    until no column is new.  The module docstring says why this is exact.
    """
    w.require(3, "brute post-Lie solve")
    coords = PairCoords(w, cfg)
    table = BracketTable(w, cfg)
    n = coords.n
    kernel, linear_rows = _enclosure_kernel(coords, table)

    # (x, y, b) with [x, y] a nonzero multiple of the window generator b
    closed = [(x, y, b) for x, y, b, c in table.pairs if c]

    forced: Set[int] = set()
    basis: Sequence[SparseVec] = kernel.vectors
    iterations = 0
    interior_cols = coords.interior_columns()
    while True:
        iterations += 1
        # the trimmed vectors vanish on the forced columns: each step forces new ones
        new_forced = _trim_step(closed, n, basis)
        if not new_forced:
            break
        forced.update(new_forced)
        basis = vanishing_combinations(kernel.vectors, lambda c: c if c in forced else None)
        if not basis:
            break

    interior = span_basis((project_columns(v, interior_cols) for v in basis), coords.col_count)
    return PostLieBruteReport(
        window=w,
        epsilon=cfg.epsilon,
        columns=coords.col_count,
        linear_rows=linear_rows,
        kernel_dimension=kernel.dimension,
        quadratic_instances=len(closed) * n * n,
        forced_columns=len(forced),
        iterations=iterations,
        final_dimension=len(basis),
        interior_dimension=interior.dimension,
    )


def _enclosure_kernel(coords: PairCoords, table: BracketTable) -> Tuple[SpanBasis, int]:
    """The canonical kernel of the linear rows and their unfactored count,
    n * n(n - 1)/2 symmetry rows and n per derivation row.  The symmetry
    row of a < b at h, in the unknowns of `_slice_basis`, is
    sum_j B_j[(a, h)] c_{j,b} - sum_j B_j[(b, h)] c_{j,a}, in ints."""
    n = coords.n
    der = list(derivation_rows(table))
    k, at, lift = _slice_basis(der, n)
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            for h in range(n):
                row = {j * n + b: x for j, x in at[a * n + h]}
                row.update((j * n + a, -x) for j, x in at[b * n + h])
                if row:
                    rows.append(row)
    kernel = kernel_basis(SparseMatrix(k * n, rows))
    return span_basis(lift(kernel.vectors), coords.col_count), n * n * (n - 1) // 2 + n * len(der)


def _trim_step(closed: Sequence[Tuple[int, int, int]], n: int, basis: Sequence[SparseVec]) -> Set[int]:
    """The columns that axiom-6 rows force to zero on span(basis).

    Column ((p, g), k) is (p * n + g) * n + k, and ks[p * n + g] holds the k
    with ((p, g), k) in the support.  For (x, y, b) in ``closed`` and each z,
    row ((x, y), z, k) pairs ((y, z), g) with ((x, g), k) and ((x, z), g)
    with ((y, g), k), so it forces ((b, z), k) for each k in ks[b * n + z]
    outside the blocked set: the union of ks[x * n + g] over g in
    ks[y * n + z] and of ks[y * n + g] over g in ks[x * n + z].
    """
    ks: List[Set[int]] = [set() for _ in range(n * n)]
    for v in basis:
        for col in v:
            ks[col // n].add(col % n)
    forced: Set[int] = set()
    for x, y, b in closed:
        for z in range(n):
            live = ks[b * n + z]
            if not live:
                continue
            blocked: Set[int] = set()
            for g in ks[y * n + z]:
                blocked |= ks[x * n + g]
            for g in ks[x * n + z]:
                blocked |= ks[y * n + g]
            forced.update((b * n + z) * n + k for k in live - blocked)
    return forced
