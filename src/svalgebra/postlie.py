"""Commutative post-Lie products on index windows.

A candidate product is a bilinear map (x, y) -> x * y given by its values on
all ordered pairs of window generators.  Three axioms are checked:

  axiom-5:  x * y = y * x
  axiom-6:  [x, y] * z = x * (y * z) - y * (x * z)
  axiom-7:  x * [y, z] = [x * y, z] + [y, x * z]

Axiom checks compare full elements; a stored product value may stick out of
the window and still enters the comparison exactly.  An axiom instance is
skipped only when it cannot be evaluated from window data: axiom-6 needs
[x, y], y * z and x * z inside the window (the product accepts only window
arguments), axiom-7 needs [y, z] inside the window.  Axiom-5 instances are
always evaluable.

The main classification result reduces every window product built from a
bracket multiple plus a central shift tail to the trivial one: any nonzero
parameter choice breaks one of the axioms, and `triviality_witness` returns
the breaking instance together with its exact residual in closed form.
`verify_triviality_theorem` sweeps a fixed parameter grid and replays each
witness through the generic axiom evaluator, so the closed form and the
checker must agree term by term.

`solve_postlie_window` is an independent brute-force cross-check.  It treats
the product tensor itself as the unknown and works with the windowed axiom
system for window-supported tensors: symmetry rows, the faithful axiom-7
rows shared with the biderivation solver, and the axiom-6 rows, which are
quadratic in the unknowns.  The quadratic rows are used soundly: a row whose
quadratic part vanishes identically on the current solution enclosure (which
is certain when every contributing column pair misses the enclosure's
support) degenerates to its linear part, and only such rows are imposed.
Iterating this trim keeps an enclosure of the true solution set at every
step, so `interior_dimension == 0` is a proof that all window solutions
vanish on the interior, while a nonzero value only reports possible
truncation artifacts, never classifies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .algebra import (
    AlgebraConfig,
    Element,
    GeneratorId,
    ZERO,
    bracket,
    bracket_basis,
    format_element,
    gen,
)
from .biderivations import (
    BiderivationForm,
    BilinearMap,
    PairCoords,
    identity2_rows,
    realize,
)
from .linalg import SparseMatrix, SparseVec, kernel_basis, project_columns, span_basis, vec_add_scaled
from .windows import MAX_RECORDED, OUTSIDE, BracketTable, DefectReport, Window

ProductLike = Union[BilinearMap, BiderivationForm]

_ONE = Fraction(1)

AXIOM_COMMUTATIVITY = "axiom-5"
AXIOM_WEIGHTED_LEIBNIZ = "axiom-6"
AXIOM_BRACKET_DERIVATION = "axiom-7"


def materialize_product(p: ProductLike, w: Window, cfg: AlgebraConfig) -> BilinearMap:
    """Accept either a ready window tensor or a parametric form."""
    if isinstance(p, BiderivationForm):
        return realize(p, w, cfg)
    return p


def _left_product(f: BilinearMap, e: Element, z: GeneratorId) -> Element:
    # e * z for window-supported e
    out = ZERO
    for b, c in e.terms.items():
        out = out + f.value(b, z).scaled(c)
    return out


def _right_product(f: BilinearMap, x: GeneratorId, e: Element) -> Element:
    # x * e for window-supported e
    out = ZERO
    for b, c in e.terms.items():
        out = out + f.value(x, b).scaled(c)
    return out


def _axiom5_defect(f: BilinearMap, a: GeneratorId, b: GeneratorId) -> Element:
    return f.value(a, b) - f.value(b, a)


def _axiom6_defect(
    f: BilinearMap,
    x: GeneratorId,
    y: GeneratorId,
    z: GeneratorId,
    w: Window,
    cfg: AlgebraConfig,
) -> Optional[Element]:
    br = bracket_basis(x, y, cfg)
    if not w.contains_element(br):
        return None
    yz = f.value(y, z)
    xz = f.value(x, z)
    if not (w.contains_element(yz) and w.contains_element(xz)):
        return None
    return _left_product(f, br, z) - _right_product(f, x, yz) + _right_product(f, y, xz)


def _axiom7_defect(
    f: BilinearMap,
    x: GeneratorId,
    y: GeneratorId,
    z: GeneratorId,
    w: Window,
    cfg: AlgebraConfig,
) -> Optional[Element]:
    br = bracket_basis(y, z, cfg)
    if not w.contains_element(br):
        return None
    left = _right_product(f, x, br)
    right = bracket(f.value(x, y), Element.monomial(z, _ONE), cfg)
    right = right + bracket(Element.monomial(y, _ONE), f.value(x, z), cfg)
    return left - right


def axiom_defect(
    p: ProductLike,
    axiom: str,
    inputs: Sequence[GeneratorId],
    w: Window,
    cfg: AlgebraConfig,
) -> Optional[Element]:
    """Defect of one axiom instance at the given ordered inputs.

    Returns None when the instance is not evaluable on the window.  This is
    the same per-instance evaluation the full checker runs, so a value here
    is exactly the entry `postlie_axiom_defects` would report.
    """
    f = materialize_product(p, w, cfg)
    if axiom == AXIOM_COMMUTATIVITY:
        a, b = inputs
        return _axiom5_defect(f, a, b)
    if axiom == AXIOM_WEIGHTED_LEIBNIZ:
        x, y, z = inputs
        return _axiom6_defect(f, x, y, z, w, cfg)
    if axiom == AXIOM_BRACKET_DERIVATION:
        x, y, z = inputs
        return _axiom7_defect(f, x, y, z, w, cfg)
    raise ValueError(f"unknown axiom tag {axiom!r}")


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
    """
    f = materialize_product(p, w, cfg)
    gens = w.generators(cfg)
    for a in gens:
        for b in gens:
            f.value(a, b)  # total on the window or KeyError
    rep = DefectReport(max_recorded=max_recorded)

    pairs = 0
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            pairs += 1
            d = _axiom5_defect(f, a, b)
            if d.terms:
                rep.record((a, b), d, AXIOM_COMMUTATIVITY)
    rep.tick(pairs)

    # axiom-6 is antisymmetric in (x, y), axiom-7 in (y, z): unordered there
    closed = 0
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            for z in gens:
                d = _axiom6_defect(f, x, y, z, w, cfg)
                if d is None:
                    continue
                closed += 1
                if d.terms:
                    rep.record((x, y, z), d, AXIOM_WEIGHTED_LEIBNIZ)
    rep.tick(closed)

    closed = 0
    for x in gens:
        for j, y in enumerate(gens):
            for z in gens[j + 1:]:
                d = _axiom7_defect(f, x, y, z, w, cfg)
                if d is None:
                    continue
                closed += 1
                if d.terms:
                    rep.record((x, y, z), d, AXIOM_BRACKET_DERIVATION)
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
    if w.radius < 5:
        raise ValueError("triviality sweep needs window radius >= 5")
    cases: List[SweepCase] = []
    for form in _sweep_forms(w):
        wit = triviality_witness(form, cfg)
        if form.is_trivial:
            ok = wit is None
            detail = "" if ok else "unexpected witness for the trivial product"
            cases.append(SweepCase(form, wit, ok, detail))
            continue
        if wit is None:
            cases.append(SweepCase(form, None, False, "missing witness"))
            continue
        f = realize(form, w, cfg)
        d = axiom_defect(f, wit.axiom, wit.inputs, w, cfg)
        if d is None:
            cases.append(SweepCase(form, wit, False, "witness instance not evaluable"))
        elif d != wit.residual:
            cases.append(
                SweepCase(
                    form,
                    wit,
                    False,
                    f"checker defect {format_element(d)} != witness residual"
                    f" {format_element(wit.residual)}",
                )
            )
        else:
            cases.append(SweepCase(form, wit, True))
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

    The enclosure starts as the kernel of the linear rows (symmetry plus the
    faithful axiom-7 rows) and is trimmed by axiom-6 rows whose quadratic
    part provably vanishes on the whole current enclosure.  Because the
    bracket of two generators is a monomial, each usable axiom-6 row forces
    one tensor coordinate to zero.  See the module docstring for why the
    result is an enclosure and what the verdict does and does not claim.
    """
    if w.radius < 3:
        raise ValueError("brute post-Lie solve needs window radius >= 3")
    coords = PairCoords(w, cfg)
    table = BracketTable(w, cfg)
    n = coords.n

    m = SparseMatrix(coords.col_count)
    for a in range(n):
        for b in range(a + 1, n):
            base_ab = (a * n + b) * n
            base_ba = (b * n + a) * n
            for k in range(n):
                m.add_row({base_ab + k: _ONE, base_ba + k: -_ONE})
    for row in identity2_rows(coords, cfg):
        m.add_row(row)
    linear_rows = m.row_count
    kernel = kernel_basis(m)
    basis = [dict(v) for v in kernel.vectors]

    # ((x, y), z, h) instances with a nonzero in-window bracket; the linear
    # part is the single coordinate ((b, z), h) scaled by the bracket
    # coefficient, the quadratic part couples ((y, z), g) with ((x, g), h)
    # and ((x, z), g) with ((y, g), h) over all window g
    instances: List[Tuple[int, int, int, int, int, int]] = []
    for x in range(n):
        for y in range(x + 1, n):
            br = table.product[x * n + y]
            if br is None or br[0] == OUTSIDE:
                continue
            b = br[0]
            for z in range(n):
                base_b = (b * n + z) * n
                base_yz = (y * n + z) * n
                base_xz = (x * n + z) * n
                for k in range(n):
                    instances.append((base_b + k, base_yz, x * n, base_xz, y * n, k))
    quadratic_instances = len(instances)

    forced: Set[int] = set()
    iterations = 0
    interior_cols = coords.interior_columns()
    while True:
        iterations += 1
        supp: Set[int] = set()
        for v in basis:
            supp.update(v)
        new_forced: Set[int] = set()
        for lin_col, base_yz, row_x, base_xz, row_y, k in instances:
            if lin_col in forced or lin_col not in supp:
                continue
            ok = True
            for g in range(n):
                if base_yz + g in supp and (row_x + g) * n + k in supp:
                    ok = False
                    break
                if base_xz + g in supp and (row_y + g) * n + k in supp:
                    ok = False
                    break
            if ok:
                new_forced.add(lin_col)
        if not new_forced:
            break
        forced.update(new_forced)
        basis = _trim_basis(kernel.vectors, forced)
        if not basis:
            break

    interior = span_basis((project_columns(v, interior_cols) for v in basis), coords.col_count)
    return PostLieBruteReport(
        window=w,
        epsilon=cfg.epsilon,
        columns=coords.col_count,
        linear_rows=linear_rows,
        kernel_dimension=kernel.dimension,
        quadratic_instances=quadratic_instances,
        forced_columns=len(forced),
        iterations=iterations,
        final_dimension=len(basis),
        interior_dimension=interior.dimension,
    )


def _trim_basis(vectors: Sequence[SparseVec], forced: Set[int]) -> List[SparseVec]:
    """Basis of the subspace of span(vectors) vanishing on the forced columns."""
    col_index: Dict[int, List[Tuple[int, Fraction]]] = {}
    for i, v in enumerate(vectors):
        for c, x in v.items():
            if c in forced:
                col_index.setdefault(c, []).append((i, x))
    reduced = SparseMatrix(len(vectors))
    for c in sorted(col_index):
        reduced.add_row(dict(col_index[c]))
    combos = kernel_basis(reduced)
    out: List[SparseVec] = []
    for combo in combos.vectors:
        u: SparseVec = {}
        for i, coef in combo.items():
            vec_add_scaled(u, vectors[i], coef)
        out.append(u)
    return out
