"""Exact sparse linear algebra over the rationals.

Vectors are sparse ``{column: Fraction}`` dicts with no stored zeros.
`_refuse_inexact` tests each entry where rows enter: one that
`algebra.exact` refuses (a float, a string, ...) raises its TypeError,
then a stored zero raises ZeroDivisionError.  `SparseMatrix` and
`span_basis` refuse both, then a column out of range (`add_row` drops
zeros); `SpanBasis.reduce` and `contains` refuse both, and `solve_linear`
the first in its right-hand side.  Each solver refuses alike every entry
of its rows (each row left with no live column in `_presolve`, the live
rows where they are eliminated, every entry in the mod-p oracle), so a row
appended to ``SparseMatrix.rows`` is refused too.
Everything is computed by pivoted Gaussian elimination into the reduced
echelon form (each pivot row has leading entry 1 and is zero at every
other leading column), which `_Rref` keeps after each insert, over the
rationals or mod a prime, and `_reduce` and `kernel_basis` rely on.  It is
unique for a fixed column order, so every result is deterministic and
independent of row order.

Every elimination, exact or mod p, first settles single-entry rows in
`_forced_columns`.  A row with one live column forces that column to
zero, which may leave other rows with one live column in turn; a worklist
over a column -> rows index follows these cascades in time linear in the
nonzeros (the first step of sparse presolve: E. D. Andersen and K. D.
Andersen, *Presolving in linear programming*, Math. Programming 71, 1995).
The pass reads only the supports, and each caller checks the forcing
entries it pivots on.  Every solve (kernel, rank, span, particular
solution) settles them once, in `_presolve`, and only rows with two or
more live columns reach an elimination.  Each result is read off a unique
canonical form, so it is exactly that of eliminating every row.

`kernel_basis` first computes that form mod the prime P = 2^61 - 1
(`_Rref(_P)`, the same loops as `_Rref()`) on the live rows scaled to
integers, rebuilds each kernel entry by rational reconstruction, and
proves the result exactly: every vector annihilates every live integer
row, read through a column -> (row, entry) index, and there are as many
independent vectors as the kernel dimension mod P, which is at least the
rational one, so they span the rational kernel (the certificate of R. M.
McConnell, K. Mehlhorn, S. Näher and P. Schweitzer, *Certifying
algorithms*, Computer Science Review 5, 2011).  If reconstruction or the
proof fails, it eliminates exactly instead, so no result depends on P.
`span_basis`, `rank` and `solve_linear` stay exact: annihilation proves a
kernel, not a row space.

`vanishing_combinations` is the one cut of a span by conditions on its
coordinates (skewsymmetric biderivations, the trimmed post-Lie enclosure).
The package hands every system to `SparseMatrix` as one row list;
`add_row` is kept for callers outside it.

`KernelComparison` is the one test every classification here goes
through: the exact kernel of a window's constraint matrix against the span
of the classified family, compared on the coordinates the window cannot
clip.  A system solved in fewer unknowns, as the biderivations are through
the window derivation kernel, hands it the lift of its kernel to the
window's columns.

The independent cross-check for kernel dimensions, `kernel_dimension_modp`,
is a sparse integer elimination that decides the rank over three primes in
one pass modulo their product, rows shortest first so that pivot tails stay
short (a rank does not depend on row order).  It shares only the
support-level forced pass with `_Rref`'s eliminations: its arithmetic, its
forcing check and its elimination are its own.  The package needs nothing
beyond the standard library.
"""
from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from typing import Any, Callable, Container, DefaultDict, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .algebra import exact

SparseVec = Dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec_bump(row: SparseVec, col: int, c: Fraction) -> None:
    """In-place row[col] += c for a nonzero c, dropping the entry if it cancels."""
    old = row.get(col)
    if old is None:
        row[col] = c
        return
    nv = old + c
    if nv:
        row[col] = nv
    else:
        del row[col]


def vec_add_scaled(target: SparseVec, src: SparseVec, c: Fraction) -> None:
    """In-place target += c * src, dropping entries that cancel."""
    if not c:
        return
    for k, x in src.items():
        nv = target.get(k, _ZERO) + c * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


_EXACT_TYPES = {Fraction, int}


def _refuse_inexact(rows: Sequence[SparseVec], refuse_zeros: bool = True) -> None:
    """The entry check where rows enter: `algebra.exact`'s TypeError for an
    entry it refuses, then ZeroDivisionError for a stored zero unless zeros
    are allowed.  A class test over all entries runs first, and `exact`
    only on a miss; each test is one pass over every row's values."""
    if not _EXACT_TYPES.issuperset(map(type, chain.from_iterable(map(dict.values, rows)))):
        for x in chain.from_iterable(map(dict.values, rows)):
            exact(x)
    if refuse_zeros and not all(chain.from_iterable(map(dict.values, rows))):
        i = next(i for i, row in enumerate(rows) if not all(row.values()))
        raise ZeroDivisionError(f"row {i} stores a zero")


def _denominators(rows: Sequence[SparseVec]) -> Set[int]:
    """The denominators of the rows' entries; `_refuse_inexact` refuses one without."""
    try:
        return {x.denominator for row in rows for x in row.values()}
    except AttributeError:
        _refuse_inexact(rows)
        raise


def _refuse_out_of_range(rows: Iterable[SparseVec], col_count: int) -> None:
    cols = set(chain.from_iterable(rows))
    if cols and (min(cols) < 0 or max(cols) >= col_count):
        raise ValueError("row entry outside column range")


@dataclass
class SparseMatrix:
    """Row-sparse rational matrix with a non-negative int column count.  Its
    rows are checked by `_refuse_inexact`, then for a column out of range;
    `add_row` drops zeros instead of refusing them."""

    col_count: int
    rows: List[SparseVec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.col_count, int) or isinstance(self.col_count, bool):
            raise TypeError(f"column count {self.col_count!r} is not an int")
        if self.col_count < 0:
            raise ValueError(f"column count {self.col_count} is negative")
        _refuse_inexact(self.rows)
        _refuse_out_of_range(self.rows, self.col_count)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def add_row(self, row: SparseVec) -> None:
        """Append a row, stripping explicit zeros (all-zero rows are kept)."""
        _refuse_inexact((row,), refuse_zeros=False)
        clean = {c: v for c, v in row.items() if v}
        _refuse_out_of_range((clean,), self.col_count)
        self.rows.append(clean)

    def multiply(self, v: SparseVec) -> List[Fraction]:
        out = []
        for row in self.rows:
            acc = _ZERO
            for c, x in row.items():
                xv = v.get(c)
                if xv is not None:
                    acc += x * xv
            out.append(acc)
        return out


def _reduce(v: SparseVec, by_lead: Dict[int, SparseVec], p: int = 0) -> SparseVec:
    """Residual of v modulo a reduced echelon basis keyed by leading column,
    over the rationals, or over Z/p on residues for a prime p.  Subtracting
    v[c] times row c clears column c and no other leading column, so one
    pass over v's leading-column entries settles v.  Over the rationals, v
    is checked by `_refuse_inexact` first; residues are made by the caller."""
    if not p:
        _refuse_inexact((v,))
    work = dict(v)
    for c, x in v.items():
        row = by_lead.get(c)
        if row is not None:
            for k, y in row.items():
                nv = work.get(k, 0) - x * y
                if p:
                    nv %= p
                if nv:
                    work[k] = nv
                else:
                    work.pop(k, None)
    return work


class _Rref:
    """Incrementally maintained reduced row echelon form of a row space over
    the rationals, or over Z/p on rows of residues (``_Rref(p)``): each
    insert keeps the invariant that `_reduce` relies on.  Both fields run
    the same loops, so they make the same pivots, column index and key
    order unless p divides an entry met on the way."""

    def __init__(self, p: int = 0) -> None:
        self.p = p
        self.pivots: Dict[int, SparseVec] = {}  # leading column -> normalized row
        self._users: Dict[int, set] = {}  # column -> leads of pivot rows touching it

    def insert(self, row: SparseVec) -> Optional[int]:
        """Reduce a row into the form; returns the new pivot column or None."""
        p, pivots = self.p, self.pivots
        work = _reduce(row, pivots, p)
        if not work:
            return None
        c = min(work)
        inv = pow(work[c], -1, p) if p else _ONE / work[c]
        if inv != 1:
            work = {k: inv * v % p for k, v in work.items()} if p else {k: inv * v for k, v in work.items()}
        users = self._users
        # back-substitute at column c: each such pivot row changes at work's columns only
        for lead in users.pop(c, ()):
            old = pivots[lead]
            f = old[c]
            for k, y in work.items():
                nv = old.get(k, 0) - f * y
                if p:
                    nv %= p
                if nv:
                    old[k] = nv
                else:
                    old.pop(k, None)
            for k in work:
                if k in old:
                    users.setdefault(k, set()).add(lead)
                elif k in users:  # column c itself was popped above
                    users[k].discard(lead)
        pivots[c] = work
        for k in work:
            users.setdefault(k, set()).add(c)
        return c


# modulus of the kernel's modular elimination, the Mersenne prime 2^61 - 1,
# and Wang's bound on the numerators and denominators read back from it
_P = (1 << 61) - 1
_HALF_ROOT = isqrt(_P // 2)


@dataclass(frozen=True)
class SpanBasis:
    """Reduced-echelon basis of a subspace of QQ^col_count.

    Rows are sorted by leading column; each leading entry is 1 and is the
    only nonzero entry of the span basis in its column.  This form is unique
    for the subspace, so two equal subspaces produce identical objects.
    """

    col_count: int
    vectors: Tuple[SparseVec, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def _by_lead(self) -> Dict[int, SparseVec]:
        return {min(row): row for row in self.vectors}

    def reduce(self, v: SparseVec) -> SparseVec:
        return _reduce(v, self._by_lead())

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def contains_all(self, vs: Iterable[SparseVec]) -> bool:
        by_lead = self._by_lead()
        return all(not _reduce(v, by_lead) for v in vs)


def _forced_columns(rows: Sequence[SparseVec]) -> Tuple[Dict[int, int], List[int]]:
    """Columns that single-entry rows force to zero, read from the supports
    by the worklist of the module docstring.  Returns each forced column
    with the index of the row that forced it, and each row's count of
    unforced columns, which is zero or at least two once no forcing is
    left.  The forcing entries form a triangle: ordered by forcing time,
    each forcing row is zero on every column forced after its own.
    """
    live = [len(row) for row in rows]
    rows_at: DefaultDict[int, List[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        for c in row:
            rows_at[c].append(i)
    todo = [i for i, n in enumerate(live) if n == 1]
    forced: Dict[int, int] = {}
    while todo:
        i = todo.pop()
        if live[i] != 1:  # its last unforced column was forced by another row
            continue
        for c in rows[i]:
            if c not in forced:
                break
        forced[c] = i
        for j in rows_at[c]:
            live[j] -= 1
            if live[j] == 1:
                todo.append(j)
    return forced, live


def _presolve(rows: Sequence[SparseVec]) -> Tuple[Dict[int, int], List[int]]:
    """`_forced_columns`, refusing an entry of a row left with no live
    column, forcing or settled, as `_refuse_inexact` does, and a stored
    zero at a forcing entry as a zero pivot would be."""
    forced, live = _forced_columns(rows)
    _refuse_inexact([row for row, n in zip(rows, live) if not n], refuse_zeros=False)
    forcing = {c: rows[i][c] for c, i in forced.items()}
    if not all(forcing.values()):
        raise ZeroDivisionError("a forcing entry is a stored zero")
    return forced, live


def _eliminate(
    rows: Sequence[SparseVec], presolved: Optional[Tuple[Dict[int, int], List[int]]] = None
) -> Tuple[Dict[int, int], _Rref]:
    """Forced-zero columns of a homogeneous system, and the RREF of the rest.

    The columns `_presolve` settles (or ``presolved``, its result on these
    rows) vanish on every solution; the remaining rows, restricted to their
    unforced columns, are eliminated exactly.  The solutions of the system
    are the vectors vanishing on the forced columns whose other columns
    solve the restricted rows, and its rank is the number of forced columns
    plus the number of pivots; its row space is spanned by the forced
    columns' unit vectors and the pivot rows.
    """
    forced, live = _presolve(rows) if presolved is None else presolved
    rr = _Rref()
    for row in _live_rows(rows, forced, live):
        rr.insert(row)
    return forced, rr


def _live_rows(rows: Sequence[SparseVec], forced: Container[int], live: Sequence[int]) -> Iterable[SparseVec]:
    """The rows with two or more unforced columns, restricted to those columns."""
    for row, n in zip(rows, live):
        if n > 1:
            yield row if n == len(row) else {c: x for c, x in row.items() if c not in forced}


def span_basis(vectors: Iterable[SparseVec], col_count: int) -> SpanBasis:
    """Canonical reduced-echelon basis of the span of the given vectors:
    the forced columns' unit vectors and `_eliminate`'s pivot rows, which
    vanish on the forced columns.  Vectors are checked as matrix rows are."""
    vectors = list(vectors)
    _refuse_inexact(vectors)
    _refuse_out_of_range(vectors, col_count)
    forced, rr = _eliminate(vectors)
    by_lead: Dict[int, SparseVec] = {c: {c: _ONE} for c in forced}
    by_lead.update(rr.pivots)
    return SpanBasis(col_count=col_count, vectors=tuple(by_lead[c] for c in sorted(by_lead)))


def rank(m: SparseMatrix) -> int:
    """Rank of m: its forced-zero columns plus the pivots of the rest."""
    forced, rr = _eliminate(m.rows)
    return len(forced) + len(rr.pivots)


def _kernel_vectors(
    col_count: int, forced: Container[int], rr: _Rref, entry: Callable[[Any], Optional[Fraction]]
) -> Optional[List[SparseVec]]:
    """For each column f neither forced nor a pivot of rr, in ascending
    order, v_f = {f: 1} plus entry(pivots[lead][f]) at each lead of a pivot
    row touching f; None as soon as an entry is None."""
    pivots, users = rr.pivots, rr._users
    out = []
    for f in range(col_count):
        if f in pivots or f in forced:
            continue
        v: SparseVec = {f: _ONE}
        for lead in users.get(f, ()):
            x = entry(pivots[lead][f])
            if x is None:
                return None
            v[lead] = x
        out.append(v)
    return out


def _negated_rational(r: int) -> Optional[Fraction]:
    """Rational reconstruction of -r mod _P: the fraction n/d with
    |n|, d <= _HALF_ROOT and n = -r d mod _P, or None when there is none
    (P. S. Wang, M. J. T. Guy and J. H. Davenport, *P-adic reconstruction
    of rational numbers*, SIGSAM Bulletin 16, 1982).  There is at most
    one such fraction, read off the extended Euclidean remainders of _P
    and -r at the first one not above the bound."""
    r0, r1, t0, t1 = _P, _P - r, 0, 1
    while r1 > _HALF_ROOT:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _HALF_ROOT or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_kernel(
    rows: Sequence[SparseVec], forced: Container[int], live: Sequence[int], col_count: int
) -> Optional[List[SparseVec]]:
    """The vectors `kernel_basis` builds, computed from one RREF mod _P and
    proven exactly, or None when reconstruction or the proof fails.

    The live rows, scaled by the lcm of their denominators, are integer
    rows with the same kernel.  Their residues go through `_Rref(_P)`, and
    each kernel entry is rebuilt by `_negated_rational`.  Each vector,
    scaled to integers, must then annihilate every integer row, read
    through a column -> (row, entry) index.
    """
    kept = list(_live_rows(rows, forced, live))
    scale = lcm(*_denominators(kept))
    at: DefaultDict[int, List[Tuple[int, int]]] = defaultdict(list)  # column -> (row, integer entry)
    rr = _Rref(_P)
    for i, row in enumerate(kept):
        residues = {}
        for c, x in row.items():
            a = x.numerator * (scale // x.denominator)
            at[c].append((i, a))
            r = a % _P
            if r:
                residues[c] = r
            elif not a:
                raise ZeroDivisionError(f"live row {i} stores a zero")
        rr.insert(residues)
    vecs = _kernel_vectors(col_count, forced, rr, _negated_rational)
    if vecs is None:
        return None
    for v in vecs:
        den = lcm(*{x.denominator for x in v.values()})
        acc: DefaultDict[int, int] = defaultdict(int)
        for c, x in v.items():
            w = x.numerator * (den // x.denominator)
            for i, a in at.get(c, ()):
                acc[i] += a * w
        if any(acc.values()):
            return None
    return vecs


def kernel_basis(m: SparseMatrix) -> SpanBasis:
    """Reduced-echelon basis of {v : m v = 0}, proven exactly.

    Single-entry rows are settled first (`_presolve`): every kernel vector
    is zero on a forced column, so the kernel is built from the columns
    that are neither forced nor pivots of the remaining rows' RREF, one
    vector v_f per such column f.  That RREF is computed mod _P and its
    entries are reconstructed as rationals (`_modular_kernel`); the v_f are
    then proven to span the kernel:

    - each v_f, scaled to integers, annihilates every live row exactly;
      it is zero on the forced columns, and a row with no live column
      touches only forced columns, so v_f annihilates all of m;
    - the v_f are independent, each with a 1 at its own column f and 0 at
      the others, and there are as many as the kernel dimension mod _P,
      which is at least the rational one.

    If reconstruction or the check fails, the same vectors are computed by
    exact elimination (`_eliminate`, reusing the forced pass), so no result
    depends on _P.  The vectors are finally re-reduced to their canonical
    echelon form.  That form is unique for the subspace, so they are
    exactly those of a plain elimination over every row, and re-running
    the reduction on the output changes nothing.
    """
    forced, live = _presolve(m.rows)
    vecs = _modular_kernel(m.rows, forced, live, m.col_count)
    if vecs is None:
        _, rr = _eliminate(m.rows, (forced, live))
        vecs = _kernel_vectors(m.col_count, forced, rr, operator.neg)
    return span_basis(vecs, m.col_count)


def vanishing_combinations(vectors: Sequence[SparseVec], group: Callable[[int], Any]) -> List[SparseVec]:
    """Basis of the part of span(vectors) whose entries sum to zero over
    each group of columns: column c lies in group ``group(c)``, and a group
    of None leaves the column free.  It is sum_i k_i * vectors[i] for each
    k of the canonical kernel basis of the group sums, whose rows are taken
    in ascending group order, so even the key order of the result is fixed."""
    sums: Dict[Any, SparseVec] = {}
    for i, v in enumerate(vectors):
        for c, x in v.items():
            key = group(c)
            if key is not None:
                vec_bump(sums.setdefault(key, {}), i, x)
    out: List[SparseVec] = []
    for k in kernel_basis(SparseMatrix(len(vectors), [sums[key] for key in sorted(sums)])).vectors:
        v: SparseVec = {}
        for i, x in k.items():
            vec_add_scaled(v, vectors[i], x)
        out.append(v)
    return out


def solve_linear(m: SparseMatrix, rhs: Sequence[Fraction]) -> Optional[SparseVec]:
    """One exact solution of m x = rhs with free variables set to 0.

    The solutions are the kernel vectors of the homogeneous [m | -rhs]
    with last entry 1, so `_eliminate` presolves it safely: a single-entry
    row with rhs b != 0 has two entries once augmented, and one with b = 0
    does force its column to zero.  Returns None when the system is
    inconsistent (the augmented column is forced or a pivot).
    """
    _refuse_inexact((dict(enumerate(rhs)),), refuse_zeros=False)
    if len(rhs) != m.row_count:
        raise ValueError("rhs length must match row count")
    aug = m.col_count  # extra column carrying -rhs
    forced, rr = _eliminate([{**row, aug: -b} if b else row for row, b in zip(m.rows, rhs)])
    if aug in forced or aug in rr.pivots:
        return None
    return {lead: -prow[aug] for lead, prow in rr.pivots.items() if aug in prow}


def project_columns(v: SparseVec, cols: Set[int]) -> SparseVec:
    return {c: x for c, x in v.items() if c in cols}


@dataclass(frozen=True)
class KernelComparison:
    """Exact kernel of a constraint matrix versus a classified spanning set.

    ``coords`` is the column layout of the kernel, which is that of the
    matrix unless ``of`` was given a lift: it has ``col_count`` and
    ``interior_columns()``, the coordinates where window encodings of
    genuine solutions are exact.  The classification is confirmed on the
    window when every predicted vector lies in the kernel and the kernel
    and the predicted span project to the same subspace of the interior.
    Both projected spans are canonical reduced bases, so the interior
    match is literal equality of their vectors; ``mutual_membership``
    checks the two inclusions separately.
    """

    coords: Any
    matrix: SparseMatrix
    kernel: SpanBasis
    predicted_vectors: List[SparseVec]
    predicted_in_kernel: bool
    interior_kernel: SpanBasis
    interior_predicted: SpanBasis
    mutual_membership: Tuple[bool, bool]

    @classmethod
    def of(
        cls,
        coords: Any,
        m: SparseMatrix,
        predicted: List[SparseVec],
        lift: Optional[Callable[[Sequence[SparseVec]], Iterable[SparseVec]]] = None,
        **extra: Any,
    ):
        """Solve m exactly and compare its kernel with the span of predicted;
        ``extra`` fills the fields a subclass adds.

        When m is solved in other unknowns than ``coords``' columns, ``lift``
        maps its kernel vectors to those columns, injectively; the images
        are re-reduced by `span_basis`, so ``kernel`` is the canonical basis
        of the lifted kernel, as if the system had been solved on ``coords``.
        """
        kernel = kernel_basis(m)
        if lift is not None:
            kernel = span_basis(lift(kernel.vectors), coords.col_count)
        cols = coords.interior_columns()
        ik = span_basis((project_columns(v, cols) for v in kernel.vectors), coords.col_count)
        ip = span_basis((project_columns(v, cols) for v in predicted), coords.col_count)
        return cls(
            coords=coords,
            matrix=m,
            kernel=kernel,
            predicted_vectors=predicted,
            predicted_in_kernel=kernel.contains_all(predicted),
            interior_kernel=ik,
            interior_predicted=ip,
            mutual_membership=(ip.contains_all(ik.vectors), ik.contains_all(ip.vectors)),
            **extra,
        )

    @property
    def kernel_dimension(self) -> int:
        return self.kernel.dimension

    @property
    def interior_kernel_dimension(self) -> int:
        return self.interior_kernel.dimension

    @property
    def interior_predicted_dimension(self) -> int:
        return self.interior_predicted.dimension

    @property
    def interior_match(self) -> bool:
        return self.interior_kernel.vectors == self.interior_predicted.vectors

    @property
    def confirmed(self) -> bool:
        return self.predicted_in_kernel and self.interior_match and all(self.mutual_membership)


# -- independent cross-check -----------------------------------------------

_PRIMES = (1_000_003, 1_000_033, 1_000_037)


def _column_components(m: SparseMatrix) -> Tuple[Dict[int, List[int]], Dict[int, List[SparseVec]]]:
    """Partition columns into connected components under shared rows.

    Two columns are connected when some row touches both.  Returns
    (root -> sorted column list, root -> rows living in that component);
    empty rows belong to no component.  No solver uses it; the benchmark's
    self-test counts blocks with it.
    """
    parent = list(range(m.col_count))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for row in m.rows:
        it = iter(row)
        first = next(it, None)
        if first is None:
            continue
        ra = find(first)
        for c in it:
            rb = find(c)
            if rb != ra:
                parent[rb] = ra
    cols_by_root: Dict[int, List[int]] = {}
    for c in range(m.col_count):
        cols_by_root.setdefault(find(c), []).append(c)
    rows_by_root: Dict[int, List[SparseVec]] = {}
    for row in m.rows:
        if row:
            rows_by_root.setdefault(find(next(iter(row))), []).append(row)
    return cols_by_root, rows_by_root


def _rank_mod(rows: List[Dict[int, int]], q: int) -> Optional[int]:
    """Rank over Z/q of integer rows by sparse row echelon elimination.

    Each pivot row is stored scaled to leading entry 1, without that
    entry.  A row is reduced at its leading column until it vanishes or
    leads at a new column, where it becomes a pivot row.  Only the rank is
    needed, so nothing is back-substituted, and rows go shortest first:
    pivot tails stay short, so a redundant row cancels in a few steps
    (the row half of H. M. Markowitz's pivot rule, Management Science 3,
    1957), and the rank does not depend on the order.  Returns None as
    soon as a leading entry is not a unit mod q.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in sorted(rows, key=len):
        work = dict(row)
        while work:
            lead = min(work)
            tail = pivots.get(lead)
            if tail is None:
                if gcd(work[lead], q) != 1:
                    return None
                inv = pow(work.pop(lead), -1, q)
                pivots[lead] = {c: x * inv % q for c, x in work.items()}
                break
            f = work.pop(lead)
            for c, x in tail.items():
                nv = (work.get(c, 0) - f * x) % q
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return len(pivots)


def kernel_dimension_modp(m: SparseMatrix) -> int:
    """Kernel dimension over GF(p) for each prime p of ``_PRIMES``, which
    must all agree.

    The single-entry rows are settled first by `_forced_columns`, on the
    rational rows.  Ordered by forcing time, the forcing rows are zero on
    the unforced columns and triangular on the forced ones, with the
    forcing entries on the diagonal.  If each forcing entry is a unit mod
    q, the product of the primes, that triangle is invertible over every
    GF(p): the forcing rows span every vector on the forced columns, the
    rows with no unforced column add nothing, and the rank over each prime
    is the number of forced columns plus the rank of the other rows
    restricted to the unforced columns.  Only those rows are converted and
    eliminated, once, over Z/q.  While every pivot is a unit mod q, Z/q is
    GF(p1) x GF(p2) x ... and each elimination step is one over every
    GF(p) at once, so the pivot count is the exact rank over each prime.
    If a forcing entry or a leading entry is not a unit, every row is
    eliminated once per prime instead.  A disagreement, or a prime dividing
    a denominator (the smallest is named), raises.

    Rank over GF(p) never exceeds the rational rank, so agreement with an
    exact kernel basis whose vectors were verified against the matrix
    certifies the rational kernel dimension outright.
    """
    q = prod(_PRIMES)
    forced, live = _forced_columns(m.rows)
    inverses = {d: pow(d, -1, q) if gcd(d, q) == 1 else None for d in _denominators(m.rows)}
    if None in inverses.values():
        p = min(p for p in _PRIMES for d in inverses if d % p == 0)
        raise ArithmeticError(f"prime {p} divides a denominator")

    def residues(row: SparseVec, skip: Container[int]) -> Dict[int, int]:
        out = {}
        for c, v in row.items():
            if c not in skip:
                x = v.numerator * inverses[v.denominator] % q
                if x:
                    out[c] = x
                elif not v:
                    raise ZeroDivisionError("a row stores a zero")
        return out

    if all(gcd(m.rows[i][c].numerator, q) == 1 for c, i in forced.items()):
        rank_q = _rank_mod([residues(row, forced) for row, n in zip(m.rows, live) if n > 1], q)
        if rank_q is not None:
            return m.col_count - len(forced) - rank_q
    rows = [residues(row, ()) for row in m.rows]
    dims = []
    for p in _PRIMES:
        rows_p = [{c: x % p for c, x in row.items() if x % p} for row in rows]
        dims.append(m.col_count - _rank_mod(rows_p, p))
    if len(set(dims)) != 1:
        raise ArithmeticError(f"mod-p eliminations disagree: {dims}")
    return dims[0]


# the earlier name, imported by the benchmark
kernel_dimension_dense_modp = kernel_dimension_modp
