"""Exact sparse linear algebra over the rationals.

Vectors are sparse ``{column: Fraction}`` dicts with no stored zeros.
Everything is computed by pivoted exact Gaussian elimination over
``fractions.Fraction``; the reduced echelon form of a row space is unique
for a fixed column order, so every result here is deterministic and
independent of row insertion order.

Before `kernel_basis` and `rank` eliminate, they settle single-entry rows.
A row with one live column forces that column to zero, which may leave
other rows with one live column in turn; a worklist over a column -> rows
index follows these cascades in time linear in the nonzeros (the first
step of sparse presolve: E. D. Andersen and K. D. Andersen, *Presolving in
linear programming*, Math. Programming 71, 1995).  Only rows with two or
more live columns reach the elimination.  A forced column is zero on
every kernel vector and the kernel basis is the unique canonical RREF of
the kernel, so the result is exactly that of eliminating every row.

`KernelComparison` is the one test every classification here goes
through: the exact kernel of a window's constraint matrix against the span
of the classified family, compared on the coordinates the window cannot
clip.

The independent cross-check for kernel dimensions is a sparse integer
elimination that decides the rank over three primes in one pass modulo
their product.  It shares no code with the exact elimination, and the
package needs nothing beyond the standard library.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


@dataclass
class SparseMatrix:
    """Row-sparse rational matrix with a fixed column count."""

    col_count: int
    rows: List[SparseVec] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def add_row(self, row: SparseVec) -> None:
        """Append a row, stripping explicit zeros (all-zero rows are kept)."""
        clean = {c: v for c, v in row.items() if v}
        if clean and (min(clean) < 0 or max(clean) >= self.col_count):
            raise ValueError("row entry outside column range")
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


class _Rref:
    """Incrementally maintained reduced row echelon form of a row space."""

    def __init__(self) -> None:
        self.pivots: Dict[int, SparseVec] = {}  # leading column -> normalized row
        self._users: Dict[int, set] = {}  # column -> leads of pivot rows touching it

    def _register(self, lead: int, row: SparseVec) -> None:
        self.pivots[lead] = row
        for c in row:
            self._users.setdefault(c, set()).add(lead)

    def _unregister(self, lead: int, row: SparseVec) -> None:
        for c in row:
            users = self._users.get(c)
            if users is not None:
                users.discard(lead)

    def insert(self, row: SparseVec) -> Optional[int]:
        """Reduce a row into the form; returns the new pivot column or None."""
        work = self.reduce(row)
        if not work:
            return None
        c = min(work)
        inv = _ONE / work[c]
        if inv != 1:
            work = {k: inv * v for k, v in work.items()}
        # back-substitute into every pivot row containing column c
        for lead in list(self._users.get(c, ())):
            old = self.pivots[lead]
            self._unregister(lead, old)
            vec_add_scaled(old, work, -old[c])
            self._register(lead, old)
        self._register(c, work)
        return c

    def reduce(self, v: SparseVec) -> SparseVec:
        """Residual of v modulo the current row space.

        Every pivot-column entry must be cleared, not just leading ones:
        a row can hit pivot columns beyond its first free column.  Each
        subtraction only introduces entries at free columns, so one pass
        over the hits (rechecked once) settles the residual.
        """
        work = dict(v)
        while True:
            hits = sorted(c for c in work if c in self.pivots)
            if not hits:
                return work
            for c in hits:
                cur = work.get(c)
                if cur:
                    vec_add_scaled(work, self.pivots[c], -cur)

    def sorted_rows(self) -> List[SparseVec]:
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]


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

    def reduce(self, v: SparseVec) -> SparseVec:
        work = dict(v)
        by_lead = {min(row): row for row in self.vectors}
        while True:
            hits = sorted(c for c in work if c in by_lead)
            if not hits:
                return work
            for c in hits:
                cur = work.get(c)
                if cur:
                    vec_add_scaled(work, by_lead[c], -cur)

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def contains_all(self, vs: Iterable[SparseVec]) -> bool:
        return all(self.contains(v) for v in vs)


def span_basis(vectors: Iterable[SparseVec], col_count: int) -> SpanBasis:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    rr = _Rref()
    for v in vectors:
        rr.insert(v)
    return SpanBasis(col_count=col_count, vectors=tuple(rr.sorted_rows()))


def _eliminate(rows: Sequence[SparseVec]) -> Tuple[Set[int], _Rref]:
    """Forced-zero columns of a homogeneous system, and the RREF of the rest.

    A row with exactly one column not yet forced forces that column to
    zero.  Once no such row is left, every row keeps zero or at least two
    unforced columns; those with two or more, restricted to their
    unforced columns, are eliminated exactly.  The solutions of the system
    are the vectors vanishing on the forced columns whose other columns
    solve the restricted rows, and its rank is the number of forced
    columns plus the number of pivots.  A single-entry row of an
    inhomogeneous system fixes a value, not a zero, so `solve_linear`
    does not use this.
    """
    live = [len(row) for row in rows]
    rows_at: Dict[int, List[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            rows_at.setdefault(c, []).append(i)
    todo = [i for i, n in enumerate(live) if n == 1]
    forced: Set[int] = set()
    while todo:
        i = todo.pop()
        if live[i] != 1:  # its last unforced column was forced by another row
            continue
        c = next(c for c in rows[i] if c not in forced)
        forced.add(c)
        for j in rows_at[c]:
            live[j] -= 1
            if live[j] == 1:
                todo.append(j)
    rr = _Rref()
    for row, n in zip(rows, live):
        if n > 1:
            rr.insert(row if n == len(row) else {c: x for c, x in row.items() if c not in forced})
    return forced, rr


def rank(m: SparseMatrix) -> int:
    """Rank of m: its forced-zero columns plus the pivots of the rest."""
    forced, rr = _eliminate(m.rows)
    return len(forced) + len(rr.pivots)


def kernel_basis(m: SparseMatrix) -> SpanBasis:
    """Reduced-echelon basis of {v : m v = 0}.

    Single-entry rows are settled first (`_eliminate`): every kernel
    vector is zero on a forced column, so the kernel is built from the
    columns that are neither forced nor pivots of the remaining rows' RREF.
    It is then re-reduced to its own canonical echelon form.  That form is
    unique for the subspace, so the vectors are exactly those of a plain
    elimination over every row, and re-running the reduction on the
    output changes nothing.
    """
    forced, rr = _eliminate(m.rows)
    pivots = rr.pivots
    kernel_vecs = []
    for f in range(m.col_count):
        if f in pivots or f in forced:
            continue
        v: SparseVec = {f: _ONE}
        for lead in rr._users.get(f, ()):
            v[lead] = -pivots[lead][f]
        kernel_vecs.append(v)
    return span_basis(kernel_vecs, m.col_count)


def solve_linear(m: SparseMatrix, rhs: Sequence[Fraction]) -> Optional[SparseVec]:
    """One exact solution of m x = rhs with free variables set to 0.

    Returns None when the system is inconsistent.  Deterministic: the
    particular solution depends only on the row space and column order.
    """
    if len(rhs) != m.row_count:
        raise ValueError("rhs length must match row count")
    aug = m.col_count  # extra column carrying -rhs
    rr = _Rref()
    for row, b in zip(m.rows, rhs):
        work = dict(row)
        if b:
            work[aug] = -b
        rr.insert(work)
    if aug in rr.pivots:
        return None
    x: SparseVec = {}
    for lead, prow in rr.pivots.items():
        b = prow.get(aug)
        if b is not None:
            x[lead] = -b
    return x


def project_columns(v: SparseVec, cols: Set[int]) -> SparseVec:
    return {c: x for c, x in v.items() if c in cols}


@dataclass(frozen=True)
class KernelComparison:
    """Exact kernel of a constraint matrix versus a classified spanning set.

    ``coords`` is the column layout of the matrix: it has ``col_count`` and
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
    def of(cls, coords: Any, m: SparseMatrix, predicted: List[SparseVec], **extra: Any):
        """Solve m exactly and compare its kernel with the span of predicted;
        ``extra`` fills the fields a subclass adds."""
        kernel = kernel_basis(m)
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

_DEFAULT_PRIMES = (1_000_003, 1_000_033, 1_000_037)


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
    needed, so nothing is back-substituted.  Returns None as soon as a
    leading entry is not a unit mod q.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
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


def kernel_dimension_dense_modp(m: SparseMatrix, primes: Sequence[int] = _DEFAULT_PRIMES) -> int:
    """Kernel dimension over GF(p) for each prime p, which must all agree.

    The name is kept from an earlier dense implementation; the elimination
    is sparse.  It runs once over Z/q with q the product of the primes.
    While every pivot is a unit mod q, Z/q is GF(p1) x GF(p2) x ... and
    each elimination step is one over every GF(p) at once, so the pivot
    count is the exact rank over each prime.  If a leading entry is not a
    unit, the elimination is rerun once per prime.  A disagreement, or a
    prime dividing one of the denominators (the smallest such prime is
    named), raises.  Rank over GF(p) never exceeds the rational rank, so
    agreement with an exact kernel basis whose vectors were verified
    against the matrix certifies the rational kernel dimension outright.
    """
    q = prod(primes)
    inverses: Dict[int, Optional[int]] = {1: 1}
    rows: List[Dict[int, int]] = []
    for row in m.rows:
        out = {}
        for c, v in row.items():
            d = v.denominator
            if d not in inverses:
                inverses[d] = pow(d, -1, q) if gcd(d, q) == 1 else None
            inv = inverses[d]
            if inv is not None:
                x = v.numerator * inv % q
                if x:
                    out[c] = x
        if out:
            rows.append(out)
    bad = [d for d, inv in inverses.items() if inv is None]
    if bad:
        p = min(p for p in primes if any(d % p == 0 for d in bad))
        raise ArithmeticError(f"prime {p} divides a denominator")
    rank_q = _rank_mod(rows, q)
    if rank_q is not None:
        return m.col_count - rank_q
    dims = []
    for p in primes:
        rows_p = [{c: x % p for c, x in row.items() if x % p} for row in rows]
        dims.append(m.col_count - _rank_mod(rows_p, p))
    if len(set(dims)) != 1:
        raise ArithmeticError(f"mod-p eliminations disagree: {dims}")
    return dims[0]
