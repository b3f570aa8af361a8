"""Windowed coefficient-recurrence systems behind the classification.

Four exact linear systems over doubly indexed rational families (written
here as name[m; i] for superscript m, subscript i) and, in the third one,
four scalar functionals indexed by m.  Each solver builds every admissible
in-window constraint row, computes the exact kernel, and compares its
interior restriction against the closed-form solution family.

All indices here are plain integers; the parity parameter plays no role.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .linalg import SparseMatrix, SparseVec, SpanBasis, kernel_basis, span_basis
from .operators import project_columns
from .windows import Window

# ("fam", name, m, i) for grid entries, ("func", name, m) for functionals
Label = Tuple

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GridCoords:
    """Column layout: one (2N+1) x (2N+1) block per family name, then one
    (2N+1) block per functional name."""

    radius: int
    families: Tuple[str, ...]
    functionals: Tuple[str, ...] = ()

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def col_count(self) -> int:
        return len(self.families) * self.side ** 2 + len(self.functionals) * self.side

    def in_window(self, i: int) -> bool:
        return abs(i) <= self.radius

    def family_col(self, name: str, m: int, i: int) -> int:
        side = self.side
        fi = self.families.index(name)
        return fi * side * side + (m + self.radius) * side + (i + self.radius)

    def functional_col(self, name: str, m: int) -> int:
        side = self.side
        base = len(self.families) * side * side
        return base + self.functionals.index(name) * side + (m + self.radius)

    def at(self, col: int) -> Label:
        side = self.side
        grid = len(self.families) * side * side
        if col < grid:
            fi, rest = divmod(col, side * side)
            m, i = divmod(rest, side)
            return ("fam", self.families[fi], m - self.radius, i - self.radius)
        col -= grid
        fi, m = divmod(col, side)
        return ("func", self.functionals[fi], m - self.radius)

    def interior_columns(self) -> Set[int]:
        """Coordinates never clipped by the window: superscript in the
        interior and subscript within shift budget N - r of it."""
        r = self.radius // 2
        budget = self.radius - r
        cols: Set[int] = set()
        for name in self.families:
            for m in range(-r, r + 1):
                for i in range(m - budget, m + budget + 1):
                    if self.in_window(i):
                        cols.add(self.family_col(name, m, i))
        for name in self.functionals:
            for m in range(-r, r + 1):
                cols.add(self.functional_col(name, m))
        return cols

    def encode(
        self,
        family_entries: Dict[Tuple[str, int, int], Fraction],
        functional_entries: Dict[Tuple[str, int], Fraction] = {},
    ) -> SparseVec:
        v: SparseVec = {}
        for (name, m, i), c in family_entries.items():
            if c:
                v[self.family_col(name, m, i)] = Fraction(c)
        for (name, m), c in functional_entries.items():
            if c:
                v[self.functional_col(name, m)] = Fraction(c)
        return v


@dataclass
class PropositionReport:
    """Structured verdict: exact kernel versus the closed-form family."""

    coords: GridCoords
    matrix: SparseMatrix
    row_labels: List[Label]
    kernel: SpanBasis
    predicted_vectors: List[SparseVec]
    predicted_in_kernel: bool
    interior_kernel: SpanBasis
    interior_predicted: SpanBasis
    free_directions: List[Label]

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
    def mutual_membership(self) -> Tuple[bool, bool]:
        return (
            self.interior_predicted.contains_all(self.interior_kernel.vectors),
            self.interior_kernel.contains_all(self.interior_predicted.vectors),
        )


def _finish(
    coords: GridCoords,
    m: SparseMatrix,
    labels: List[Label],
    predicted: List[SparseVec],
    free_dirs: List[Label],
) -> Tuple[SpanBasis, PropositionReport]:
    kernel = kernel_basis(m)
    inside = all(kernel.contains(v) for v in predicted)
    cols = coords.interior_columns()
    ik = span_basis((project_columns(v, cols) for v in kernel.vectors), coords.col_count)
    ip = span_basis((project_columns(v, cols) for v in predicted), coords.col_count)
    report = PropositionReport(
        coords=coords,
        matrix=m,
        row_labels=labels,
        kernel=kernel,
        predicted_vectors=predicted,
        predicted_in_kernel=inside,
        interior_kernel=ik,
        interior_predicted=ip,
        free_directions=free_dirs,
    )
    return kernel, report


def representable_grid_shifts(w_radius: int) -> List[int]:
    """Shifts i - m fully visible on interior superscripts."""
    budget = w_radius - w_radius // 2
    return list(range(-budget, budget + 1))


def prop1_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """System (i-n)*k[m; i] = (2m-n-i)*h[n; n-m+i] over all in-window
    (m, n, i) with n-m+i in-window.  Solution family: k[m; i] = h[m; i] =
    delta(m, i) * lam, one free parameter."""
    if w.radius < 2:
        raise ValueError("window radius must be >= 2")
    w_radius = w.radius
    coords = GridCoords(w_radius, ("k", "h"))
    m_ = SparseMatrix(coords.col_count)
    labels: List[Label] = []
    rng = range(-w_radius, w_radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                j = n - m + i
                if not coords.in_window(j):
                    continue
                row: SparseVec = {}
                c1 = Fraction(i - n)
                if c1:
                    row[coords.family_col("k", m, i)] = c1
                c2 = Fraction(2 * m - n - i)
                if c2:
                    col = coords.family_col("h", n, j)
                    row[col] = row.get(col, Fraction(0)) - c2
                    if not row[col]:
                        del row[col]
                m_.add_row(row)
                labels.append(("eq", m, n, i))
    delta = coords.encode(
        {("k", t, t): Fraction(1) for t in rng} | {("h", t, t): Fraction(1) for t in rng}
    )
    return _finish(coords, m_, labels, [delta], [])


def prop2_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """System (i-n/2)*t[m; i] = (3m/2-n-i)*g[n; n-m+i]; the only solution
    is zero, so the interior kernel must vanish."""
    if w.radius < 3:
        raise ValueError("window radius must be >= 3")
    w_radius = w.radius
    coords = GridCoords(w_radius, ("t", "g"))
    m_ = SparseMatrix(coords.col_count)
    labels: List[Label] = []
    rng = range(-w_radius, w_radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                j = n - m + i
                if not coords.in_window(j):
                    continue
                row: SparseVec = {}
                c1 = i - Fraction(n, 2)
                if c1:
                    row[coords.family_col("t", m, i)] = c1
                c2 = Fraction(3 * m, 2) - n - i
                if c2:
                    col = coords.family_col("g", n, j)
                    row[col] = row.get(col, Fraction(0)) - c2
                    if not row[col]:
                        del row[col]
                m_.add_row(row)
                labels.append(("eq", m, n, i))
    return _finish(coords, m_, labels, [], [])


def prop3_spike(coords: GridCoords, k: int) -> SparseVec:
    """Window encoding of the closed-form family for a single shift k with
    coefficient 1: s[m; m+k] = 1/(m+k) = -e[m; m+k] away from subscript 0,
    rho1 and theta1 pick up 1 at m = -k, rho2 = theta2 = 0."""
    fam: Dict[Tuple[str, int, int], Fraction] = {}
    fun: Dict[Tuple[str, int], Fraction] = {}
    n = coords.radius
    for m in range(-n, n + 1):
        i = m + k
        if m + k != 0 and coords.in_window(i):
            fam[("s", m, i)] = Fraction(1, m + k)
            fam[("e", m, i)] = Fraction(-1, m + k)
    if coords.in_window(-k):
        fun[("rho1", -k)] = Fraction(1)
        fun[("theta1", -k)] = Fraction(1)
    return coords.encode(fam, fun)


def prop3_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """Joint system over s, e and the four functionals:

        i*s[m; i] = -(n-m+i)*e[n; n-m+i]      for i not in {0, m-n}
        rho1(m) + n*rho2(m) = -(n-m)*e[n; n-m]   for m != n
        theta1(n) + m*theta2(n) = (m-n)*s[m; m-n] for m != n

    The first family of rows leaves every subscript-0 entry untouched, so
    s[m; 0] and e[m; 0] are genuine free directions of the kernel on top
    of the shift family; both are reported.
    """
    if w.radius < 3:
        raise ValueError("window radius must be >= 3")
    w_radius = w.radius
    coords = GridCoords(w_radius, ("s", "e"), ("rho1", "rho2", "theta1", "theta2"))
    m_ = SparseMatrix(coords.col_count)
    labels: List[Label] = []
    rng = range(-w_radius, w_radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                if i == 0 or i == m - n:
                    continue
                j = n - m + i
                if not coords.in_window(j):
                    continue
                row: SparseVec = {coords.family_col("s", m, i): Fraction(i)}
                col = coords.family_col("e", n, j)
                row[col] = row.get(col, Fraction(0)) + j
                if not row[col]:
                    del row[col]
                m_.add_row(row)
                labels.append(("eq-s-e", m, n, i))
    for m in rng:
        for n in rng:
            if m == n or not coords.in_window(n - m):
                continue
            row = {
                coords.functional_col("rho1", m): Fraction(1),
                coords.family_col("e", n, n - m): Fraction(n - m),
            }
            if n:
                row[coords.functional_col("rho2", m)] = Fraction(n)
            m_.add_row(row)
            labels.append(("eq-rho", m, n))
    for m in rng:
        for n in rng:
            if m == n or not coords.in_window(m - n):
                continue
            row = {
                coords.functional_col("theta1", n): Fraction(1),
                coords.family_col("s", m, m - n): Fraction(n - m),
            }
            if m:
                row[coords.functional_col("theta2", n)] = Fraction(m)
            m_.add_row(row)
            labels.append(("eq-theta", m, n))
    predicted: List[SparseVec] = []
    for k in range(-2 * w_radius, 2 * w_radius + 1):
        v = prop3_spike(coords, k)
        if v:
            predicted.append(v)
    free_dirs: List[Label] = []
    for name in ("s", "e"):
        for m in rng:
            predicted.append(coords.encode({(name, m, 0): Fraction(1)}))
            free_dirs.append(("fam", name, m, 0))
    return _finish(coords, m_, labels, predicted, free_dirs)


def prop4_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """System (m/2 - i)*q[n; i] = 0 for i != n and i != m-n; only the
    diagonal q[n; n] survives."""
    if w.radius < 3:
        raise ValueError("window radius must be >= 3")
    w_radius = w.radius
    coords = GridCoords(w_radius, ("q",))
    m_ = SparseMatrix(coords.col_count)
    labels: List[Label] = []
    rng = range(-w_radius, w_radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                if i == n or i == m - n:
                    continue
                c = Fraction(m, 2) - i
                if not c:
                    continue
                m_.add_row({coords.family_col("q", n, i): c})
                labels.append(("eq", m, n, i))
    predicted = [coords.encode({("q", n, n): Fraction(1)}) for n in rng]
    free_dirs: List[Label] = [("fam", "q", n, n) for n in rng]
    return _finish(coords, m_, labels, predicted, free_dirs)


def solve_all_propositions(w: Window) -> List[Tuple[str, PropositionReport]]:
    out = []
    for name, solver in (
        ("prop1", prop1_solve),
        ("prop2", prop2_solve),
        ("prop3", prop3_solve),
        ("prop4", prop4_solve),
    ):
        _, report = solver(w)
        out.append((name, report))
    return out
