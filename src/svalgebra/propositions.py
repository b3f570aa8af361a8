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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .linalg import KernelComparison, SparseMatrix, SparseVec, SpanBasis
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


@dataclass(frozen=True)
class PropositionReport(KernelComparison):
    """The kernel comparison, with one label per constraint row and the
    free directions the closed-form family adds to it."""

    row_labels: List[Label]
    free_directions: List[Label]


def representable_grid_shifts(w_radius: int) -> List[int]:
    """Shifts i - m fully visible on interior superscripts."""
    budget = w_radius - w_radius // 2
    return list(range(-budget, budget + 1))


def _two_family_rows(
    coords: GridCoords,
    left: Callable[[int, int, int], Fraction],
    right: Callable[[int, int, int], Fraction],
) -> Tuple[SparseMatrix, List[Label]]:
    """Rows left(m,n,i)*a[m; i] = right(m,n,i)*b[n; n-m+i] over all
    in-window (m, n, i) with n-m+i in-window, for coords.families = (a, b)."""
    a, b = coords.families
    m_ = SparseMatrix(coords.col_count)
    labels: List[Label] = []
    rng = range(-coords.radius, coords.radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                j = n - m + i
                if not coords.in_window(j):
                    continue
                m_.add_row(
                    {
                        coords.family_col(a, m, i): left(m, n, i),
                        coords.family_col(b, n, j): -right(m, n, i),
                    }
                )
                labels.append(("eq", m, n, i))
    return m_, labels


def prop1_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """System (i-n)*k[m; i] = (2m-n-i)*h[n; n-m+i] over all in-window
    (m, n, i) with n-m+i in-window.  Solution family: k[m; i] = h[m; i] =
    delta(m, i) * lam, one free parameter."""
    if w.radius < 2:
        raise ValueError("window radius must be >= 2")
    coords = GridCoords(w.radius, ("k", "h"))
    m_, labels = _two_family_rows(
        coords, lambda m, n, i: Fraction(i - n), lambda m, n, i: Fraction(2 * m - n - i)
    )
    rng = range(-w.radius, w.radius + 1)
    delta = coords.encode(
        {("k", t, t): Fraction(1) for t in rng} | {("h", t, t): Fraction(1) for t in rng}
    )
    report = PropositionReport.of(coords, m_, [delta], row_labels=labels, free_directions=[])
    return report.kernel, report


def prop2_solve(w: Window) -> Tuple[SpanBasis, PropositionReport]:
    """System (i-n/2)*t[m; i] = (3m/2-n-i)*g[n; n-m+i]; the only solution
    is zero, so the interior kernel must vanish."""
    if w.radius < 3:
        raise ValueError("window radius must be >= 3")
    coords = GridCoords(w.radius, ("t", "g"))
    m_, labels = _two_family_rows(
        coords, lambda m, n, i: i - Fraction(n, 2), lambda m, n, i: Fraction(3 * m, 2) - n - i
    )
    report = PropositionReport.of(coords, m_, [], row_labels=labels, free_directions=[])
    return report.kernel, report


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
                # i = 0 and i = m - n (that is j = 0) are skipped: both entries are nonzero
                m_.add_row(
                    {
                        coords.family_col("s", m, i): Fraction(i),
                        coords.family_col("e", n, j): Fraction(j),
                    }
                )
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
    report = PropositionReport.of(coords, m_, predicted, row_labels=labels, free_directions=free_dirs)
    return report.kernel, report


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
    report = PropositionReport.of(coords, m_, predicted, row_labels=labels, free_directions=free_dirs)
    return report.kernel, report


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
