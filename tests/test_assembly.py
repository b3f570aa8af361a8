"""One of each in system assembly, pinned against the copies it replaced.

`_reference_two_family_rows`, `_reference_prop3_rows` and
`_reference_prop4_rows` are the proposition row builders as they were
before the systems were assembled from (label, row) pairs: each adds its
rows one by one through `SparseMatrix.add_row`.  `_reference_cut` is the
span cut as it was before `linalg.vanishing_combinations`: group sums
added row by row in sorted group order, then the kernel combinations.
Every current builder must return exactly their rows, row order, key
order and labels.  The closed window pairs are listed once, in
`BracketTable.pairs`, which the Leibniz checker inherits by extending the
table with its value generators; the list must agree with the brackets of
`bracket_basis`.
"""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from svalgebra import AlgebraConfig, SparseMatrix, Window, gen, kernel_basis
from svalgebra.linalg import vanishing_combinations, vec_add_scaled, vec_bump
from svalgebra.propositions import GridCoords, prop1_solve, prop2_solve, prop3_solve, prop4_solve
from svalgebra.windows import BracketTable, LeibnizCheck

from conftest import window_brackets

PARITIES = (Fraction(0), Fraction(1, 2))


def _reference_two_family_rows(coords, left, right):
    a, b = coords.families
    m_ = SparseMatrix(coords.col_count)
    labels = []
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


def _reference_prop1_rows(w):
    coords = GridCoords(w.radius, ("k", "h"))
    return _reference_two_family_rows(
        coords, lambda m, n, i: Fraction(i - n), lambda m, n, i: Fraction(2 * m - n - i)
    )


def _reference_prop2_rows(w):
    coords = GridCoords(w.radius, ("t", "g"))
    return _reference_two_family_rows(
        coords, lambda m, n, i: i - Fraction(n, 2), lambda m, n, i: Fraction(3 * m, 2) - n - i
    )


def _reference_prop3_rows(w):
    w_radius = w.radius
    coords = GridCoords(w_radius, ("s", "e"), ("rho1", "rho2", "theta1", "theta2"))
    m_ = SparseMatrix(coords.col_count)
    labels = []
    rng = range(-w_radius, w_radius + 1)
    for m in rng:
        for n in rng:
            for i in rng:
                if i == 0 or i == m - n:
                    continue
                j = n - m + i
                if not coords.in_window(j):
                    continue
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
    return m_, labels


def _reference_prop4_rows(w):
    w_radius = w.radius
    coords = GridCoords(w_radius, ("q",))
    m_ = SparseMatrix(coords.col_count)
    labels = []
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
    return m_, labels


SYSTEMS = {
    "prop1": (prop1_solve, _reference_prop1_rows, range(2, 7)),
    "prop2": (prop2_solve, _reference_prop2_rows, range(3, 7)),
    "prop3": (prop3_solve, _reference_prop3_rows, range(3, 7)),
    "prop4": (prop4_solve, _reference_prop4_rows, range(3, 7)),
}


def _items(rows):
    """Rows as lists of (column, coefficient), so key order counts."""
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize(
    "name,radius", [(name, n) for name, (_, _, radii) in SYSTEMS.items() for n in radii]
)
def test_proposition_rows_match_the_row_by_row_builders(name, radius):
    solve, reference, _ = SYSTEMS[name]
    _, report = solve(Window(radius))
    m, labels = reference(Window(radius))
    assert report.matrix.col_count == m.col_count
    assert _items(report.matrix.rows) == _items(m.rows)
    assert [type(x) for row in report.matrix.rows for x in row.values()] == [
        type(x) for row in m.rows for x in row.values()
    ]
    assert report.row_labels == labels


def _reference_kernel_combinations(m, vectors):
    out = []
    for c in kernel_basis(m).vectors:
        v = {}
        for i, x in c.items():
            vec_add_scaled(v, vectors[i], x)
        out.append(v)
    return out


def _reference_cut(vectors, group, order=sorted):
    sums = {}
    for i, v in enumerate(vectors):
        for col, x in v.items():
            key = group(col)
            if key is not None:
                vec_bump(sums.setdefault(key, {}), i, x)
    m = SparseMatrix(len(vectors))
    for key in order(sums):
        m.add_row(sums[key])
    return _reference_kernel_combinations(m, vectors)


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@st.composite
def cuts(draw):
    """Sparse vectors on a few columns and a grouping of those columns,
    some of them free (group None)."""
    cols = draw(st.integers(1, 9))
    vectors = []
    for _ in range(draw(st.integers(0, 7))):
        picked = draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))
        vectors.append({c: draw(_coefficients) for c in picked})
    groups = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=cols, max_size=cols))
    return vectors, groups


@given(cuts(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_vanishing_combinations_match_the_row_by_row_cut(case, rnd):
    vectors, groups = case
    got = vanishing_combinations(vectors, groups.__getitem__)
    assert _items(got) == _items(_reference_cut(vectors, groups.__getitem__))

    def shuffled(keys):
        keys = list(keys)
        rnd.shuffle(keys)
        return keys

    # the canonical kernel makes the vectors independent of the row order
    assert got == _reference_cut(vectors, groups.__getitem__, shuffled)
    for v in got:
        sums = {}
        for col, x in v.items():
            if groups[col] is not None:
                sums[groups[col]] = sums.get(groups[col], 0) + x
        assert not any(sums.values())


def test_vanishing_combinations_by_hand():
    """v0 = e0 + 2 e1, v1 = e1, v2 = 3 e2: all columns free keeps the span's
    canonical coordinates, forcing column 1 leaves v0 - 2 v1 and v2, and one
    group over all columns leaves v0 - v2 and v1 - v2/3."""
    vectors = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}, {2: Fraction(3)}]
    assert vanishing_combinations(vectors, lambda c: None) == vectors
    assert vanishing_combinations(vectors, lambda c: c if c == 1 else None) == [{0: 1}, {2: 3}]
    assert vanishing_combinations(vectors, lambda c: 0) == [{0: 1, 1: 2, 2: -3}, {1: 1, 2: -1}]


@pytest.mark.parametrize("eps", PARITIES)
@pytest.mark.parametrize("radius", range(1, 7))
def test_checker_pairs_are_the_table_pairs(radius, eps):
    """`LeibnizCheck` is the window's `BracketTable` extended by its value
    generators: the same numbering, table rows and `pairs`, whose doubled
    coefficients are those of `bracket_basis`, with (0, 0) for a
    vanishing bracket."""
    w, cfg = Window(radius), AlgebraConfig(eps)
    table = BracketTable(w, cfg)
    n = table.n
    past = [gen("M", radius + 1), gen("L", -radius - 2)]
    chk = LeibnizCheck(w, cfg, [{g: Fraction(1)} for g in past])
    assert chk.order[:n + 2] == table.order + past and chk.m == n + 2
    assert chk.twice[:n + 2] == table.twice + [int(2 * g.index) for g in past]
    assert [chk.table[a * chk.m + b] for a in range(n) for b in range(n)] == table.table
    assert chk.pairs == table.pairs
    products = window_brackets(w, cfg)
    for a, b, t, c in table.pairs:
        assert a < b and products[a * n + b] == ((t, Fraction(c, 2)) if c else None)
    closed = {(a, b) for a, b, _, _ in table.pairs}
    outside = [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if products[a * n + b] is not None and (a, b) not in closed
    ]
    assert len(closed) + len(outside) == n * (n - 1) // 2
    assert all(abs(table.twice[a] + table.twice[b]) > 2 * radius for a, b in outside)
