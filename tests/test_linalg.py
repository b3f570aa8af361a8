"""Sparse rational elimination, span/kernel calculus, mod-p oracle.

References from earlier versions of the library are kept here.
`_ReferenceRref` and `_reference_reduce` are the incremental reduced
echelon form as it was before reduction relied on its own invariant: a
fixpoint reduction over sorted leading columns, and a column index
rebuilt for every back-substituted row.  `_reference_span_basis`,
`_reference_kernel_basis` and `_reference_solve_linear` are the exact
eliminations over every row on that form, as they were before
single-entry rows were settled first; `span_basis`, `kernel_basis` and
`solve_linear` must return exactly their results.
`kernel_dimension_dense_fraction` is a textbook dense elimination over
Fraction that shares no code with the library.  The reference oracle at
the end of this file is the dense numpy Gauss-Jordan elimination, per
column block, that the library used before its mod-p oracle became one
sparse integer pass; it runs no library code, its column blocks included.
The differential tests require it and `kernel_dimension_modp` to return
the same kernel dimension or raise the same error.
"""

import random
import subprocess
import sys
from fractions import Fraction
from math import prod

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from svalgebra import (
    AlgebraConfig, SparseMatrix, SpanBasis, Window, classify_biderivations, classify_derivations, kernel_basis, rank,
    span_basis,
)
from svalgebra.linalg import (
    _Rref,
    kernel_dimension_dense_modp,
    kernel_dimension_modp,
    solve_linear,
    vec_add_scaled,
    vec_bump,
)
from svalgebra import linalg
from svalgebra.biderivations import PairCoords, biderivation_constraint_matrix, identity2_rows
from svalgebra.operators import derivation_constraint_matrix
from svalgebra.postlie import _enclosure_kernel, solve_postlie_window
from svalgebra.windows import BracketTable

from conftest import deadline


def F(x):
    return Fraction(x)


def multiply(m, v):
    """The product m v of a matrix and a sparse vector, as a list of entries."""
    return [sum((x * v[c] for c, x in row.items() if c in v), F(0)) for row in m.rows]


def test_vec_add_scaled_cancels():
    v = {0: F(1), 1: F(2)}
    vec_add_scaled(v, {1: F(-1)}, F(2))
    assert v == {0: F(1)}


def test_vec_bump_inserts_accumulates_and_cancels():
    v = {}
    vec_bump(v, 2, F(3))
    vec_bump(v, 0, F(1))
    vec_bump(v, 2, F(-1))
    assert list(v.items()) == [(2, F(2)), (0, F(1))]
    vec_bump(v, 2, F(-2))
    assert v == {0: F(1)}


def test_add_row_validates_range():
    m = SparseMatrix(3)
    with pytest.raises(ValueError):
        m.add_row({3: F(1)})
    m.add_row({})  # zero rows are legal
    assert m.row_count == 1


@pytest.mark.parametrize("row", [{3: F(1)}, {-1: F(1)}, {0: F(1), 3: F(2)}], ids=["past-the-end", "negative", "second-entry"])
def test_constructor_validates_range(row):
    """The constructor makes the column test `add_row` makes, so rows
    handed over as a list lose no check."""
    with pytest.raises(ValueError, match="row entry outside column range"):
        SparseMatrix(3, [row])


def test_constructor_refuses_a_stored_zero_before_the_range():
    with pytest.raises(ZeroDivisionError):
        SparseMatrix(3, [{0: F(0), 3: F(1)}])
    with pytest.raises(ZeroDivisionError):
        SparseMatrix(3, [{5: F(1)}, {0: F(0)}])


def test_constructor_refuses_a_negative_column_count():
    with pytest.raises(ValueError, match="column count -3 is negative"):
        SparseMatrix(-3)
    assert SparseMatrix(0).col_count == 0


@pytest.mark.parametrize(
    "vector", [{5: F(1)}, {-1: F(1)}, {0: F(1), 2: F(2)}], ids=["past-the-end", "negative", "second-entry"]
)
def test_span_refuses_a_column_out_of_range(vector):
    """`span_basis` makes the constructor's column test, after its entry
    check, so a basis of Q^2 never holds column 5."""
    with pytest.raises(ValueError, match="row entry outside column range"):
        span_basis([{0: F(1)}, vector], 2)
    with pytest.raises(ZeroDivisionError):
        span_basis([{**vector, 1: F(0)}], 2)


def test_constructor_keeps_rows_as_given():
    assert SparseMatrix(3, [{}]).row_count == 1  # zero rows are legal
    rows = [{}, {2: F(1), 0: F(-1)}]
    m = SparseMatrix(3, rows)
    assert m.rows is rows and m.row_count == 2
    assert list(m.rows[1]) == [2, 0]


def test_kernel_simple():
    # x + y = 0, y + z = 0  ->  kernel spanned by (1, -1, 1)
    m = SparseMatrix(3)
    m.add_row({0: F(1), 1: F(1)})
    m.add_row({1: F(1), 2: F(1)})
    k = kernel_basis(m)
    assert k.dimension == 1
    (v,) = k.vectors
    assert v == {0: F(1), 1: F(-1), 2: F(1)}
    assert all(x == 0 for x in multiply(m, v))


def test_kernel_full_and_trivial():
    m = SparseMatrix(2)
    assert kernel_basis(m).dimension == 2
    m.add_row({0: F(1)})
    m.add_row({1: F(3)})
    assert kernel_basis(m).dimension == 0


def test_span_canonical():
    a = span_basis([{0: F(2), 1: F(4)}], 2)
    b = span_basis([{0: F(-1), 1: F(-2)}], 2)
    assert a == b
    assert a.vectors[0] == {0: F(1), 1: F(2)}


def test_span_contains():
    s = span_basis([{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}], 3)
    assert s.contains({0: F(2), 1: F(1), 2: F(-1)})
    assert not s.contains({0: F(1)})


# keep denominators clear of the oracle's primes (it refuses such input)
_entries = st.fractions(min_value=-4, max_value=4, max_denominator=16)


@st.composite
def matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=0, max_value=8))
    m = SparseMatrix(cols)
    for _ in range(rows):
        row = {
            c: v
            for c, v in enumerate(draw(st.lists(_entries, min_size=cols, max_size=cols)))
            if v
        }
        m.add_row(row)
    return m


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dimension == m.col_count


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m).vectors:
        assert all(x == 0 for x in multiply(m, v))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_dense_modp_oracle_agrees(m):
    """The independent mod-p elimination sees the same kernel dimension."""
    assert kernel_dimension_modp(m) == kernel_basis(m).dimension


def test_modp_oracle_keeps_its_earlier_name():
    assert kernel_dimension_dense_modp is kernel_dimension_modp


@st.composite
def sparse_matrices(draw):
    """Wider matrices with a few nonzeros per row, so rows share columns
    sparsely the way constraint rows do."""
    cols = draw(st.integers(min_value=1, max_value=12))
    m = SparseMatrix(cols)
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        picked = draw(st.lists(st.integers(0, cols - 1), max_size=3, unique=True))
        m.add_row({c: draw(_entries.filter(bool)) for c in picked})
    return m


def kernel_dimension_dense_fraction(m: SparseMatrix) -> int:
    """Kernel dimension via textbook dense elimination over Fraction.

    No sparsity tricks; intended for small matrices as a fully independent
    rational-arithmetic oracle.
    """
    rows = [[Fraction(0)] * m.col_count for _ in range(m.row_count)]
    for i, row in enumerate(m.rows):
        for c, v in row.items():
            rows[i][c] = v
    rank_q = 0
    for col in range(m.col_count):
        pivot = None
        for i in range(rank_q, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_q], rows[pivot] = rows[pivot], rows[rank_q]
        inv = 1 / rows[rank_q][col]
        if inv != 1:
            rows[rank_q] = [x * inv for x in rows[rank_q]]
        prow = rows[rank_q]
        for i in range(len(rows)):
            if i != rank_q and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank_q += 1
        if rank_q == len(rows):
            break
    return m.col_count - rank_q


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_agrees_with_dense_fraction_oracle(m):
    """Sparse elimination against textbook dense Fraction elimination."""
    k = kernel_basis(m)
    assert k.dimension == kernel_dimension_dense_fraction(m)
    for v in k.vectors:
        assert all(x == 0 for x in multiply(m, v))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_idempotent(m):
    k = kernel_basis(m)
    again = span_basis(k.vectors, m.col_count)
    assert again.vectors == k.vectors


# -- exact elimination over every row, as the library had it ----------------


def _reference_reduce(v, by_lead):
    work = dict(v)
    while True:
        hits = sorted(c for c in work if c in by_lead)
        if not hits:
            return work
        for c in hits:
            cur = work.get(c)
            if cur:
                vec_add_scaled(work, by_lead[c], -cur)


class _ReferenceRref:
    def __init__(self):
        self.pivots = {}
        self._users = {}

    def _register(self, lead, row):
        self.pivots[lead] = row
        for c in row:
            self._users.setdefault(c, set()).add(lead)

    def _unregister(self, lead, row):
        for c in row:
            users = self._users.get(c)
            if users is not None:
                users.discard(lead)

    def insert(self, row):
        work = _reference_reduce(row, self.pivots)
        if not work:
            return None
        c = min(work)
        inv = F(1) / work[c]
        if inv != 1:
            work = {k: inv * v for k, v in work.items()}
        for lead in list(self._users.get(c, ())):
            old = self.pivots[lead]
            self._unregister(lead, old)
            vec_add_scaled(old, work, -old[c])
            self._register(lead, old)
        self._register(c, work)
        return c


def _reference_rref(m):
    rr = _ReferenceRref()
    for row in m.rows:
        rr.insert(row)
    return rr


def _reference_rank(m):
    return len(_reference_rref(m).pivots)


def _reference_span_basis(vectors, col_count):
    rr = _ReferenceRref()
    for v in vectors:
        rr.insert(v)
    return SpanBasis(col_count=col_count, vectors=tuple(dict(rr.pivots[c]) for c in sorted(rr.pivots)))


def _reference_solve_linear(m, rhs):
    aug = m.col_count
    rr = _ReferenceRref()
    for row, b in zip(m.rows, rhs):
        work = dict(row)
        if b:
            work[aug] = -b
        rr.insert(work)
    if aug in rr.pivots:
        return None
    return {lead: -prow[aug] for lead, prow in rr.pivots.items() if aug in prow}


def _reference_kernel_basis(m):
    rr = _reference_rref(m)
    pivots = rr.pivots
    kernel_vecs = []
    for f in range(m.col_count):
        if f in pivots:
            continue
        v = {f: F(1)}
        for lead in rr._users.get(f, ()):
            v[lead] = -pivots[lead][f]
        kernel_vecs.append(v)
    return _reference_span_basis(kernel_vecs, m.col_count)


@st.composite
def forcing_matrices(draw):
    """Sparse matrices rich in single-entry rows and in two-entry rows that
    become single-entry once a neighbour is forced, so forcing cascades."""
    cols = draw(st.integers(min_value=1, max_value=12))
    m = SparseMatrix(cols)
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        size = draw(st.sampled_from([1, 1, 2, 2, 2, 3, 4]))
        picked = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=size, unique=True))
        m.add_row({c: draw(_entries.filter(bool)) for c in picked})
    return m


@given(forcing_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_equals_plain_elimination(m):
    """Settling single-entry rows first changes no vector and no rank."""
    assert kernel_basis(m).vectors == _reference_kernel_basis(m).vectors
    assert rank(m) == _reference_rank(m)


@given(forcing_matrices())
@settings(max_examples=200, deadline=None)
def test_span_equals_plain_elimination(m):
    """Read as a set of vectors, the same matrices span exactly as before."""
    assert span_basis(m.rows, m.col_count) == _reference_span_basis(m.rows, m.col_count)


def _users_of(pivots):
    users = {}
    for lead, row in pivots.items():
        for c in row:
            users.setdefault(c, set()).add(lead)
    return users


@given(st.one_of(matrices(), forcing_matrices()), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_keeps_its_invariant_after_every_insert(m, data):
    """After each insert: the reference's pivot rows, each with lead entry 1
    and zero at every other lead, and a column index naming exactly the
    pivot rows that touch each column.  Reduction by the final span agrees
    with the reference's fixpoint reduction."""
    rr, ref = _Rref(), _ReferenceRref()
    for row in m.rows:
        assert rr.insert(row) == ref.insert(row)
        assert rr.pivots == ref.pivots
        for lead, prow in rr.pivots.items():
            assert min(prow) == lead and prow[lead] == 1
            assert not any(c in prow for c in rr.pivots if c != lead)
        assert {c: leads for c, leads in rr._users.items() if leads} == _users_of(rr.pivots)
    s = span_basis(m.rows, m.col_count)
    by_lead = {min(v): v for v in s.vectors}
    for _ in range(3):
        entries = data.draw(st.lists(_entries, min_size=m.col_count, max_size=m.col_count))
        v = {c: x for c, x in enumerate(entries) if x}
        assert s.reduce(v) == _reference_reduce(v, by_lead)


@st.composite
def forcing_systems(draw):
    """Systems m x = rhs over forcing-rich rows, empty rows included, with
    rhs = m x0 for a sparse x0 (many rows get rhs 0), then a few entries
    bumped, which may make the system inconsistent."""
    cols = draw(st.integers(min_value=1, max_value=10))
    m = SparseMatrix(cols)
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        size = draw(st.sampled_from([0, 1, 1, 2, 2, 2, 3]))
        picked = draw(st.lists(st.integers(0, cols - 1), max_size=size, unique=True))
        m.add_row({c: draw(_entries.filter(bool)) for c in picked})
    x0 = {c: draw(st.one_of(st.just(F(0)), _entries)) for c in range(cols)}
    rhs = multiply(m, x0)
    if rhs:
        for i in draw(st.lists(st.integers(0, len(rhs) - 1), max_size=3)):
            rhs[i] += draw(_entries)
    return m, rhs


@given(forcing_systems())
@settings(max_examples=200, deadline=None)
def test_solve_equals_plain_elimination(system):
    """The same particular solution, or None, as eliminating [m | -rhs]
    without settling single-entry rows first."""
    m, rhs = system
    x = solve_linear(m, rhs)
    assert x == _reference_solve_linear(m, rhs)
    if x is not None:
        assert multiply(m, x) == rhs


@pytest.mark.parametrize(
    "rows, rhs, want",
    [
        ([{0: F(2)}], [F(3)], {0: Fraction(3, 2)}),  # single entry, b != 0
        ([{0: F(2)}, {0: F(1), 1: F(1)}], [F(0), F(5)], {1: F(5)}),  # b = 0 forces
        ([{0: F(1)}, {}], [F(1), F(1)], None),  # empty row, b != 0
        ([{0: F(1)}, {0: F(2)}], [F(1), F(3)], None),  # two forcings disagree
        ([{0: F(1), 1: F(1)}, {1: F(1)}], [F(0), F(0)], {}),  # homogeneous
    ],
    ids=["single", "forced-zero", "empty", "clash", "homogeneous"],
)
def test_solve_presolved_rows(rows, rhs, want):
    m = SparseMatrix(2)
    for row in rows:
        m.add_row(row)
    assert solve_linear(m, rhs) == _reference_solve_linear(m, rhs) == want


@pytest.mark.parametrize(
    "vectors", [[{0: F(0)}], [{0: F(1)}, {0: F(1), 1: F(0)}]], ids=["alone", "after-a-cascade"]
)
def test_span_refuses_a_stored_zero(vectors):
    """A stored zero is a malformed vector, never a forcing row: read as
    one, {1: 0} would put the unit vector e_1 into the span."""
    with pytest.raises(ZeroDivisionError):
        span_basis(vectors, 2)
    with pytest.raises(ZeroDivisionError):
        _reference_span_basis(vectors, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: span_basis([{0: F(1), 1: F(1)}, {0: F(0), 1: F(1), 2: F(1)}], 3),
        lambda: span_basis([{0: F(1), 1: F(1)}], 3).contains({0: F(0), 2: F(1)}),
    ],
    ids=["span", "contains"],
)
def test_reduce_refuses_a_stored_zero_at_a_lead(call):
    """A stored zero at a leading column is refused at once.  The reference
    reduction never returns on it, so only the library is run, under a
    deadline that turns a hang into a failure."""
    with deadline(5), pytest.raises(ZeroDivisionError):
        call()


def _raw(col_count, *rows):
    """A matrix with the rows appended to ``rows`` as given, after the
    constructor's check and not through `SparseMatrix.add_row`, which drops
    zero entries, so the solver called on it meets them."""
    m = SparseMatrix(col_count)
    m.rows.extend(rows)
    return m


@pytest.mark.parametrize(
    "call",
    [
        lambda: span_basis([{0: F(1), 1: F(0)}], 2),
        lambda: span_basis([{0: F(1), 1: F(1)}, {1: F(1), 2: F(0)}], 3),
        lambda: span_basis([{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(0)}], 2),
        lambda: rank(_raw(3, {0: F(1), 1: F(1), 2: F(0)})),
        lambda: kernel_basis(_raw(3, {0: F(1), 1: F(0), 2: F(1)}, {1: F(1), 2: F(1)})),
        lambda: solve_linear(_raw(2, {0: F(1), 1: F(0)}), [F(1)]),
        lambda: kernel_dimension_modp(_raw(2, {0: F(2), 1: F(0)})),
        lambda: span_basis([{0: F(1)}], 2).reduce({0: F(1), 1: F(0)}),
        lambda: span_basis([{0: F(1)}], 2).contains({1: F(0)}),
    ],
    ids=["span", "span-second-row", "span-settled-row", "rank", "kernel", "solve", "modp", "reduce", "contains"],
)
def test_a_stored_zero_anywhere_is_refused(call):
    """Not only at a leading or forcing position: kept, {0: 1, 1: 0} would
    stay in the reduced echelon form, and `SpanBasis` equality would stop
    being equality of subspaces.  Also in a row whose columns other rows
    force, which no elimination reads, so the answer does not depend on
    which rows happen to be read."""
    with pytest.raises(ZeroDivisionError):
        call()


_SOLVERS = {
    "kernel": kernel_basis,
    "rank": rank,
    "solve": lambda m: solve_linear(m, [F(0)] * m.row_count),
    "modp": kernel_dimension_modp,
}


@pytest.mark.parametrize("solver", _SOLVERS)
@pytest.mark.parametrize(
    "row, error",
    [
        ({1: 0.5, 2: F(1)}, TypeError),
        ({0: F(1), 1: F(0), 2: F(1)}, ZeroDivisionError),
        ({2: F(0)}, ZeroDivisionError),
        ({2: 0.5}, TypeError),
        ("int64", TypeError),
    ],
    ids=["float-live", "zero-live", "zero-forcing", "float-forcing", "int64-dependent"],
)
def test_every_solver_refuses_an_escaped_row_alike(row, error, solver):
    """A row appended after construction escapes the constructor's check.
    Each solver checks the entries it reads, so all four raise exact's
    TypeError for a float and ZeroDivisionError for a stored zero, in a
    live row as at a forcing entry.  A numpy int64 has a ``denominator``,
    so the modular paths refuse it by its type, not by a missing attribute;
    the int64 row is twice the first, so its arithmetic alone raises nothing."""
    if row == "int64":
        np = pytest.importorskip("numpy")
        row = {0: np.int64(2), 1: np.int64(2)}
    m = SparseMatrix(3, [{0: F(1), 1: F(1)}])
    m.rows.append(row)
    match = "a scalar is an int or a Fraction" if error is TypeError else "(stores a|stored) zero"
    with pytest.raises(error, match=match):
        _SOLVERS[solver](m)


@pytest.mark.parametrize("solver", _SOLVERS)
def test_every_solver_refuses_a_float_in_a_settled_row(solver):
    """The last row forces column 0, and the first is then settled without
    being eliminated; each solver still refuses its float, as the oracle,
    which reads every entry, does."""
    m = _raw(2, {0: 0.5}, {0: F(1)}, {0: F(1)})
    with pytest.raises(TypeError, match="a scalar is an int or a Fraction"):
        _SOLVERS[solver](m)


def test_forcing_chain_settles_without_recursion():
    """Rows {0}, {0,1}, ..., {k-1,k} in reverse order: each row is settled
    only after the one emitted after it, so a sweep over the rows would
    need k sweeps and a recursive settle would nest k deep."""
    k = 5000
    m = SparseMatrix(k + 3)
    for i in range(k, 0, -1):
        m.add_row({i - 1: F(2), i: F(-3)})
    m.add_row({0: F(5)})
    kern = kernel_basis(m)
    assert kern.dimension == m.col_count - (k + 1)
    assert kern.vectors == ({k + 1: F(1)}, {k + 2: F(1)})
    assert rank(m) == k + 1


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)])
def test_kernel_equals_plain_elimination_on_derivations(epsilon):
    m, _ = derivation_constraint_matrix(Window(4), AlgebraConfig(epsilon))
    assert kernel_basis(m).vectors == _reference_kernel_basis(m).vectors


def test_kernel_equals_plain_elimination_on_biderivations(biderivations_n3, cfg0):
    """The classification solves the factored system; its lifted kernel is
    the plain elimination's on the tensor system."""
    m, _ = biderivation_constraint_matrix(Window(3), cfg0)
    assert biderivations_n3.kernel.vectors == _reference_kernel_basis(m).vectors


# -- the modular kernel, its proof and its fallback ---------------------------


@pytest.fixture
def fallbacks(monkeypatch):
    """The row lists `kernel_basis` hands back to exact elimination: a spy on
    `linalg._eliminate` that keeps each call reusing a forced pass
    (`span_basis`, `rank` and `solve_linear` run their own)."""
    seen = []
    eliminate = linalg._eliminate

    def spy(rows, presolved=None):
        if presolved is not None:
            seen.append(rows)
        return eliminate(rows, presolved)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return seen


def _keyed(vectors):
    """The vectors with their key order, which dict equality ignores."""
    return [list(v.items()) for v in vectors]


def _window_matrix(kind, n, epsilon):
    build = derivation_constraint_matrix if kind == "der" else biderivation_constraint_matrix
    return build(Window(n), AlgebraConfig(epsilon))[0]


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)], ids=["e0", "e12"])
@pytest.mark.parametrize("kind, n", [("der", 3), ("der", 4), ("der", 5), ("der", 6), ("bid", 3)])
def test_modular_kernel_equals_exact_elimination_on_windows(kind, n, epsilon, fallbacks, monkeypatch):
    """The proven modular kernel, with no fallback, is the plain
    elimination's in values and the library's exact elimination's in key
    order too (the plain elimination orders keys differently)."""
    m = _window_matrix(kind, n, epsilon)
    k = kernel_basis(m)
    assert fallbacks == []
    assert k.vectors == _reference_kernel_basis(m).vectors
    monkeypatch.setattr(linalg, "_modular_kernel", lambda *args: None)
    assert _keyed(k.vectors) == _keyed(kernel_basis(m).vectors)
    assert fallbacks == [m.rows]


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)], ids=["e0", "e12"])
@pytest.mark.parametrize("n", [3, 4])
def test_factored_biderivation_kernel_equals_the_tensor_system(n, epsilon, fallbacks):
    """Identity (1) imposed through the window derivation kernel: the lifted
    kernel of the factored system is the tensor system's canonical basis,
    vector for vector, and every kernel on the way, the derivation kernel
    included, is proven on its modular pass."""
    cfg = AlgebraConfig(epsilon)
    bc = classify_biderivations(Window(n), cfg)
    assert fallbacks == []
    m, coords = biderivation_constraint_matrix(Window(n), cfg)
    assert bc.kernel.vectors == kernel_basis(m).vectors
    assert fallbacks == []
    # the factored unknowns (j, z): a derivation kernel vector per slice
    der = derivation_constraint_matrix(Window(n), cfg)[0]
    assert bc.matrix.col_count == kernel_basis(der).dimension * coords.n < m.col_count
    assert all(row and type(x) is int for row in bc.matrix.rows for x in row.values())


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)], ids=["e0", "e12"])
@pytest.mark.parametrize("n", [3, 4])
def test_brute_enclosure_kernel_equals_the_unfactored_system(n, epsilon, fallbacks):
    """The brute enclosure's linear rows solved through the window derivation
    kernel: the lifted kernel of its factored symmetry rows is that of the
    two-term symmetry rows plus `identity2_rows` on tensor columns, vector
    for vector, proven on its modular pass, and its row count is theirs."""
    cfg, w = AlgebraConfig(epsilon), Window(n)
    coords = PairCoords(w, cfg)
    kernel, linear_rows = _enclosure_kernel(coords, BracketTable(w, cfg))
    assert fallbacks == []
    k = coords.n
    rows = [
        {(a * k + b) * k + h: F(1), (b * k + a) * k + h: F(-1)}
        for a in range(k) for b in range(a + 1, k) for h in range(k)
    ]
    rows.extend(identity2_rows(coords, cfg))
    assert linear_rows == len(rows)
    assert kernel.vectors == kernel_basis(SparseMatrix(coords.col_count, rows)).vectors


def test_comparison_lifts_a_kernel_solved_in_other_unknowns():
    """``lift`` maps the kernel of m to the comparison's columns, and the
    images are re-reduced: here the unknown u stands for (u, u, 0) and w
    for (0, 2w, w), and m forces u = w."""

    class Coords:
        col_count = 3

        def interior_columns(self):
            return {0, 1, 2}

    def lift(vectors):
        for v in vectors:
            u, w = v.get(0, F(0)), v.get(1, F(0))
            yield {c: x for c, x in {0: u, 1: u + 2 * w, 2: w}.items() if x}

    m = SparseMatrix(2, [{0: F(1), 1: F(-1)}])
    c = linalg.KernelComparison.of(Coords(), m, [{0: F(2), 1: F(6), 2: F(2)}], lift=lift)
    assert c.matrix is m
    assert c.kernel.vectors == ({0: F(1), 1: F(3), 2: F(1)},)
    assert c.confirmed


@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)], ids=["e0", "e12"])
@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda cfg: kernel_basis(_window_matrix("der", 8, cfg.epsilon)), id="der8"),
        pytest.param(lambda cfg: solve_postlie_window(Window(3), cfg), id="brute3"),
        pytest.param(lambda cfg: solve_postlie_window(Window(4), cfg), id="brute4"),
    ],
)
def test_no_fallback_on_larger_systems(solve, epsilon, fallbacks):
    """Every kernel of these solves is proven on its first, modular pass:
    the brute solve's linear system and each cut of its enclosure."""
    solve(AlgebraConfig(epsilon))
    assert fallbacks == []


@pytest.mark.parametrize(
    "rows",
    [
        # P = 2^61 - 1 makes the rows equal mod P: the rank drops, and the
        # modular kernel vector {2: 1} does not annihilate the second row
        [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1), 2: F(linalg._P)}],
        # the kernel vector {0: -1/q, 1: 1} has a denominator above 2^30,
        # beyond rational reconstruction mod P
        [{0: F(2**31 + 11), 1: F(1)}],
    ],
    ids=["entry-P", "denominator-above-2^30"],
)
def test_kernel_falls_back_to_exact_elimination(rows, fallbacks):
    m = SparseMatrix(3, rows)
    assert kernel_basis(m).vectors == _reference_kernel_basis(m).vectors
    assert fallbacks == [rows]


def test_rational_and_modular_forms_move_in_lockstep():
    """`_Rref()` on integer rows and `_Rref(_P)` on their residues run one
    code path: after every insert, the same pivot columns, the same column
    index and pivot rows with the same key order, whose entries agree mod P
    (n/d read as n * d^-1 mod P).  With at most 10 columns and entries
    |x| <= 9, every minor is below (9 * sqrt(10))^10 < 30^10 < P
    (Hadamard's bound), so P divides no entry met on the way.  Rows
    outnumber columns often enough that many inserts reduce to zero."""
    rng = random.Random(23)
    p = linalg._P
    dependent = 0
    for _ in range(60):
        cols = rng.randint(1, 10)
        exact, modular = _Rref(), _Rref(p)
        for _ in range(rng.randint(1, 14)):
            picked = sorted(rng.sample(range(cols), rng.randint(1, min(5, cols))))
            row = {c: F(rng.choice([-9, -5, -2, -1, 1, 2, 3, 7, 9])) for c in picked}
            lead = exact.insert(row)
            assert lead == modular.insert({c: int(x) % p for c, x in row.items()})
            dependent += lead is None
            assert list(exact.pivots) == list(modular.pivots)
            assert exact._users == modular._users
            for c, prow in exact.pivots.items():
                mrow = modular.pivots[c]
                assert list(prow) == list(mrow)
                assert all(x.numerator * pow(x.denominator, -1, p) % p == mrow[k] for k, x in prow.items())
    assert dependent > 100


def test_kernel_refuses_a_stored_zero_in_a_live_row():
    """A row appended after construction escapes the constructor's check;
    the modular pass refuses its zero as `_reduce` would."""
    m = SparseMatrix(3, [{0: F(1), 1: F(1)}])
    m.rows.append({0: F(1), 1: F(0), 2: F(1)})
    with pytest.raises(ZeroDivisionError):
        kernel_basis(m)


def test_reduce_leaves_complement():
    s = span_basis([{0: F(1), 1: F(2)}], 3)
    r = s.reduce({0: F(3), 1: F(6), 2: F(1)})
    assert r == {2: F(1)}


@pytest.mark.parametrize("epsilon, dimension", [(Fraction(0), 251), (Fraction(1, 2), 254)], ids=["e0", "e12"])
def test_modp_oracle_agrees_on_the_radius8_derivation_kernel(epsilon, dimension):
    """The largest derivation systems the oracle cross-checks: 31737 rows at
    epsilon 0, of which 10282 reach its elimination."""
    dc = classify_derivations(Window(8), AlgebraConfig(epsilon))
    assert dc.kernel_dimension == dimension
    assert kernel_dimension_modp(dc.matrix) == dimension


def test_modp_oracle_reports_disagreeing_primes():
    m = SparseMatrix(1)
    m.add_row({0: F(1_000_003)})
    with pytest.raises(ArithmeticError) as exc:
        kernel_dimension_modp(m)
    assert str(exc.value) == "mod-p eliminations disagree: [1, 0, 0]"


def test_modp_oracle_refuses_a_prime_denominator():
    m = SparseMatrix(2)
    m.add_row({0: F(1), 1: Fraction(1, 1_000_033)})
    with pytest.raises(ArithmeticError) as exc:
        kernel_dimension_modp(m)
    assert str(exc.value) == "prime 1000033 divides a denominator"


def test_import_does_not_load_numpy():
    code = "import sys, svalgebra; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# -- the dense numpy mod-p oracle, as the library had it ---------------------

_PRIMES = (1_000_003, 1_000_033, 1_000_037)


def _reference_matmul_modp(np, a, b, p):
    inner = a.shape[1]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    af = a.astype(np.float64)
    bf = b.astype(np.float64)
    for lo in range(0, inner, 4096):
        hi = min(lo + 4096, inner)
        out = (out + (af[:, lo:hi] @ bf[lo:hi]).astype(np.int64)) % p
    return out


def _reference_component_rank_modp(np, rows, cols, p, block=1024):
    colpos = {c: j for j, c in enumerate(cols)}
    ncols = len(cols)
    echelon = np.zeros((0, ncols), dtype=np.int64)
    leads = []
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        b = np.zeros((len(chunk), ncols), dtype=np.int64)
        for i, row in enumerate(chunk):
            for c, v in row.items():
                if v.denominator % p == 0:
                    raise ArithmeticError(f"prime {p} divides a denominator")
                b[i, colpos[c]] = (v.numerator * pow(v.denominator, -1, p)) % p
        if leads:
            b = (b - _reference_matmul_modp(np, b[:, leads], echelon, p)) % p
        pivot_pairs = []
        used = np.zeros(len(chunk), dtype=bool)
        for col in range(ncols):
            nz = np.nonzero((b[:, col] != 0) & ~used)[0]
            if nz.size == 0:
                continue
            i = int(nz[0])
            used[i] = True
            b[i] = (b[i] * pow(int(b[i, col]), -1, p)) % p
            hit = np.nonzero(b[:, col])[0]
            hit = hit[hit != i]
            if hit.size:
                b[hit] = (b[hit] - np.outer(b[hit, col], b[i])) % p
            pivot_pairs.append((col, i))
        if pivot_pairs:
            new_leads = [c for c, _ in pivot_pairs]
            new_mat = b[[i for _, i in pivot_pairs]]
            if leads:
                echelon = (echelon - _reference_matmul_modp(np, echelon[:, new_leads], new_mat, p)) % p
            echelon = np.vstack([echelon, new_mat])
            leads.extend(new_leads)
            order = np.argsort(leads, kind="stable")
            echelon = echelon[order]
            leads = [leads[i] for i in order]
    return len(leads)


def _reference_column_components(m):
    """Columns partitioned into blocks joined by shared rows: root -> sorted
    columns, root -> the nonempty rows of that block."""
    parent = list(range(m.col_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in m.rows:
        cols = list(row)
        for c in cols[1:]:
            parent[find(c)] = find(cols[0])
    cols_by_root, rows_by_root = {}, {}
    for c in range(m.col_count):
        cols_by_root.setdefault(find(c), []).append(c)
    for row in m.rows:
        if row:
            rows_by_root.setdefault(find(next(iter(row))), []).append(row)
    return cols_by_root, rows_by_root


def _reference_kernel_dimension_modp(m, primes=_PRIMES):
    np = pytest.importorskip("numpy")
    cols_by_root, rows_by_root = _reference_column_components(m)
    dims = []
    for p in primes:
        rank_p = 0
        for root, cols in cols_by_root.items():
            rows = rows_by_root.get(root)
            if rows:
                rank_p += _reference_component_rank_modp(np, rows, cols, p)
        dims.append(m.col_count - rank_p)
    if len(set(dims)) != 1:
        raise ArithmeticError(f"mod-p eliminations disagree: {dims}")
    return dims[0]


def _outcome(oracle, m):
    try:
        return oracle(m)
    except ArithmeticError as exc:
        return str(exc)


# mostly small entries, often multiples of the primes (non-unit leads mod
# their product), now and then a prime in a denominator
_prime_multiples = st.builds(
    lambda p, k: F(p * k),
    st.sampled_from(_PRIMES + (_PRIMES[0] * _PRIMES[2],)),
    st.integers(-2, 2),
)
_prime_denominators = st.builds(
    lambda p, k: Fraction(k, p), st.sampled_from(_PRIMES), st.integers(1, 3)
)
_modp_entries = st.sampled_from(
    [_entries] * 12 + [_prime_multiples] * 6 + [_prime_denominators]
).flatmap(lambda s: s)


@st.composite
def modp_matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=8))
    m = SparseMatrix(cols)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        picked = draw(st.lists(st.integers(0, cols - 1), max_size=4, unique=True))
        m.add_row({c: draw(_modp_entries.filter(bool)) for c in picked})
    return m


@given(modp_matrices())
@settings(max_examples=200, deadline=None)
def test_modp_oracle_agrees_with_dense_reference(m):
    """Same kernel dimension, or the same error, as the dense numpy oracle."""
    assert _outcome(kernel_dimension_modp, m) == _outcome(_reference_kernel_dimension_modp, m)


# non-units mod the product of the primes: multiples of one prime or of two
_non_units = st.builds(
    lambda ps, k: F(k * prod(ps)),
    st.sampled_from([(p,) for p in _PRIMES] + [(p, r) for p in _PRIMES for r in _PRIMES if p < r]),
    st.sampled_from([-2, -1, 1, 2, 3]),
)
_forcing_entries = st.one_of(_entries.filter(bool), _non_units)


@st.composite
def modp_forcing_matrices(draw):
    """Matrices whose single-entry rows force cascades: single-entry rows,
    links {c, d} that force d once c is forced, and a few wider rows.  The
    entry a row can be forced through is a non-unit about half the time, so
    the per-prime fallback and a disagreement are reached through the
    forced pass, as is a prime in a denominator of a wider row."""
    cols = draw(st.integers(min_value=1, max_value=8))
    m = SparseMatrix(cols)
    column = st.integers(0, cols - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        shape = draw(st.sampled_from(["single", "single", "link", "link", "link", "wide"]))
        if shape == "single":
            m.add_row({draw(column): draw(_forcing_entries)})
        elif shape == "link" and cols > 1:
            c, d = draw(st.lists(column, min_size=2, max_size=2, unique=True))
            m.add_row({c: draw(_modp_entries.filter(bool)), d: draw(_forcing_entries)})
        else:
            picked = draw(st.lists(column, min_size=1, max_size=4, unique=True))
            m.add_row({c: draw(_modp_entries.filter(bool)) for c in picked})
    return m


@given(modp_forcing_matrices())
@settings(max_examples=200, deadline=None)
def test_modp_presolve_agrees_with_dense_reference(m):
    """Through forcing cascades with unit and non-unit forcing entries: the
    same kernel dimension, or the same error, as the dense numpy oracle."""
    assert _outcome(kernel_dimension_modp, m) == _outcome(_reference_kernel_dimension_modp, m)


@given(st.one_of(modp_matrices(), modp_forcing_matrices()), st.data())
@settings(max_examples=200, deadline=None)
def test_modp_outcome_does_not_depend_on_row_order(m, data):
    """The oracle picks its own elimination order (rows shortest first), and
    the rows that force each column depend on the given order.  Neither may
    change the kernel dimension or the error: rows reversed or shuffled by
    a drawn permutation give the outcome of the rows as given."""
    order = data.draw(st.permutations(range(m.row_count)))
    want = _outcome(kernel_dimension_modp, m)
    assert _outcome(kernel_dimension_modp, SparseMatrix(m.col_count, m.rows[::-1])) == want
    assert _outcome(kernel_dimension_modp, SparseMatrix(m.col_count, [m.rows[i] for i in order])) == want
