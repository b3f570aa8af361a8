"""Sparse rational elimination, span/kernel calculus, mod-p oracle.

Three references from earlier versions of the library are kept here.
`_reference_kernel_basis` is the exact elimination over every row, as it
was before single-entry rows were settled first; `kernel_basis` must
return exactly its vectors.  `kernel_dimension_dense_fraction` is a
textbook dense elimination over Fraction that shares no code with the
library.  The reference oracle at the end of this file
is the dense numpy Gauss-Jordan elimination the library used before its
mod-p oracle became one sparse integer pass; the differential test
requires both to return the same kernel dimension or raise the same error.
"""

import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from svalgebra import AlgebraConfig, SparseMatrix, SpanBasis, Window, kernel_basis, rank, span_basis
from svalgebra.linalg import (
    _Rref,
    _column_components,
    kernel_dimension_dense_modp,
    vec_add_scaled,
    vec_bump,
)
from svalgebra.operators import derivation_constraint_matrix


def F(x):
    return Fraction(x)


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


def test_kernel_simple():
    # x + y = 0, y + z = 0  ->  kernel spanned by (1, -1, 1)
    m = SparseMatrix(3)
    m.add_row({0: F(1), 1: F(1)})
    m.add_row({1: F(1), 2: F(1)})
    k = kernel_basis(m)
    assert k.dimension == 1
    (v,) = k.vectors
    assert v == {0: F(1), 1: F(-1), 2: F(1)}
    assert all(x == 0 for x in m.multiply(v))


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
        assert all(x == 0 for x in m.multiply(v))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_dense_modp_oracle_agrees(m):
    """The independent dense elimination sees the same kernel dimension."""
    assert kernel_dimension_dense_modp(m) == kernel_basis(m).dimension


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
        assert all(x == 0 for x in m.multiply(v))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_idempotent(m):
    k = kernel_basis(m)
    again = span_basis(k.vectors, m.col_count)
    assert again.vectors == k.vectors


# -- exact elimination over every row, as the library had it ----------------


def _reference_rref(m):
    rr = _Rref()
    for row in m.rows:
        rr.insert(row)
    return rr


def _reference_rank(m):
    return len(_reference_rref(m).pivots)


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
    return span_basis(kernel_vecs, m.col_count)


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


def test_kernel_equals_plain_elimination_on_biderivations(biderivations_n3):
    m = biderivations_n3.matrix
    assert biderivations_n3.kernel.vectors == _reference_kernel_basis(m).vectors


def test_reduce_leaves_complement():
    s = span_basis([{0: F(1), 1: F(2)}], 3)
    r = s.reduce({0: F(3), 1: F(6), 2: F(1)})
    assert r == {2: F(1)}


def test_modp_oracle_reports_disagreeing_primes():
    m = SparseMatrix(1)
    m.add_row({0: F(1_000_003)})
    with pytest.raises(ArithmeticError) as exc:
        kernel_dimension_dense_modp(m)
    assert str(exc.value) == "mod-p eliminations disagree: [1, 0, 0]"


def test_modp_oracle_refuses_a_prime_denominator():
    m = SparseMatrix(2)
    m.add_row({0: F(1), 1: Fraction(1, 1_000_033)})
    with pytest.raises(ArithmeticError) as exc:
        kernel_dimension_dense_modp(m)
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


def _reference_kernel_dimension_modp(m, primes=_PRIMES):
    np = pytest.importorskip("numpy")
    cols_by_root, rows_by_root = _column_components(m)
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
    assert _outcome(kernel_dimension_dense_modp, m) == _outcome(_reference_kernel_dimension_modp, m)
