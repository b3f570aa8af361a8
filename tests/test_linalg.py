"""Sparse rational elimination, span/kernel calculus, dense mod-p oracle."""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from svalgebra import SparseMatrix, SpanBasis, kernel_basis, rank, span_basis
from svalgebra.linalg import (
    kernel_dimension_dense_fraction,
    kernel_dimension_dense_modp,
    vec_add_scaled,
    vec_bump,
)


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


def test_reduce_leaves_complement():
    s = span_basis([{0: F(1), 1: F(2)}], 3)
    r = s.reduce({0: F(3), 1: F(6), 2: F(1)})
    assert r == {2: F(1)}
