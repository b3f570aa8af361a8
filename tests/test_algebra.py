"""Bracket table, element arithmetic and the Lie axioms."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from svalgebra import (
    AlgebraConfig,
    Element,
    ZERO,
    bracket,
    bracket_basis,
    format_element,
    gen,
    grade,
    jacobi_defect,
    validate_generator,
)
from svalgebra import algebra, parsing, parse_generator
from svalgebra.algebra import GeneratorId, _bracket_pair, format_rational, structure

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))


def L(m):
    return gen("L", m)


def Y(m):
    return gen("Y", m)


def M(m):
    return gen("M", m)


class TestBracketTable:
    def test_ll(self):
        assert bracket_basis(L(2), L(3), CFG0) == Element.monomial(L(5), Fraction(-1))
        assert bracket_basis(L(3), L(2), CFG0) == Element.monomial(L(5), Fraction(1))
        assert bracket_basis(L(1), L(1), CFG0) == ZERO

    def test_ly(self):
        # coefficient m/2 - n
        assert bracket_basis(L(4), Y(1), CFG0) == Element.monomial(Y(5), Fraction(1))
        assert bracket_basis(L(2), Y(1), CFG0) == ZERO

    def test_ly_half(self):
        v = bracket_basis(L(1), Y(Fraction(1, 2)), CFG_HALF)
        assert v == ZERO  # 1/2 - 1/2
        v = bracket_basis(L(3), Y(Fraction(1, 2)), CFG_HALF)
        assert v == Element.monomial(Y(Fraction(7, 2)), Fraction(1))

    def test_lm(self):
        assert bracket_basis(L(1), M(2), CFG0) == Element.monomial(M(3), Fraction(-2))
        assert bracket_basis(L(5), M(0), CFG0) == ZERO

    def test_yy(self):
        assert bracket_basis(Y(1), Y(3), CFG0) == Element.monomial(M(4), Fraction(-2))
        assert bracket_basis(Y(2), Y(2), CFG0) == ZERO

    def test_abelian_part(self):
        assert bracket_basis(Y(1), M(2), CFG0) == ZERO
        assert bracket_basis(M(1), M(2), CFG0) == ZERO

    def test_m0_central(self):
        for g in (L(3), Y(-1), M(2), M(0)):
            assert bracket_basis(M(0), g, CFG0) == ZERO
            assert bracket_basis(g, M(0), CFG0) == ZERO

    def test_cache_is_parity_independent(self):
        # structure constants never mention the parity offset, so both
        # configurations share one cached table
        a = bracket_basis(L(2), L(3), CFG0)
        b = bracket_basis(L(2), L(3), CFG_HALF)
        assert a is b


def _reference_bracket_pair(g1, g2):
    """The bracket of two generators written out family by family, as it
    stood before the table ``_STRUCTURE`` replaced it."""
    f1, f2 = g1.family, g2.family
    m, n = g1.index, g2.index
    if f1 == "L":
        if f2 == "L":
            coeff = m - n
            fam = "L"
        elif f2 == "Y":
            coeff = m / 2 - n
            fam = "Y"
        else:
            coeff = -n
            fam = "M"
    elif f1 == "Y":
        if f2 == "L":
            coeff = -(n / 2 - m)
            fam = "Y"
        elif f2 == "Y":
            coeff = m - n
            fam = "M"
        else:
            return ZERO
    else:  # f1 == "M"
        if f2 == "L":
            coeff = m
            fam = "M"
        else:
            return ZERO
    if not coeff:
        return ZERO
    return Element.monomial(gen(fam, m + n), coeff)


STRUCTURE_INDICES = (
    [Fraction(i) for i in range(-4, 5)]
    + [Fraction(i, 2) for i in range(-5, 6, 2)]
    + [Fraction(22, 7), Fraction(-5, 3), Fraction(10**41 + 7), Fraction(-(10**42) + 3, 7)]
)


class TestStructureTable:
    @pytest.mark.parametrize("f1", "LYM")
    @pytest.mark.parametrize("f2", "LYM")
    def test_matches_the_family_by_family_bracket(self, f1, f2):
        """Every family pair, on and off the lattices and at 40-plus
        digits: the same value, the same coefficient type, and ZERO itself
        where the bracket vanishes."""
        for m in STRUCTURE_INDICES:
            for n in STRUCTURE_INDICES:
                g1, g2 = gen(f1, m), gen(f2, n)
                got, want = _bracket_pair(g1, g2), _reference_bracket_pair(g1, g2)
                assert got == want, (g1, g2)
                assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
                assert (got is ZERO) == (want is ZERO)

    @pytest.mark.parametrize("f1", "LYM")
    @pytest.mark.parametrize("f2", "LYM")
    def test_structure_gives_four_times_the_coefficient_on_doubled_indices(self, f1, f2):
        """At integer doubled indices d1, d2, on and off the lattices and at
        40-plus digits, ``structure`` is the family-by-family bracket at
        indices d1/2, d2/2: None where it vanishes, else the value's family
        and the int 4c, the value sitting at doubled index d1 + d2."""
        doubled = list(range(-9, 10)) + [2 * 10**41 + 14, -(10**42) + 3]
        for d1 in doubled:
            for d2 in doubled:
                got = structure(f1, d1, f2, d2)
                want = _reference_bracket_pair(gen(f1, Fraction(d1, 2)), gen(f2, Fraction(d2, 2)))
                if want is ZERO:
                    assert got is None, (f1, d1, f2, d2)
                    continue
                ((g, c),) = want.terms.items()
                assert got == (g.family, 4 * c), (f1, d1, f2, d2)
                assert type(got[1]) is int
                assert 2 * g.index == d1 + d2

    def test_table_holds_the_four_listed_rows(self):
        assert sorted(algebra._STRUCTURE) == [("L", "L"), ("L", "M"), ("L", "Y"), ("Y", "Y")]

    def test_generators_carry_their_doubled_index(self):
        """``twice`` is 2 * index: an int on the L and M lattice and on the
        Y lattice of both parities, at 40-plus digits too, and the exact
        Fraction off them."""
        on = [("L", -3), ("L", 0), ("M", 5), ("M", -(10**41) - 7)]
        on += [("Y", 2), ("Y", Fraction(-7, 2)), ("Y", Fraction(1, 2))]
        for f, i in on:
            g = gen(f, i)
            assert g.twice == 2 * i and type(g.twice) is int, g
        off = GeneratorId("L", Fraction(1, 3))
        assert off.twice == Fraction(2, 3) and type(off.twice) is Fraction


class TestDomainError:
    def test_validate_generator_raises_it(self):
        with pytest.raises(algebra.DomainError, match=r"^index 1/2 invalid for family Y at epsilon=0$"):
            validate_generator(Y(Fraction(1, 2)), CFG0)
        with pytest.raises(algebra.DomainError, match=r"^index 1 invalid for family Y at epsilon=1/2$"):
            validate_generator(Y(1), CFG_HALF)

    def test_parser_raises_the_same_class_and_message(self):
        with pytest.raises(algebra.DomainError) as parsed:
            parse_generator("Y[1/2]", CFG0)
        with pytest.raises(algebra.DomainError) as validated:
            validate_generator(Y(Fraction(1, 2)), CFG0)
        assert type(parsed.value) is type(validated.value)
        assert str(parsed.value) == str(validated.value)

    def test_one_class(self):
        import svalgebra

        assert svalgebra.DomainError is parsing.DomainError is algebra.DomainError
        assert issubclass(algebra.DomainError, ValueError)


class TestGenerators:
    def test_interning(self):
        assert gen("L", 2) is gen("L", Fraction(2))

    def test_ordering_key(self):
        fams = [L(0), Y(0), M(0)]
        assert sorted(fams, key=lambda g: g.sort_key()) == fams

    def test_grade(self):
        assert grade(L(-4)) == -4
        assert grade(Y(Fraction(1, 2))) == Fraction(1, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen("X", 0)

    def test_parity_validation(self):
        validate_generator(Y(1), CFG0)
        validate_generator(Y(Fraction(1, 2)), CFG_HALF)
        with pytest.raises(ValueError):
            validate_generator(Y(Fraction(1, 2)), CFG0)
        with pytest.raises(ValueError):
            validate_generator(Y(1), CFG_HALF)
        with pytest.raises(ValueError):
            validate_generator(L(Fraction(1, 2)), CFG0)


class TestElement:
    def test_cancellation(self):
        e = Element.monomial(L(2)) - Element.monomial(L(2))
        assert e == ZERO
        assert not e.terms

    def test_scaling(self):
        e = Element.monomial(L(1), Fraction(3))
        assert e.scaled(Fraction(0)) == ZERO
        assert (Fraction(2) * e).coefficient(L(1)) == 6

    def test_format_roundtrip_shape(self):
        e = Element({L(2): Fraction(3), Y(-1): Fraction(1, 2), M(0): Fraction(-1)})
        assert format_element(e) == "3*L[2] + 1/2*Y[-1] - 1*M[0]"

    def test_zero_format(self):
        assert format_element(ZERO) == "0"


def int_from_text(text):
    """The integer a decimal string denotes, read in slices of at most 4000
    digits, below the interpreter's 4300-digit int-string limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert digits == "0" or (digits and digits[0] != "0")
    n = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


class TestLongCoefficients:
    """Rationals past the interpreter's int-string limit print exactly,
    and the limit itself is left as it is."""

    def test_small_rationals_print_as_str(self):
        for q in (Fraction(0), Fraction(7), Fraction(-3, 2), Fraction(10**4299, 3)):
            assert format_rational(q) == str(q)

    def test_six_thousand_digit_numerators_and_denominators(self):
        limit = sys.get_int_max_str_digits()
        rng = random.Random(6000)
        num = rng.randrange(10**5999, 10**6000)
        den = rng.randrange(10**5999, 10**6000)
        for q in (Fraction(num), Fraction(-num), Fraction(num, den), Fraction(-den, num)):
            head, _, tail = format_rational(q).partition("/")
            assert int_from_text(head) == q.numerator
            assert int_from_text(tail or "1") == q.denominator
        assert format_rational(Fraction(num, den)).count("/") == 1
        assert sys.get_int_max_str_digits() == limit

    def test_inner_zeros_are_kept(self):
        assert format_rational(Fraction(10**5000 + 7)) == "1" + "0" * 4999 + "7"
        assert format_rational(Fraction(-1, 10**6000)) == "-1/1" + "0" * 6000

    def test_format_element_with_long_coefficients(self):
        q = Fraction(random.Random(1).randrange(10**5999, 10**6000), 7)
        text = format_rational(q)
        assert format_element(Element({L(1): q, M(-2): 1})) == f"{text}*L[1] + 1*M[-2]"
        assert format_element(Element({L(1): 1, M(-2): -q})) == f"1*L[1] - {text}*M[-2]"


_indices = st.integers(min_value=-4, max_value=4)
_coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda q: q != 0)


@st.composite
def elements(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    e = ZERO
    for _ in range(n):
        fam = draw(st.sampled_from("LYM"))
        e = e + Element.monomial(gen(fam, draw(_indices)), draw(_coeffs))
    return e


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetric(x, y):
    assert bracket(x, y, CFG0) == -bracket(y, x, CFG0)


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_jacobi_identity(x, y, z):
    assert jacobi_defect(x, y, z, CFG0) == ZERO


@given(elements(), elements(), elements(), _coeffs)
@settings(max_examples=60, deadline=None)
def test_bracket_bilinear(x, y, z, c):
    left = bracket(x + y.scaled(c), z, CFG0)
    assert left == bracket(x, z, CFG0) + bracket(y, z, CFG0).scaled(c)


@given(elements())
@settings(max_examples=60, deadline=None)
def test_grading(x):
    """[L_0, x] collects -grade per term: checks the index bookkeeping."""
    e0 = Element.monomial(L(0))
    expected = Element({g: -grade(g) * c for g, c in x.terms.items() if grade(g) * c != 0})
    assert bracket(e0, x, CFG0) == expected
