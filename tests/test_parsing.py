"""Surface syntax: element expressions and the plain-text file formats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from svalgebra import (
    AlgebraConfig,
    DomainError,
    Element,
    ParseError,
    ZERO,
    format_element,
    gen,
    parse_element,
    parse_generator,
    parse_omega_lines,
    parse_operator_lines,
    parse_rational,
    parse_tensor_lines,
)
from svalgebra.parsing import format_operator_lines, format_tensor_lines, format_omega_lines

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))


class TestParseElement:
    def test_three_terms(self):
        e = parse_element("3*L[2] + 1/2*Y[-1] - M[0]", CFG0)
        assert len(e.terms) == 3
        assert e.coefficient(gen("L", 2)) == 3
        assert e.coefficient(gen("Y", -1)) == Fraction(1, 2)
        assert e.coefficient(gen("M", 0)) == -1

    def test_cancellation(self):
        assert parse_element("L[2] - L[2]", CFG0) == ZERO

    def test_whitespace_insignificant(self):
        a = parse_element("2*L[ 1 ]+M[-2]", CFG0)
        b = parse_element("  2 * L[1] + M[ -2 ]  ", CFG0)
        assert a == b

    def test_parity_domain_error(self):
        with pytest.raises(DomainError):
            parse_element("Y[1/2]", CFG0)
        with pytest.raises(DomainError):
            parse_element("Y[1]", CFG_HALF)
        parse_element("Y[1/2]", CFG_HALF)

    def test_lone_rational_rejected(self):
        with pytest.raises(ParseError):
            parse_element("5", CFG0)
        with pytest.raises(ParseError):
            parse_element("L[1] + 3", CFG0)

    def test_explicit_zero_allowed(self):
        # the one bare rational with an unambiguous meaning
        assert parse_element("0", CFG0) == ZERO

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("L[2", CFG0)
        assert "position" in str(err.value)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_element("1/0*L[2]", CFG0)

    def test_signs(self):
        e = parse_element("-L[1] + 2*L[1] - 3*L[1]", CFG0)
        assert e.coefficient(gen("L", 1)) == -2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_element("L[1] ?", CFG0)

    def test_generator_and_rational_helpers(self):
        assert parse_generator("Y[-3/2]", CFG_HALF) == gen("Y", Fraction(-3, 2))
        assert parse_rational("-7/3") == Fraction(-7, 3)
        with pytest.raises(ParseError):
            parse_generator("L[1] + L[2]", CFG0)


_indices = st.integers(min_value=-6, max_value=6)
_coeffs = st.fractions(min_value=-9, max_value=9).filter(lambda q: q != 0)


@st.composite
def elements(draw):
    pairs = draw(
        st.dictionaries(
            st.tuples(st.sampled_from("LYM"), _indices), _coeffs, max_size=5
        )
    )
    return Element({gen(f, i): c for (f, i), c in pairs.items()})


@given(elements())
@settings(max_examples=120, deadline=None)
def test_print_parse_roundtrip(e):
    assert parse_element(format_element(e), CFG0) == e


class TestFileFormats:
    def test_operator_lines(self):
        text = """
        # image of the lowest generator
        L[-1] -> 2*M[-1]
        Y[0]  -> Y[0] - M[0]
        """
        action = parse_operator_lines(text, CFG0)
        assert action[gen("L", -1)] == Element.monomial(gen("M", -1), Fraction(2))
        assert len(action) == 2

    def test_operator_roundtrip(self):
        action = {
            gen("L", 0): Element.monomial(gen("M", 0), Fraction(-1, 3)),
            gen("Y", 2): ZERO,
        }
        back = parse_operator_lines(format_operator_lines(action), CFG0)
        assert back == action

    def test_tensor_lines(self):
        text = "(L[1], L[2]) -> M[3]\n(L[2], L[1]) -> M[3]\n"
        tensor = parse_tensor_lines(text, CFG0)
        assert tensor[(gen("L", 1), gen("L", 2))] == Element.monomial(gen("M", 3))
        assert len(tensor) == 2

    def test_tensor_roundtrip(self):
        tensor = {
            (gen("L", 1), gen("Y", -1)): Element.monomial(gen("Y", 0), Fraction(5, 2)),
            (gen("M", 0), gen("M", 0)): ZERO,
        }
        back = parse_tensor_lines(format_tensor_lines(tensor), CFG0)
        assert back == tensor

    def test_omega_lines(self):
        text = "# tail\nmu[3] = 2017\nmu[-1] = -1/2\n"
        assert parse_omega_lines(text) == {3: Fraction(2017), -1: Fraction(-1, 2)}

    def test_omega_roundtrip(self):
        mu = {0: Fraction(1), 4: Fraction(-3, 7)}
        assert parse_omega_lines(format_omega_lines(mu)) == mu

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_operator_lines("L[1] -> M[1]\nL[1] -> M[2]\n", CFG0)

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_operator_lines("L[1] => M[1]\n", CFG0)

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (lambda t: parse_operator_lines(t, CFG0), "L[1] -> M[1]\nL[2] -> L[oops]\n", 2),
            (lambda t: parse_tensor_lines(t, CFG0), "\n(L[0], L[1]) -> L[oops]\n", 2),
            (parse_omega_lines, "mu[0] = 1\n# tail\nmu[x] = 1\n", 0),
        ],
        ids=["operator", "tensor", "omega"],
    )
    def test_malformed_expression_names_its_line(self, parse, text, position):
        lineno = 2 if "oops" in text else 3
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert str(info.value).startswith(f"line {lineno}: expected digits")
        assert str(info.value).count("(at position") == 1

    def test_domain_error_names_its_line(self):
        with pytest.raises(DomainError, match=r"^line 1: index 1/2 invalid"):
            parse_operator_lines("L[1] -> Y[1/2]\n", CFG0)
