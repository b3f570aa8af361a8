"""Surface syntax: element expressions and the plain-text file formats."""

import re
import sys
from fractions import Fraction
from functools import partial
from typing import Dict, Tuple

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    DomainError,
    Element,
    GeneratorId,
    ParseError,
    Window,
    ZERO,
    format_element,
    gen,
    parse_element,
    parse_generator,
    parse_omega_lines,
    parse_operator_lines,
    parse_rational,
    parse_tensor_lines,
    realize,
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

    @pytest.mark.parametrize("text", ["L[\u00b2]", "L[\u0663]"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digits_rejected(self, text):
        # str.isdigit accepts both; int() rejects the first, reads the second as 3
        with pytest.raises(ParseError) as info:
            parse_element(text, CFG0)
        assert str(info.value) == "expected digits (at position 2)"

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


_LONG = "1" * 5000  # longer than int()'s default 4300-digit limit


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

    @pytest.mark.parametrize("text", ["mu[1] = 0\nmu[1] = 5", "mu[1] = 5\nmu[1] = 0"], ids=["zero-first", "zero-last"])
    def test_omega_repeated_shift_rejected(self, text):
        with pytest.raises(ParseError, match=r"^line 2: duplicate shift 1 "):
            parse_omega_lines(text)

    def test_omega_coefficient_past_the_digit_limit(self):
        """Printing needs no interpreter setting; reading back a 6000-digit
        run needs the interpreter's digit limit lifted, as any int() does."""
        mu = {1: Fraction(10**6000 - 1)}
        text = format_omega_lines(mu)
        assert text == "mu[1] = " + "9" * 6000
        with pytest.raises(ParseError, match=r"too many digits \(6000\)"):
            parse_omega_lines(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_omega_lines(text) == mu
        finally:
            sys.set_int_max_str_digits(limit)

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

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (lambda t: parse_element(t, CFG0), "L[1] + L[" + _LONG + "]", 9),
            (parse_rational, "-1/" + _LONG, 3),
            (lambda t: parse_tensor_lines(t, CFG0), "(L[0], L[1]) -> " + _LONG + "*M[1]", 0),
            (parse_omega_lines, "mu[1] = " + _LONG, 0),
        ],
        ids=["element", "rational", "tensor", "omega"],
    )
    def test_overlong_digit_run(self, parse, text, position):
        # int() refuses more digits than the interpreter's limit with a bare
        # ValueError; the parsers report it at the run's first digit
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position
        assert info.value.reason.endswith(f"too many digits ({len(_LONG)})")
        assert info.value.reason.startswith("line 1: ") == ("->" in text or "=" in text)

    def test_domain_error_names_its_line(self):
        with pytest.raises(DomainError, match=r"^line 1: index 1/2 invalid"):
            parse_operator_lines("L[1] -> Y[1/2]\n", CFG0)


_PARSERS = (
    lambda t: parse_element(t, CFG0),
    lambda t: parse_generator(t, CFG_HALF),
    parse_rational,
    lambda t: parse_operator_lines(t, CFG0),
    lambda t: parse_tensor_lines(t, CFG_HALF),
    parse_omega_lines,
)
_GRAMMAR = st.sampled_from(list("LYMmu[]()*/+-=>,#0123456789 \n"))
_UNICODE_DIGITS = st.characters(categories=("Nd", "No"))


@given(st.one_of(st.text(), st.text(st.one_of(_GRAMMAR, _UNICODE_DIGITS))))
@example("L[\u00b2]")
@example("L[\u0663]")
@example("mu[\u00b2] = 1")
@example("L[" + "1" * 5000 + "]")
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_their_own_errors(text):
    # malformed input is a usage error (ParseError or DomainError), never a
    # bare ValueError that the command line would report as an internal fault
    for parse in _PARSERS:
        try:
            parse(text)
        except (ParseError, DomainError):
            pass


# -- the character-cursor parser, kept as the reference ---------------------
# A verbatim copy of the parser that walked characters through a cursor
# object before it matched compiled patterns, renamed with a _reference
# prefix.  Both must return equal values and raise the same (type,
# message, position) on every input.

class _ReferenceCursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _reference_digits(cur: _ReferenceCursor) -> int:
    start = cur.pos
    while "0" <= cur.peek() <= "9":  # ASCII only: str.isdigit accepts "²" and "٣"
        cur.pos += 1
    if cur.pos == start:
        raise ParseError("expected digits", cur.pos)
    try:
        return int(cur.text[start:cur.pos])
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError(f"too many digits ({cur.pos - start})", start) from None


def _reference_rational(cur: _ReferenceCursor) -> Fraction:
    cur.skip_ws()
    negative = False
    if cur.peek() == "-":
        cur.take()
        negative = True
    num = _reference_digits(cur)
    den = 1
    if cur.peek() == "/":
        cur.take()
        den_pos = cur.pos
        den = _reference_digits(cur)
        if den == 0:
            raise ParseError("zero denominator", den_pos)
    return Fraction(-num if negative else num, den)


def _reference_generator(cur: _ReferenceCursor, cfg: AlgebraConfig) -> GeneratorId:
    cur.skip_ws()
    fam = cur.peek()
    if fam not in ("L", "Y", "M"):
        raise ParseError("expected generator family L, Y or M", cur.pos)
    cur.take()
    cur.skip_ws()
    cur.expect("[")
    index = _reference_rational(cur)
    cur.skip_ws()
    cur.expect("]")
    g = gen(fam, index)
    if not cfg.valid_index(fam, index):
        raise DomainError(
            f"index {index} invalid for family {fam} at epsilon={cfg.epsilon}"
        )
    return g


def _reference_term(cur: _ReferenceCursor, cfg: AlgebraConfig) -> Tuple[Fraction, GeneratorId]:
    cur.skip_ws()
    ch = cur.peek()
    if ch in ("L", "Y", "M"):
        return Fraction(1), _reference_generator(cur, cfg)
    term_pos = cur.pos
    coeff = _reference_rational(cur)
    cur.skip_ws()
    if cur.peek() != "*":
        raise ParseError("lone rational: a coefficient needs '*' and a generator", term_pos)
    cur.take()
    return coeff, _reference_generator(cur, cfg)


def _reference_parse_element(text: str, cfg: AlgebraConfig) -> Element:
    if text.strip() == "0":
        return Element()
    cur = _ReferenceCursor(text)
    cur.skip_ws()
    if cur.at_end():
        raise ParseError("empty element expression", cur.pos)
    acc: Dict[GeneratorId, Fraction] = {}
    sign = Fraction(1)
    if cur.peek() in ("+", "-"):
        sign = Fraction(-1) if cur.take() == "-" else Fraction(1)
    while True:
        coeff, g = _reference_term(cur, cfg)
        coeff *= sign
        nv = acc.get(g, Fraction(0)) + coeff
        if nv:
            acc[g] = nv
        else:
            acc.pop(g, None)
        cur.skip_ws()
        if cur.at_end():
            break
        ch = cur.take()
        if ch not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", cur.pos - 1)
        sign = Fraction(-1) if ch == "-" else Fraction(1)
    return Element(acc)


def _reference_parse_generator(text: str, cfg: AlgebraConfig) -> GeneratorId:
    cur = _ReferenceCursor(text)
    g = _reference_generator(cur, cfg)
    cur.skip_ws()
    if not cur.at_end():
        raise ParseError("trailing input after generator", cur.pos)
    return g


def _reference_parse_rational(text: str) -> Fraction:
    cur = _ReferenceCursor(text)
    r = _reference_rational(cur)
    cur.skip_ws()
    if not cur.at_end():
        raise ParseError("trailing input after rational", cur.pos)
    return r


def _reference_on_line(lineno: int, exc: ValueError) -> ValueError:
    """The same error with its file line number in front of the message."""
    if isinstance(exc, ParseError):
        return ParseError(f"line {lineno}: {exc.reason}", exc.position)
    return type(exc)(f"line {lineno}: {exc}")


def _reference_content_lines(text: str):
    """Yield (line number, text) with comments and blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _reference_parse_operator_lines(text: str, cfg: AlgebraConfig) -> Dict[GeneratorId, Element]:
    """Operator file: one `GEN -> element` line per generator, `#` comments.

    Omitted generators are implicitly zero; that default is applied by the
    operator constructor, not here.
    """
    action: Dict[GeneratorId, Element] = {}
    for lineno, line in _reference_content_lines(text):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"line {lineno}: missing '->'", 0)
        try:
            g = _reference_parse_generator(lhs.strip(), cfg)
            img = _reference_parse_element(rhs.strip(), cfg)
        except ValueError as exc:
            raise _reference_on_line(lineno, exc) from None
        if g in action:
            raise ParseError(f"line {lineno}: duplicate generator {g}", 0)
        action[g] = img
    return action


def _reference_parse_tensor_lines(text: str, cfg: AlgebraConfig) -> Dict[Tuple[GeneratorId, GeneratorId], Element]:
    """Tensor file: `(GEN, GEN) -> element` lines, `#` comments."""
    tensor: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}
    for lineno, line in _reference_content_lines(text):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"line {lineno}: missing '->'", 0)
        try:
            cur = _ReferenceCursor(lhs.strip())
            cur.skip_ws()
            cur.expect("(")
            g1 = _reference_generator(cur, cfg)
            cur.skip_ws()
            cur.expect(",")
            g2 = _reference_generator(cur, cfg)
            cur.skip_ws()
            cur.expect(")")
            cur.skip_ws()
            if not cur.at_end():
                raise ParseError("trailing input after pair", cur.pos)
            img = _reference_parse_element(rhs.strip(), cfg)
        except ValueError as exc:
            raise _reference_on_line(lineno, exc) from None
        key = (g1, g2)
        if key in tensor:
            raise ParseError(f"line {lineno}: duplicate pair ({g1}, {g2})", 0)
        tensor[key] = img
    return tensor


def _reference_parse_omega_lines(text: str) -> Dict[int, Fraction]:
    """Shift-set file: `mu[k] = rational` lines, `#` comments, each integer
    k at most once (zero values too, which are then dropped)."""
    mu: Dict[int, Fraction] = {}
    for lineno, line in _reference_content_lines(text):
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: missing '='", 0)
        lhs = lhs.strip()
        if not (lhs.startswith("mu[") and lhs.endswith("]")):
            raise ParseError(f"line {lineno}: expected mu[k] on the left", 0)
        try:
            k_frac = _reference_parse_rational(lhs[3:-1].strip())
            value = _reference_parse_rational(rhs.strip())
        except ValueError as exc:
            raise _reference_on_line(lineno, exc) from None
        if k_frac.denominator != 1:
            raise DomainError(f"line {lineno}: shift {k_frac} is not an integer")
        k = int(k_frac)
        if k in mu:
            raise ParseError(f"line {lineno}: duplicate shift {k}", 0)
        mu[k] = value
    return {k: v for k, v in mu.items() if v}


_CFGS = {"eps0": CFG0, "eps_half": CFG_HALF}
_ENTRY_POINTS = [
    ("rational", parse_rational, _reference_parse_rational),
    ("omega", parse_omega_lines, _reference_parse_omega_lines),
] + [
    (f"{name}-{label}", partial(new, cfg=cfg), partial(old, cfg=cfg))
    for label, cfg in _CFGS.items()
    for name, new, old in (
        ("element", parse_element, _reference_parse_element),
        ("generator", parse_generator, _reference_parse_generator),
        ("operator", parse_operator_lines, _reference_parse_operator_lines),
        ("tensor", parse_tensor_lines, _reference_parse_tensor_lines),
    )
]


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:
        return "raised", type(exc), str(exc), getattr(exc, "position", None)
    return "returned", type(value), value


# The grammar alphabet and a few of its words, Unicode whitespace
# (str.isspace is true for the first eight), a zero-width space (it is
# not), digits that str.isdigit accepts but the grammar does not, CRLF,
# and runs past int()'s 4300-digit limit.
_TOKENS = list("LYMmu[]()*/+-=>,#0123456789 \t\n") + [
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
    "\u200b", "\u00b2", "\u0663", "\r\n", "->", "mu[", "/0", "/2", " + ", "L[1]", "Y[1/2]",
    "1" * 4301, "0" * 4301, "-" + "9" * 4400,
]
_token_text = st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join)


def _realized_pools():
    """Printed realized N=5 forms, both parities, one line list per
    format: tensor lines, operator lines of one slice, the values alone
    (zero among them) and shift sets."""
    shifts = {-1: Fraction(5, 2), 2: Fraction(-4), 3: Fraction(0)}
    form = BiderivationForm(Fraction(-3, 7), shifts)
    pools = {"omega": format_omega_lines(shifts).splitlines(), "tensor": [], "operator": [], "element": []}
    z = gen("L", 1)
    for cfg in _CFGS.values():
        tensor = realize(form, Window(5), cfg).tensor
        pools["tensor"] += format_tensor_lines(tensor).splitlines()
        pools["element"] += sorted({str(v) for v in tensor.values()})
        pools["operator"] += format_operator_lines({g1: v for (g1, g2), v in tensor.items() if g2 is z}).splitlines()
    return list(pools.values())


_REALIZED = _realized_pools()


@st.composite
def _edited_realized_text(draw):
    """A run of printed lines of one format, its first line possibly
    repeated, joined by LF or CRLF, then edited a few times: a token
    inserted, or a span deleted, at a drawn position."""
    pool = draw(st.sampled_from(_REALIZED))
    start = draw(st.integers(0, len(pool) - 1))
    lines = pool[start:start + draw(st.integers(1, 4))]
    if draw(st.booleans()):
        lines.append(lines[0])
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
    return text


@given(st.one_of(_token_text, _edited_realized_text()))
@example("L[- 1]")
@example("1 /2*L[0]")
@example("-/2*L[0]")
@example("1/*L[0]")
@example("L[1] + 3")
@example("  -3 + L[1]")
@example("L[1] ?")
@example("\u3000L[1]\u2028+\x85 1/2 *\xa0M[0]\x1c")
@example("L[1]\u200b")
@example("L[\u00b2]")
@example("L[\u0663]")
@example("L[" + "1" * 5000 + "]")
@example("-1/" + "1" * 5000)
@example("mu[1/2] = x")
@example("mu[x] = 1")
@example("mu[1/2] = 3")
@example("1/0*L[1] + L[1/0]")
@example("mu [1] = 1")
@example("mu[1] = 1\r\nmu[1] = 0")
@example("(L[0], L[1]) -> 5")
@example("(L[0] L[1]) -> M[1]")
@example("(L[0], L[1]) x -> M[1]")
@example("(L[0], L[1]) -> M[1]\r\n(L[0],L[1])->M[1]")
@example("L[0] -> M[0]\nL[0] -> 0")
@example("\u3000 0\x85")
@example("-0")
@example("(L[0], L[1]) -> L[1]\n(L[1], L[0]) -> 2*L[1]\n(L[2], L[1) -> L[1 + L[2]")
@example("(L[ 1 ], L[1]) -> L[ 1 ] + L[1]\n(L[1], L[ 1]) -> L[1 ]")
@example("(L[0], Y[0]) -> Y[0]\n(L[1], Y[0]) -> Y[0] + Y[1/2]")
@example("L[0] -> 1/2*M[0]\nL[1] -> 1/2*M[1] + 1/2*L[1]\nL[2] -> 1/0*M[2]")
@settings(max_examples=400, deadline=None)
def test_parsers_match_the_reference(text):
    for name, new, old in _ENTRY_POINTS:
        assert _outcome(new, text) == _outcome(old, text), (name, text[:200])


@pytest.mark.parametrize("label", sorted(_CFGS))
def test_realized_n5_files_match_the_reference(label):
    cfg = _CFGS[label]
    form = BiderivationForm(Fraction(5, 3), {0: Fraction(-1, 2), 3: Fraction(7)})
    text = format_tensor_lines(realize(form, Window(5), cfg).tensor)
    assert parse_tensor_lines(text, cfg) == _reference_parse_tensor_lines(text, cfg)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_element, "3/2*Y[1/2] - Y[1/2]"),
        (parse_generator, "Y[1/2]"),
        (parse_operator_lines, "Y[1/2] -> 3/2*Y[1/2]"),
        (parse_tensor_lines, "(L[0], Y[1/2]) -> 3/2*Y[1/2]"),
    ],
    ids=["element", "generator", "operator", "tensor"],
)
def test_no_token_outlives_its_call(parse, text):
    """A token read under epsilon = 1/2 is read afresh under epsilon = 0."""
    first = parse(text, CFG_HALF)
    with pytest.raises(DomainError):
        parse(text, CFG0)
    assert parse(text, CFG_HALF) == first


@pytest.mark.parametrize("label", sorted(_CFGS))
def test_tensor_file_converts_each_distinct_token_once(label):
    """Each distinct generator and coefficient text of a file becomes a
    Fraction once: a realized N=5 file costs fewer than 4
    ``Fraction.__new__`` calls per line (over 10 when every occurrence
    was converted again)."""
    cfg = _CFGS[label]
    form = BiderivationForm(Fraction(5, 3), {0: Fraction(-1, 2), 3: Fraction(7)})
    text = format_tensor_lines(realize(form, Window(5), cfg).tensor)
    new = Fraction.__new__.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is new:
            calls += 1

    sys.setprofile(profile)
    try:
        parse_tensor_lines(text, cfg)
    finally:
        sys.setprofile(None)
    assert calls < 4 * len(text.splitlines())


def test_space_pattern_is_str_isspace():
    """\\s in a str pattern matches exactly the code points for which
    str.isspace() is true, so the pattern parser skips what the cursor
    parser skipped."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
