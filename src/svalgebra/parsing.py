"""Surface syntax for elements, operators, tensors and shift sets.

Element grammar (whitespace insignificant):

    element   := [sign] term { sign term }
    term      := [ rational "*" ] generator | rational
    generator := ("L"|"Y"|"M") "[" rational "]"
    rational  := integer [ "/" positive-integer ]
    sign      := "+" | "-"

A lone rational is rejected with one exception: the exact input ``0``
denotes the zero element, so the canonical printed form of every element
parses back.  Syntax problems raise ParseError with a position; index
lattice violations (e.g. ``Y[1/2]`` with epsilon = 0) raise DomainError.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .algebra import AlgebraConfig, Element, GeneratorId, gen, validate_generator

__all__ = [
    "ParseError",
    "DomainError",
    "parse_element",
    "parse_generator",
    "parse_rational",
    "parse_operator_lines",
    "parse_tensor_lines",
    "parse_omega_lines",
    "format_omega_lines",
    "format_operator_lines",
    "format_tensor_lines",
]


class ParseError(ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


class DomainError(ValueError):
    """Syntactically fine but the index is off its family's lattice, or
    the generator lies outside the window it is used on."""


class _Cursor:
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


def _parse_digits(cur: _Cursor) -> int:
    start = cur.pos
    while cur.peek().isdigit():
        cur.pos += 1
    if cur.pos == start:
        raise ParseError("expected digits", cur.pos)
    return int(cur.text[start:cur.pos])


def _parse_rational(cur: _Cursor) -> Fraction:
    cur.skip_ws()
    negative = False
    if cur.peek() == "-":
        cur.take()
        negative = True
    num = _parse_digits(cur)
    den = 1
    if cur.peek() == "/":
        cur.take()
        den_pos = cur.pos
        den = _parse_digits(cur)
        if den == 0:
            raise ParseError("zero denominator", den_pos)
    return Fraction(-num if negative else num, den)


def _parse_generator(cur: _Cursor, cfg: AlgebraConfig) -> GeneratorId:
    cur.skip_ws()
    fam = cur.peek()
    if fam not in ("L", "Y", "M"):
        raise ParseError("expected generator family L, Y or M", cur.pos)
    cur.take()
    cur.skip_ws()
    cur.expect("[")
    index = _parse_rational(cur)
    cur.skip_ws()
    cur.expect("]")
    g = gen(fam, index)
    if not cfg.valid_index(fam, index):
        raise DomainError(
            f"index {index} invalid for family {fam} at epsilon={cfg.epsilon}"
        )
    return g


def _parse_term(cur: _Cursor, cfg: AlgebraConfig) -> Tuple[Fraction, GeneratorId]:
    cur.skip_ws()
    ch = cur.peek()
    if ch in ("L", "Y", "M"):
        return Fraction(1), _parse_generator(cur, cfg)
    term_pos = cur.pos
    coeff = _parse_rational(cur)
    cur.skip_ws()
    if cur.peek() != "*":
        raise ParseError("lone rational: a coefficient needs '*' and a generator", term_pos)
    cur.take()
    return coeff, _parse_generator(cur, cfg)


def parse_element(text: str, cfg: AlgebraConfig) -> Element:
    if text.strip() == "0":
        return Element()
    cur = _Cursor(text)
    cur.skip_ws()
    if cur.at_end():
        raise ParseError("empty element expression", cur.pos)
    acc: Dict[GeneratorId, Fraction] = {}
    sign = Fraction(1)
    if cur.peek() in ("+", "-"):
        sign = Fraction(-1) if cur.take() == "-" else Fraction(1)
    while True:
        coeff, g = _parse_term(cur, cfg)
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


def parse_generator(text: str, cfg: AlgebraConfig) -> GeneratorId:
    cur = _Cursor(text)
    g = _parse_generator(cur, cfg)
    cur.skip_ws()
    if not cur.at_end():
        raise ParseError("trailing input after generator", cur.pos)
    return g


def parse_rational(text: str) -> Fraction:
    cur = _Cursor(text)
    r = _parse_rational(cur)
    cur.skip_ws()
    if not cur.at_end():
        raise ParseError("trailing input after rational", cur.pos)
    return r


def _on_line(lineno: int, exc: ValueError) -> ValueError:
    """The same error with its file line number in front of the message."""
    if isinstance(exc, ParseError):
        return ParseError(f"line {lineno}: {exc.reason}", exc.position)
    return type(exc)(f"line {lineno}: {exc}")


def _content_lines(text: str):
    """Yield (line number, text) with comments and blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_operator_lines(text: str, cfg: AlgebraConfig) -> Dict[GeneratorId, Element]:
    """Operator file: one `GEN -> element` line per generator, `#` comments.

    Omitted generators are implicitly zero; that default is applied by the
    operator constructor, not here.
    """
    action: Dict[GeneratorId, Element] = {}
    for lineno, line in _content_lines(text):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"line {lineno}: missing '->'", 0)
        try:
            g = parse_generator(lhs.strip(), cfg)
            img = parse_element(rhs.strip(), cfg)
        except ValueError as exc:
            raise _on_line(lineno, exc) from None
        if g in action:
            raise ParseError(f"line {lineno}: duplicate generator {g}", 0)
        action[g] = img
    return action


def parse_tensor_lines(text: str, cfg: AlgebraConfig) -> Dict[Tuple[GeneratorId, GeneratorId], Element]:
    """Tensor file: `(GEN, GEN) -> element` lines, `#` comments."""
    tensor: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}
    for lineno, line in _content_lines(text):
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError(f"line {lineno}: missing '->'", 0)
        try:
            cur = _Cursor(lhs.strip())
            cur.skip_ws()
            cur.expect("(")
            g1 = _parse_generator(cur, cfg)
            cur.skip_ws()
            cur.expect(",")
            g2 = _parse_generator(cur, cfg)
            cur.skip_ws()
            cur.expect(")")
            cur.skip_ws()
            if not cur.at_end():
                raise ParseError("trailing input after pair", cur.pos)
            img = parse_element(rhs.strip(), cfg)
        except ValueError as exc:
            raise _on_line(lineno, exc) from None
        key = (g1, g2)
        if key in tensor:
            raise ParseError(f"line {lineno}: duplicate pair ({g1}, {g2})", 0)
        tensor[key] = img
    return tensor


def parse_omega_lines(text: str) -> Dict[int, Fraction]:
    """Shift-set file: `mu[k] = rational` lines, `#` comments, k an integer."""
    mu: Dict[int, Fraction] = {}
    for lineno, line in _content_lines(text):
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: missing '='", 0)
        lhs = lhs.strip()
        if not (lhs.startswith("mu[") and lhs.endswith("]")):
            raise ParseError(f"line {lineno}: expected mu[k] on the left", 0)
        try:
            k_frac = parse_rational(lhs[3:-1].strip())
            value = parse_rational(rhs.strip())
        except ValueError as exc:
            raise _on_line(lineno, exc) from None
        if k_frac.denominator != 1:
            raise DomainError(f"line {lineno}: shift {k_frac} is not an integer")
        k = int(k_frac)
        if k in mu:
            raise ParseError(f"line {lineno}: duplicate shift {k}", 0)
        if value:
            mu[k] = value
    return mu


def format_omega_lines(mu: Dict[int, Fraction]) -> str:
    return "\n".join(f"mu[{k}] = {mu[k]}" for k in sorted(mu))


def format_operator_lines(action: Dict[GeneratorId, Element]) -> str:
    keys = sorted(action, key=GeneratorId.sort_key)
    return "\n".join(f"{g} -> {action[g]}" for g in keys)


def format_tensor_lines(tensor: Dict[Tuple[GeneratorId, GeneratorId], Element]) -> str:
    def pair_key(pair):
        return (pair[0].sort_key(), pair[1].sort_key())

    keys = sorted(tensor, key=pair_key)
    return "\n".join(f"({g1}, {g2}) -> {tensor[(g1, g2)]}" for g1, g2 in keys)
