r"""Surface syntax for elements, operators, tensors and shift sets.

Element grammar:

    element   := [sign] term { sign term }
    term      := [ rational "*" ] generator | rational
    generator := ("L"|"Y"|"M") "[" rational "]"
    rational  := integer [ "/" positive-integer ]
    sign      := "+" | "-"

Recursive descent over three compiled patterns, each matched in place
with ``pattern.match(text, pos)``: ``_SPACE`` (``\s*``), ``_RATIONAL``
(``(-?)([0-9]*)(?:/([0-9]*))?``) and ``_FAMILY`` (``[LYM]``).  Each
helper takes ``(text, pos)`` and returns ``(value, new_pos)``.  Whitespace
is exactly what ``str.isspace()`` accepts, which is what ``\s`` matches.

Each distinct token of one call is converted once.  Every public entry
point makes a token memo, a dict that lives for that call only (for the
``parse_*_lines`` readers, one whole file), and hands it down to
``_generator`` and ``_rational``.  A generator is keyed on the exact text
it reads, from its family letter through the first ``]``; a rational on
its matched token.  A token's value depends only on its text and ``cfg``,
so a hit returns what the full read would.  Only successes are stored: a
failing token is read in full every time, so its ParseError or
DomainError always carries the message and position of that read.  The
memo is never module state, so no call sees a token read by another one,
under another epsilon perhaps.

Whitespace may separate tokens, but a rational is one token: none may
follow its ``-`` or surround its ``/`` (``L[- 1]``, ``1 /2*L[0]``), nor
stand between ``mu`` and ``[``.  Digits are ASCII ``0``-``9`` (``\d``
would also accept ``²`` and ``٣``), at most as many in one run as the
interpreter converts to an int (4300 by default).  The limit applies to
input only: printed rationals are exact at any length.

A lone rational is rejected with one exception: the exact input ``0``
denotes the zero element, so the canonical printed form of every element
parses back.  Syntax problems raise ParseError with a position; index
lattice violations (e.g. ``Y[1/2]`` with epsilon = 0) raise DomainError
from ``algebra.validate_generator``, which states the lattices once.

One line loop reads the three file formats (``GEN -> element``,
``(GEN, GEN) -> element``, ``mu[k] = rational``): it drops ``#`` comments
and blank lines and puts the line number in front of every error, whose
position counts within the stripped text that was parsed (a side of the
separator, or the k of ``mu[k]``).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, Tuple

from .algebra import AlgebraConfig, DomainError, Element, GeneratorId, format_rational, gen, validate_generator

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


_SPACE = re.compile(r"\s*")
_RATIONAL = re.compile(r"(-?)([0-9]*)(?:/([0-9]*))?")
_FAMILY = re.compile(r"[LYM]")
_ONE = Fraction(1)

# token text -> value, made afresh by each public entry point: a generator
# key starts with its family letter, which no rational token contains
_Memo = Dict[str, Any]


class ParseError(ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


def _skip(text: str, pos: int) -> int:
    return _SPACE.match(text, pos).end()


def _expect(text: str, pos: int, ch: str) -> int:
    pos = _skip(text, pos)
    if not text.startswith(ch, pos):
        raise ParseError(f"expected {ch!r}", pos)
    return pos + 1


def _end(text: str, pos: int, what: str) -> None:
    pos = _skip(text, pos)
    if pos < len(text):
        raise ParseError(f"trailing input after {what}", pos)


def _int(digits: str, pos: int) -> int:
    if not digits:
        raise ParseError("expected digits", pos)
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError(f"too many digits ({len(digits)})", pos) from None


def _rational(text: str, pos: int, memo: _Memo) -> Tuple[Fraction, int]:
    m = _RATIONAL.match(text, _skip(text, pos))
    token = m.group()
    value = memo.get(token)
    if value is None:
        minus, num_digits, den_digits = m.groups()
        num = _int(num_digits, m.start(2))
        den = 1
        if den_digits is not None:
            den = _int(den_digits, m.start(3))
            if den == 0:
                raise ParseError("zero denominator", m.start(3))
        value = memo[token] = Fraction(-num if minus else num, den)
    return value, m.end()


def _generator(text: str, pos: int, cfg: AlgebraConfig, memo: _Memo) -> Tuple[GeneratorId, int]:
    pos = _skip(text, pos)
    # a successful read ends at the first "]" after pos, since nothing it
    # reads before that bracket can be one: that slice is the memo key
    end = text.find("]", pos) + 1
    key = text[pos:end]
    g = memo.get(key) if end else None
    if g is not None:
        return g, end
    if not _FAMILY.match(text, pos):
        raise ParseError("expected generator family L, Y or M", pos)
    fam = text[pos]
    index, pos = _rational(text, _expect(text, pos + 1, "["), memo)
    pos = _expect(text, pos, "]")
    g = gen(fam, index)
    validate_generator(g, cfg)
    memo[key] = g
    return g, pos


def _term(text: str, pos: int, cfg: AlgebraConfig, memo: _Memo) -> Tuple[Fraction, GeneratorId, int]:
    pos = _skip(text, pos)
    if _FAMILY.match(text, pos):
        g, pos = _generator(text, pos, cfg, memo)
        return _ONE, g, pos
    coeff, end = _rational(text, pos, memo)
    end = _skip(text, end)
    if not text.startswith("*", end):
        raise ParseError("lone rational: a coefficient needs '*' and a generator", pos)
    g, end = _generator(text, end + 1, cfg, memo)
    return coeff, g, end


def _element(text: str, cfg: AlgebraConfig, memo: _Memo) -> Element:
    if text.strip() == "0":
        return Element()
    pos = _skip(text, 0)
    if pos == len(text):
        raise ParseError("empty element expression", pos)
    acc: Dict[GeneratorId, Fraction] = {}
    sign = text[pos]
    if sign in ("+", "-"):
        pos += 1
    while True:
        coeff, g, pos = _term(text, pos, cfg, memo)
        if sign == "-":
            coeff = -coeff
        old = acc.get(g)
        nv = coeff if old is None else old + coeff
        if nv:
            acc[g] = nv
        else:
            acc.pop(g, None)
        pos = _skip(text, pos)
        if pos == len(text):
            break
        sign = text[pos]
        if sign not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", pos)
        pos += 1
    return Element(acc)


def _whole_generator(text: str, cfg: AlgebraConfig, memo: _Memo) -> GeneratorId:
    g, pos = _generator(text, 0, cfg, memo)
    _end(text, pos, "generator")
    return g


def _whole_rational(text: str, memo: _Memo) -> Fraction:
    r, pos = _rational(text, 0, memo)
    _end(text, pos, "rational")
    return r


def parse_element(text: str, cfg: AlgebraConfig) -> Element:
    return _element(text, cfg, {})


def parse_generator(text: str, cfg: AlgebraConfig) -> GeneratorId:
    return _whole_generator(text, cfg, {})


def parse_rational(text: str) -> Fraction:
    return _whole_rational(text, {})


def _on_line(lineno: int, exc: ValueError) -> ValueError:
    """The same error with its file line number in front of the message."""
    if isinstance(exc, ParseError):
        return ParseError(f"line {lineno}: {exc.reason}", exc.position)
    return type(exc)(f"line {lineno}: {exc}")


def _entries(text: str, sep: str, parse: Callable[[str, str], Tuple[Any, Any]]) -> Iterator[Tuple[int, Any, Any]]:
    """Yield (line number, key, value) for each `left sep right` line, with
    comments and blank lines dropped.  ``parse`` reads the stripped sides;
    its errors come out with the line number in front."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, found, rhs = line.partition(sep)
        if not found:
            raise ParseError(f"line {lineno}: missing {sep!r}", 0)
        try:
            key, value = parse(lhs.strip(), rhs.strip())
        except ValueError as exc:
            raise _on_line(lineno, exc) from None
        yield lineno, key, value


def parse_operator_lines(text: str, cfg: AlgebraConfig) -> Dict[GeneratorId, Element]:
    """Operator file: one `GEN -> element` line per generator, `#` comments.

    Omitted generators are implicitly zero; that default is applied by the
    operator constructor, not here.
    """

    memo: _Memo = {}

    def entry(lhs: str, rhs: str) -> Tuple[GeneratorId, Element]:
        return _whole_generator(lhs, cfg, memo), _element(rhs, cfg, memo)

    action: Dict[GeneratorId, Element] = {}
    for lineno, g, img in _entries(text, "->", entry):
        if g in action:
            raise ParseError(f"line {lineno}: duplicate generator {g}", 0)
        action[g] = img
    return action


def parse_tensor_lines(text: str, cfg: AlgebraConfig) -> Dict[Tuple[GeneratorId, GeneratorId], Element]:
    """Tensor file: `(GEN, GEN) -> element` lines, `#` comments."""

    memo: _Memo = {}

    def entry(lhs: str, rhs: str) -> Tuple[Tuple[GeneratorId, GeneratorId], Element]:
        g1, pos = _generator(lhs, _expect(lhs, 0, "("), cfg, memo)
        g2, pos = _generator(lhs, _expect(lhs, pos, ","), cfg, memo)
        _end(lhs, _expect(lhs, pos, ")"), "pair")
        return (g1, g2), _element(rhs, cfg, memo)

    tensor: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}
    for lineno, (g1, g2), img in _entries(text, "->", entry):
        if (g1, g2) in tensor:
            raise ParseError(f"line {lineno}: duplicate pair ({g1}, {g2})", 0)
        tensor[(g1, g2)] = img
    return tensor


def _shift_entry(lhs: str, rhs: str, memo: _Memo) -> Tuple[int, Fraction]:
    if not (lhs.startswith("mu[") and lhs.endswith("]")):
        raise ParseError("expected mu[k] on the left", 0)
    k = _whole_rational(lhs[3:-1].strip(), memo)
    value = _whole_rational(rhs, memo)
    if k.denominator != 1:
        raise DomainError(f"shift {k} is not an integer")
    return int(k), value


def parse_omega_lines(text: str) -> Dict[int, Fraction]:
    """Shift-set file: `mu[k] = rational` lines, `#` comments, each integer
    k at most once (zero values too, which are then dropped)."""
    memo: _Memo = {}
    mu: Dict[int, Fraction] = {}
    for lineno, k, value in _entries(text, "=", lambda lhs, rhs: _shift_entry(lhs, rhs, memo)):
        if k in mu:
            raise ParseError(f"line {lineno}: duplicate shift {k}", 0)
        mu[k] = value
    return {k: v for k, v in mu.items() if v}


def format_omega_lines(mu: Dict[int, Fraction]) -> str:
    return "\n".join(f"mu[{k}] = {format_rational(mu[k])}" for k in sorted(mu))


def format_operator_lines(action: Dict[GeneratorId, Element]) -> str:
    keys = sorted(action, key=GeneratorId.sort_key)
    return "\n".join(f"{g} -> {action[g]}" for g in keys)


def format_tensor_lines(tensor: Dict[Tuple[GeneratorId, GeneratorId], Element]) -> str:
    def pair_key(pair):
        return (pair[0].sort_key(), pair[1].sort_key())

    keys = sorted(tensor, key=pair_key)
    return "\n".join(f"({g1}, {g2}) -> {tensor[(g1, g2)]}" for g1, g2 in keys)
