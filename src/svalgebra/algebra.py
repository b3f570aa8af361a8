"""Generators, elements and exact brackets of the Lie algebras SV(0), SV(1/2).

The algebra splits into three graded families over index sets determined by
the parity parameter epsilon:

    L_i  (i integer)          Witt-type generators
    Y_j  (j in epsilon + ZZ)  half-density currents
    M_i  (i integer)          central-tower generators

with brackets

    [L_m, L_n] = (m - n) L_{m+n}
    [L_m, Y_n] = (m/2 - n) Y_{m+n}
    [L_m, M_n] = -n M_{m+n}
    [Y_m, Y_n] = (m - n) M_{m+n}
    [Y_m, M_n] = [M_m, M_n] = 0

``structure`` reads the first four rows as integer polynomials of the
doubled indices, a swapped pair as the negative of its row.
``validate_generator`` is the one check of the index lattices, and raises
``DomainError``.

All coefficients are ``fractions.Fraction``; nothing here is ever
approximate.  M_0 is central.  A scalar is an int or a Fraction, and
``exact`` is where one enters: a float's binary value is rarely the number
meant, and text goes through ``parsing``.  ``format_rational`` is the one
printer of a rational, exact at any length.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

Scalar = Union[int, Fraction]

HALF = Fraction(1, 2)


def exact(x: Scalar) -> Fraction:
    """A scalar as a Fraction: a Fraction unchanged, an int converted, and
    TypeError for anything else (a float, a string, ...)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"a scalar is an int or a Fraction, got {type(x).__name__} {x!r}")

_FAMILY_RANK = {"L": 0, "Y": 1, "M": 2}


@dataclass(frozen=True)
class AlgebraConfig:
    """Choice of algebra: epsilon = 0 or 1/2 fixes the Y index lattice."""

    epsilon: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        eps = exact(self.epsilon)
        if eps not in (Fraction(0), HALF):
            raise ValueError(f"epsilon must be 0 or 1/2, got {format_rational(eps)}")
        object.__setattr__(self, "epsilon", eps)

    def valid_index(self, family: str, index: Fraction) -> bool:
        if family in ("L", "M"):
            return index.denominator == 1
        if family == "Y":
            return (index - self.epsilon).denominator == 1
        return False


@dataclass(frozen=True, eq=False)
class GeneratorId:
    """One basis generator: a family letter plus a rational index.

    Hashing a Fraction is surprisingly costly and generator ids are dict
    keys everywhere, so the hash is computed once up front.  Equality
    stays structural; ``gen`` additionally interns instances so that hot
    dict probes usually hit the identity fast path.
    """

    family: str
    index: Fraction

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_RANK:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "index", exact(self.index))
        object.__setattr__(self, "_hash", hash((self.family, self.index)))

    def sort_key(self) -> Tuple[int, Fraction]:
        return (_FAMILY_RANK[self.family], self.index)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, GeneratorId)
            and self.family == other.family
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> Tuple[object, Tuple[str, Fraction]]:
        # string hashes are seeded per process: unpickle through gen, which rehashes
        return gen, (self.family, self.index)

    def __str__(self) -> str:
        return f"{self.family}[{format_rational(self.index)}]"


_GEN_CACHE: Dict[Tuple[str, Fraction], GeneratorId] = {}


def gen(family: str, index: Scalar) -> GeneratorId:
    index = exact(index)
    g = _GEN_CACHE.get((family, index))
    if g is None:
        g = GeneratorId(family, index)
        _GEN_CACHE[(family, index)] = g
    return g


class DomainError(ValueError):
    """An index off its family's lattice, or a generator outside the
    window it is used on."""


def validate_generator(g: GeneratorId, cfg: AlgebraConfig) -> None:
    """Raise DomainError unless g's index lies on its family's lattice."""
    if not cfg.valid_index(g.family, g.index):
        index = format_rational(g.index)
        raise DomainError(f"index {index} invalid for family {g.family} at epsilon={cfg.epsilon}")


def grade(g: GeneratorId) -> Fraction:
    """The grading degree of a generator (its index)."""
    return g.index


class Element:
    """Finite rational linear combination of generators.

    Immutable by convention; the term dict never stores zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[GeneratorId, Scalar]] = None):
        clean: Dict[GeneratorId, Fraction] = {}
        if terms:
            for g, c in terms.items():
                if c.__class__ is not Fraction:
                    c = exact(c)
                if c:
                    clean[g] = c
        self.terms = clean

    @classmethod
    def monomial(cls, g: GeneratorId, coeff: Scalar = 1) -> "Element":
        return cls({g: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, g: GeneratorId) -> Fraction:
        return self.terms.get(g, Fraction(0))

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for g, c in other.terms.items():
            nv = out.get(g, Fraction(0)) + c
            if nv:
                out[g] = nv
            else:
                del out[g]
        res = Element.__new__(Element)
        res.terms = out
        return res

    def __neg__(self) -> "Element":
        res = Element.__new__(Element)
        res.terms = {g: -c for g, c in self.terms.items()}
        return res

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scaled(self, c: Scalar) -> "Element":
        c = exact(c)
        res = Element.__new__(Element)
        res.terms = {} if not c else {g: c * x for g, x in self.terms.items()}
        return res

    def __rmul__(self, c: Scalar) -> "Element":
        return self.scaled(c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Element({format_element(self)!r})"

    def __str__(self) -> str:
        return format_element(self)


ZERO = Element()


def format_rational(q: Fraction) -> str:
    """``str(q)`` at any length, for printing: an integer with more digits
    than the interpreter converts at once is converted in slices below
    that limit, which is left as it is."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the interpreter's int-string limit
        k = abs(n).bit_length() * 3 // 20  # about half the digits of n
        hi, lo = divmod(abs(n), 10**k)
        return "-" * (n < 0) + _digits(hi) + _digits(lo).zfill(k)


def format_element(e: Element) -> str:
    """Canonical text form: explicit coefficients, L then Y then M, index ascending."""
    if e.is_zero:
        return "0"
    parts = []
    for i, g in enumerate(sorted(e.terms, key=GeneratorId.sort_key)):
        c = e.terms[g]
        if i == 0:
            parts.append(f"{format_rational(c)}*{g}")
        elif c < 0:
            parts.append(f" - {format_rational(-c)}*{g}")
        else:
            parts.append(f" + {format_rational(c)}*{g}")
    return "".join(parts)


def bracket_basis(g1: GeneratorId, g2: GeneratorId, cfg: AlgebraConfig) -> Element:
    """Exact bracket of two basis generators.

    Precondition: both generators are valid under cfg (see
    ``validate_generator``); the solvers pre-validate whole windows and
    rely on this staying cheap.  Results are cached and shared, so treat
    them as immutable (the structure constants do not depend on epsilon;
    cfg only fixes which generators are valid at all).
    """
    cached = _BRACKET_CACHE.get((g1, g2))
    if cached is not None:
        return cached
    result = _bracket_pair(g1, g2)
    _BRACKET_CACHE[(g1, g2)] = result
    return result


_BRACKET_CACHE: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}


# (family, family) -> (family of the value, four times its coefficient at doubled indices d1, d2)
_STRUCTURE: Dict[Tuple[str, str], Tuple[str, Callable[[Scalar, Scalar], Scalar]]] = {
    ("L", "L"): ("L", lambda d1, d2: 2 * (d1 - d2)),
    ("L", "Y"): ("Y", lambda d1, d2: d1 - 2 * d2),
    ("L", "M"): ("M", lambda d1, d2: -2 * d2),
    ("Y", "Y"): ("M", lambda d1, d2: 2 * (d1 - d2)),
}


def structure(f1: str, d1: Scalar, f2: str, d2: Scalar) -> Optional[Tuple[str, Scalar]]:
    """The bracket of families f1, f2 at doubled indices d1, d2: None when it
    vanishes, else (family, 4c) for c times that family's generator at d1 + d2."""
    entry = _STRUCTURE.get((f1, f2))
    if entry is not None:
        four_c = entry[1](d1, d2)
    else:  # antisymmetry: [g1, g2] = -[g2, g1]
        entry = _STRUCTURE.get((f2, f1))
        if entry is None:
            return None
        four_c = -entry[1](d2, d1)
    return (entry[0], four_c) if four_c else None


def _doubled(index: Fraction) -> Scalar:
    """2 * index, an int on both index lattices: the structure rows then
    cost int operations only."""
    den = index.denominator
    if den == 1:
        return 2 * index.numerator
    if den == 2:
        return index.numerator
    return 2 * index


def _bracket_pair(g1: GeneratorId, g2: GeneratorId) -> Element:
    d1, d2 = _doubled(g1.index), _doubled(g2.index)
    value = structure(g1.family, d1, g2.family, d2)
    if value is None:
        return ZERO
    return Element.monomial(gen(value[0], Fraction(d1 + d2, 2)), Fraction(value[1], 4))


def bracket(x: Element, y: Element, cfg: AlgebraConfig) -> Element:
    """Bilinear extension of the generator bracket."""
    acc: Dict[GeneratorId, Fraction] = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            b = bracket_basis(g1, g2, cfg)
            if b.is_zero:
                continue
            c = c1 * c2
            for g, v in b.terms.items():
                nv = acc.get(g, Fraction(0)) + c * v
                if nv:
                    acc[g] = nv
                else:
                    del acc[g]
    res = Element.__new__(Element)
    res.terms = acc
    return res


def jacobi_defect(x: Element, y: Element, z: Element, cfg: AlgebraConfig) -> Element:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; identically zero in a Lie algebra."""
    return (
        bracket(x, bracket(y, z, cfg), cfg)
        + bracket(y, bracket(z, x, cfg), cfg)
        + bracket(z, bracket(x, y, cfg), cfg)
    )
