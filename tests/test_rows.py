"""Constraint rows built from the bracket table against the direct rule.

The reference builders below evaluate every row term from generators:
brackets of ``GeneratorId`` pairs, index arithmetic on ``Fraction`` and
candidate lookups per family.  The library reads the same rows off the
window's integer-position bracket table; both must emit the same rows, in
the same order, with the same keys in the same order and equal values.
"""

from collections import Counter
from fractions import Fraction

import pytest

from svalgebra import AlgebraConfig, Window, bracket_basis, gen
from svalgebra.biderivations import PairCoords, identity1_rows, identity2_rows
from svalgebra.operators import OperatorCoords, derivation_constraint_matrix
from svalgebra.windows import OUTSIDE, BracketTable

PARITIES = (Fraction(0), Fraction(1, 2))


def _bump(row, col, c):
    nv = row.get(col, Fraction(0)) + c
    if nv:
        row[col] = nv
    else:
        row.pop(col, None)


def _image_terms(row, coords, cfg, source, partner, h, left):
    idx = h.index - partner.index
    for fam in ("L", "Y", "M"):
        if not cfg.valid_index(fam, idx):
            continue
        cand = gen(fam, idx)
        if cand not in coords.pos:
            continue
        if left:
            gamma = bracket_basis(cand, partner, cfg).coefficient(h)
        else:
            gamma = bracket_basis(partner, cand, cfg).coefficient(h)
        if gamma:
            _bump(row, coords.col(source, cand), -gamma)


def reference_derivation_rows(w, cfg):
    coords = OperatorCoords(w, cfg)
    n = w.radius
    gens = coords.gens
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1:]:
            br = bracket_basis(g1, g2, cfg)
            if not w.contains_element(br):
                continue
            for h in gens:
                if abs(h.index - g1.index) > n or abs(h.index - g2.index) > n:
                    continue
                row = {}
                for b, cb in br.terms.items():
                    _bump(row, coords.col(b, h), cb)
                _image_terms(row, coords, cfg, g1, g2, h, left=True)
                _image_terms(row, coords, cfg, g2, g1, h, left=False)
                yield row


def _value_terms(row, coords, cfg, source, partner, h, left):
    idx = h.index - partner.index
    for fam in ("L", "Y", "M"):
        if not cfg.valid_index(fam, idx):
            continue
        cand = gen(fam, idx)
        if cand not in coords.pos:
            continue
        if left:
            gamma = bracket_basis(partner, cand, cfg).coefficient(h)
        else:
            gamma = bracket_basis(cand, partner, cfg).coefficient(h)
        if gamma:
            _bump(row, coords.col(source[0], source[1], cand), -gamma)


def reference_identity1_rows(coords, cfg):
    w = coords.window
    n = w.radius
    gens = coords.gens
    for g3 in gens:
        for i, g1 in enumerate(gens):
            for g2 in gens[i + 1:]:
                br = bracket_basis(g1, g2, cfg)
                if not w.contains_element(br):
                    continue
                for h in gens:
                    if abs(h.index - g1.index) > n or abs(h.index - g2.index) > n:
                        continue
                    row = {}
                    for b, cb in br.terms.items():
                        _bump(row, coords.col(b, g3, h), cb)
                    _value_terms(row, coords, cfg, (g1, g3), g2, h, left=False)
                    _value_terms(row, coords, cfg, (g2, g3), g1, h, left=True)
                    yield row


def reference_identity2_rows(coords, cfg):
    w = coords.window
    n = w.radius
    gens = coords.gens
    for g1 in gens:
        for j, g2 in enumerate(gens):
            for g3 in gens[j + 1:]:
                br = bracket_basis(g2, g3, cfg)
                if not w.contains_element(br):
                    continue
                for h in gens:
                    if abs(h.index - g2.index) > n or abs(h.index - g3.index) > n:
                        continue
                    row = {}
                    for b, cb in br.terms.items():
                        _bump(row, coords.col(g1, b, h), cb)
                    _value_terms(row, coords, cfg, (g1, g2), g3, h, left=False)
                    _value_terms(row, coords, cfg, (g1, g3), g2, h, left=True)
                    yield row


def _stream(rows):
    # key order too: equal dicts could still differ in iteration order
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize("eps", PARITIES)
@pytest.mark.parametrize("radius", [3, 4, 5])
def test_derivation_rows_match_reference(radius, eps):
    w, cfg = Window(radius), AlgebraConfig(eps)
    m, _ = derivation_constraint_matrix(w, cfg)
    assert _stream(m.rows) == _stream(reference_derivation_rows(w, cfg))


@pytest.mark.parametrize("eps", PARITIES)
@pytest.mark.parametrize(
    "ours, reference",
    [(identity1_rows, reference_identity1_rows), (identity2_rows, reference_identity2_rows)],
    ids=["identity1", "identity2"],
)
def test_identity_rows_match_reference(ours, reference, eps):
    cfg = AlgebraConfig(eps)
    coords = PairCoords(Window(2), cfg)
    assert _stream(ours(coords, cfg)) == _stream(reference(coords, cfg))


@pytest.mark.parametrize("eps", PARITIES)
def test_identity1_rows_are_transposed_identity2_rows(eps):
    # identity (1) for f is identity (2) for the transpose of f: swapping
    # the two arguments of every column maps one row multiset onto the other
    cfg = AlgebraConfig(eps)
    coords = PairCoords(Window(3), cfg)
    n = coords.n

    def transposed(c):
        pair, k = divmod(c, n)
        a, b = divmod(pair, n)
        return (b * n + a) * n + k

    def multiset(rows):
        return Counter(frozenset(row.items()) for row in rows)

    swapped = ({transposed(c): x for c, x in row.items()} for row in identity2_rows(coords, cfg))
    assert multiset(identity1_rows(coords, cfg)) == multiset(swapped)


@pytest.mark.parametrize("eps", PARITIES)
def test_bracket_table_matches_brackets(eps):
    """The numbering, ``table`` and ``pairs`` at radii 1 to 6 hold the
    brackets ``bracket_basis`` gives on window positions, with doubled int
    coefficients, and ``pairs`` is ascending."""
    cfg = AlgebraConfig(eps)
    for radius in range(1, 7):
        w = Window(radius)
        gens = w.generators(cfg)
        t = BracketTable(w, cfg)
        twice = [int(2 * g.index) for g in gens]
        assert (t.order, t.n, t.m, t.twice) == (gens, len(gens), len(gens), twice)
        assert t.at == {(g.family, d): i for i, (g, d) in enumerate(zip(gens, twice))}
        table, pairs = [], []
        for a, ga in enumerate(gens):
            for b, gb in enumerate(gens):
                br = bracket_basis(ga, gb, cfg)
                if not br.terms:
                    table.append(None)
                    if a < b:
                        pairs.append((a, b, 0, 0))
                    continue
                ((g, c),) = br.terms.items()
                assert (2 * c).denominator == 1
                target = gens.index(g) if w.contains(g) else OUTSIDE
                table.append((target, int(2 * c)))
                if a < b and target != OUTSIDE:
                    pairs.append((a, b, target, int(2 * c)))
        assert (t.table, t.pairs) == (table, pairs)
        assert all(type(c) is int for _, _, _, c in t.pairs)
        assert all(type(e[1]) is int for e in t.table if e is not None)
