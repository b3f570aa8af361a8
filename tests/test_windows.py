"""Window slicing, the column layout of window maps, and defect reports."""

from fractions import Fraction
from itertools import product

import pytest

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    Element,
    OmegaSet,
    Window,
    gen,
    inner_derivation,
    lie_axiom_defects,
    predicted_derivation_operators,
    realize,
    representable_grid_shifts,
    representable_shifts,
)
from svalgebra.biderivations import PairCoords, predicted_biderivation_maps
from svalgebra.operators import OperatorCoords
from svalgebra.propositions import GridCoords
from svalgebra.windows import DefectReport

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))


def test_generator_counts():
    assert len(Window(3).generators(CFG0)) == 21
    # half-integer middle family drops one slot per window
    assert len(Window(3).generators(CFG_HALF)) == 20
    assert len(Window(8).generators(CFG0)) == 51


def test_generator_order():
    gens = Window(1).generators(CFG0)
    names = [str(g) for g in gens]
    assert names == ["L[-1]", "L[0]", "L[1]", "Y[-1]", "Y[0]", "Y[1]", "M[-1]", "M[0]", "M[1]"]


def test_half_parity_indices():
    ys = [g for g in Window(2).generators(CFG_HALF) if g.family == "Y"]
    assert [g.index for g in ys] == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


def test_interior():
    w = Window(5)
    assert w.interior_radius == 2
    assert w.is_interior(gen("L", -2))
    assert not w.is_interior(gen("L", 3))
    assert len(w.interior_generators(CFG0)) == 15


def test_contains_element():
    w = Window(2)
    inside = Element.monomial(gen("L", 2))
    outside = inside + Element.monomial(gen("M", 3))
    assert w.contains_element(inside)
    assert not w.contains_element(outside)


def test_radius_guard():
    with pytest.raises(ValueError):
        Window(0)


def test_report_cap():
    rep = DefectReport(max_recorded=2)
    for i in range(5):
        rep.record((gen("L", i),), Element.monomial(gen("L", 0)), "r")
    assert rep.total == 5
    assert len(rep.violations) == 2
    assert "first 2 recorded" in rep.summary()


def test_report_empty_summary():
    rep = DefectReport()
    rep.tick(7)
    assert rep.empty
    assert rep.summary() == "ok (7 instances checked)"


def test_violation_describe():
    rep = DefectReport()
    rep.record((gen("L", 1), gen("Y", 2)), Element.monomial(gen("M", 3), Fraction(1, 2)), "leibniz")
    assert rep.violations[0].describe() == "leibniz at (L[1], Y[2]): defect 1/2*M[3]"


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
def test_lie_axioms_small_window(eps):
    rep = lie_axiom_defects(Window(4), AlgebraConfig(eps))
    assert rep.empty
    assert rep.checked > 0


# The two column layouts as separate classes, before they shared
# WindowCoords: the reference the merged layout must reproduce.


class _ReferenceOperatorCoords:
    def __init__(self, w, cfg):
        self.window = w
        self.gens = w.generators(cfg)
        self.pos = {g: i for i, g in enumerate(self.gens)}
        self.n = len(self.gens)
        self.col_count = self.n * self.n

    def col(self, g, h):
        return self.pos[g] * self.n + self.pos[h]

    def at(self, col):
        return self.gens[col // self.n], self.gens[col % self.n]

    def encode(self, op):
        v = {}
        for g in self.gens:
            for h, c in op.apply_basis(g).terms.items():
                if h in self.pos:
                    v[self.col(g, h)] = c
        return v

    def interior_columns(self):
        r = self.window.interior_radius
        budget = self.window.radius - r
        cols = set()
        for g in self.gens:
            if abs(g.index) > r:
                continue
            for h in self.gens:
                if abs(h.index - g.index) <= budget:
                    cols.add(self.col(g, h))
        return cols


class _ReferencePairCoords:
    def __init__(self, w, cfg):
        self.window = w
        self.gens = w.generators(cfg)
        self.pos = {g: i for i, g in enumerate(self.gens)}
        self.n = len(self.gens)
        self.col_count = self.n ** 3

    def col(self, g1, g2, h):
        n = self.n
        return (self.pos[g1] * n + self.pos[g2]) * n + self.pos[h]

    def at(self, col):
        n = self.n
        col, k = divmod(col, n)
        i, j = divmod(col, n)
        return self.gens[i], self.gens[j], self.gens[k]

    def encode(self, f):
        v = {}
        for g1 in self.gens:
            for g2 in self.gens:
                for h, c in f.value(g1, g2).terms.items():
                    if h in self.pos:
                        v[self.col(g1, g2, h)] = c
        return v

    def interior_columns(self):
        r = self.window.interior_radius
        budget = self.window.radius - 2 * r
        cols = set()
        inner = [g for g in self.gens if abs(g.index) <= r]
        for g1 in inner:
            for g2 in inner:
                s = g1.index + g2.index
                for h in self.gens:
                    if abs(h.index - s) <= budget:
                        cols.add(self.col(g1, g2, h))
        return cols


def _operators(w, cfg):
    # ad of a boundary element reaches outside the window
    far = Element({gen("L", w.radius): Fraction(2), gen("M", -w.radius): Fraction(-1, 3)})
    return predicted_derivation_operators(w, cfg) + [inner_derivation(far, w, cfg)]


def _pair_maps(w, cfg):
    # shifts beyond the window put every value outside it
    far = BiderivationForm(Fraction(1, 2), OmegaSet({-1: 3, w.radius + 1: Fraction(-2, 5)}))
    return predicted_biderivation_maps(w, cfg) + [realize(far, w, cfg)]


_LAYOUTS = [
    (OperatorCoords, _ReferenceOperatorCoords, _operators),
    (PairCoords, _ReferencePairCoords, _pair_maps),
]


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)], ids=["eps0", "eps1"])
@pytest.mark.parametrize("radius", range(1, 7))
@pytest.mark.parametrize("layout", _LAYOUTS, ids=["operators", "pairs"])
def test_window_coords_match_reference_layouts(layout, radius, eps):
    coords_cls, reference_cls, maps = layout
    w, cfg = Window(radius), AlgebraConfig(eps)
    coords, ref = coords_cls(w, cfg), reference_cls(w, cfg)
    assert (coords.n, coords.col_count) == (ref.n, ref.col_count)
    assert coords.interior_columns() == ref.interior_columns()
    for f in maps(w, cfg):
        assert list(coords.encode(f).items()) == list(ref.encode(f).items())
    for args in product(coords.gens, repeat=coords.arity + 1):
        col = coords.col(*args)
        assert col == ref.col(*args)
        assert coords.at(col) == ref.at(col) == args


@pytest.mark.parametrize("radius", range(1, 13))
def test_shift_budgets_match_the_inline_formulas(radius):
    w = Window(radius)
    cap = radius - 2 * (radius // 2)
    assert representable_shifts(w) == list(range(-cap, cap + 1))
    budget = radius - radius // 2
    assert representable_grid_shifts(radius) == list(range(-budget, budget + 1))
    coords = GridCoords(radius, ("s", "e"), ("rho1", "theta1"))
    r = radius // 2
    want = set()
    for name in coords.families:
        for m in range(-r, r + 1):
            for i in range(m - budget, m + budget + 1):
                if coords.in_window(i):
                    want.add(coords.family_col(name, m, i))
    for name in coords.functionals:
        for m in range(-r, r + 1):
            want.add(coords.functional_col(name, m))
    assert coords.interior_columns() == want
