"""The derivation and biderivation defect checkers against the direct rule.

``_reference_derivation_defect`` and ``_reference_biderivation_defects``
are the checkers as they were before they moved onto integer positions:
every step probes ``GeneratorId`` dicts, tests windows with ``abs`` on
``Fraction`` indices and multiplies ``Fraction`` coefficients (the
derivation one in ``Element`` arithmetic).  The library checkers must
return the same report: the same ``checked`` and ``total``, and the same
violations (inputs, defect, rule) in the same order, up to the same
recording cap.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    Element,
    Window,
    biderivation_defects,
    bilinear_map_on_window,
    bracket,
    bracket_basis,
    builtin_derivation,
    derivation_defect,
    gen,
    inner_derivation,
    operator_from_action,
    realize,
    representable_shifts,
)
from svalgebra.algebra import GeneratorId
from svalgebra.biderivations import Pair
from svalgebra.windows import DefectReport

PARITIES = (Fraction(0), Fraction(1, 2))


def _faithful(e, w, *anchors):
    """Drop coordinates the window cannot vouch for: keep h with |h| <= N
    and |h - a| <= N for each anchor argument a."""
    n = w.radius
    kept = {
        h: c
        for h, c in e.terms.items()
        if abs(h.index) <= n and all(abs(h.index - a.index) <= n for a in anchors)
    }
    return Element(kept)


def _reference_derivation_defect(op, w, cfg):
    rep = DefectReport()
    gens = w.generators(cfg)
    for i, g1 in enumerate(gens):
        e1 = Element.monomial(g1)
        for g2 in gens[i + 1:]:
            br = bracket_basis(g1, g2, cfg)
            if not w.contains_element(br):
                continue
            r1 = bracket(op.apply_basis(g1), Element.monomial(g2), cfg)
            r2 = bracket(e1, op.apply_basis(g2), cfg)
            if not (w.contains_element(r1) and w.contains_element(r2)):
                continue
            rep.tick()
            defect = _faithful(op.apply(br) - r1 - r2, w, g1, g2)
            if not defect.is_zero:
                rep.record((g1, g2), defect, "leibniz")
    return rep


def _reference_biderivation_defects(f, w, cfg):
    rep = DefectReport()
    gens = w.generators(cfg)
    ten = f.tensor
    n = w.radius
    for a in gens:
        for b in gens:
            if (a, b) not in ten:
                raise KeyError(f"bilinear map {f.label or '?'} undefined on ({a}, {b})")
    tab: Dict[Pair, Tuple[Tuple[GeneratorId, Fraction], ...]] = {}

    def bb(a: GeneratorId, b: GeneratorId) -> Tuple[Tuple[GeneratorId, Fraction], ...]:
        t = tab.get((a, b))
        if t is None:
            t = tuple(bracket_basis(a, b, cfg).terms.items())
            tab[(a, b)] = t
        return t

    # For a monomial partner the products below never collide on an output
    # generator (the output family is injective in the other family), so a
    # plain assignment per term is exact and the first out-of-window term
    # already decides non-closedness.
    def mono_left(g: GeneratorId, terms: Dict[GeneratorId, Fraction]) -> Optional[Dict[GeneratorId, Fraction]]:
        out: Dict[GeneratorId, Fraction] = {}
        for h, c in terms.items():
            for hh, gamma in bb(g, h):
                if abs(hh.index) > n:
                    return None
                out[hh] = c * gamma
        return out

    def mono_right(g: GeneratorId, terms: Dict[GeneratorId, Fraction]) -> Optional[Dict[GeneratorId, Fraction]]:
        out: Dict[GeneratorId, Fraction] = {}
        for h, c in terms.items():
            for hh, gamma in bb(h, g):
                if abs(hh.index) > n:
                    return None
                out[hh] = c * gamma
        return out

    def settle(
        inputs: Tuple[GeneratorId, GeneratorId, GeneratorId],
        acc: Dict[GeneratorId, Fraction],
        r1: Dict[GeneratorId, Fraction],
        r2: Dict[GeneratorId, Fraction],
        a1: GeneratorId,
        a2: GeneratorId,
        rule: str,
    ) -> None:
        for part in (r1, r2):
            for h, c in part.items():
                nv = acc.get(h, Fraction(0)) - c
                if nv:
                    acc[h] = nv
                else:
                    del acc[h]
        if acc:
            defect = Element(
                {
                    h: c
                    for h, c in acc.items()
                    if abs(h.index) <= n
                    and abs(h.index - a1.index) <= n
                    and abs(h.index - a2.index) <= n
                }
            )
            if not defect.is_zero:
                rep.record(inputs, defect, rule)

    closed = 0
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1:]:
            br = bb(g1, g2)
            if br and abs(br[0][0].index) > n:
                continue
            for g3 in gens:
                # (1): f([g1,g2], g3) - [g1, f(g2,g3)] - [f(g1,g3), g2]
                r1 = mono_left(g1, ten[(g2, g3)].terms)
                if r1 is None:
                    continue
                r2 = mono_right(g2, ten[(g1, g3)].terms)
                if r2 is None:
                    continue
                closed += 1
                acc: Dict[GeneratorId, Fraction] = {}
                for b, cb in br:
                    for h, c in ten[(b, g3)].terms.items():
                        acc[h] = cb * c
                settle((g1, g2, g3), acc, r1, r2, g1, g2, "identity-1")
    rep.tick(closed)
    closed = 0
    for g1 in gens:
        for j, g2 in enumerate(gens):
            for g3 in gens[j + 1:]:
                br = bb(g2, g3)
                if br and abs(br[0][0].index) > n:
                    continue
                # (2): f(g1, [g2,g3]) - [f(g1,g2), g3] - [g2, f(g1,g3)]
                r1 = mono_right(g3, ten[(g1, g2)].terms)
                if r1 is None:
                    continue
                r2 = mono_left(g2, ten[(g1, g3)].terms)
                if r2 is None:
                    continue
                closed += 1
                acc = {}
                for b, cb in br:
                    for h, c in ten[(g1, b)].terms.items():
                        acc[h] = cb * c
                settle((g1, g2, g3), acc, r1, r2, g2, g3, "identity-2")
    rep.tick(closed)
    return rep


def assert_same_report(f, w, cfg):
    want = _reference_biderivation_defects(f, w, cfg)
    got = biderivation_defects(f, w, cfg)
    assert got.checked == want.checked
    assert got.total == want.total
    assert got.violations == want.violations
    return got


def assert_same_derivation_report(op, w, cfg):
    want = _reference_derivation_defect(op, w, cfg)
    got = derivation_defect(op, w, cfg)
    assert got.checked == want.checked
    assert got.total == want.total
    assert got.violations == want.violations
    return got


def _lattice_index(family, i, cfg):
    return Fraction(i) + (cfg.epsilon if family == "Y" else 0)


_coefficients = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.sampled_from([1, 1, 2, 3, 4, 6, 7, 1000003, 2 * 1000003]),
)


@st.composite
def elements(draw, cfg, reach):
    """1-3 terms, indices up to `reach` on each family's lattice."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        fam = draw(st.sampled_from("LYM"))
        idx = _lattice_index(fam, draw(st.integers(-reach, reach)), cfg)
        terms[gen(fam, idx)] = draw(_coefficients)
    return Element(terms)


@st.composite
def realized_perturbed(draw):
    """A classified form on the window with a few entries bumped."""
    w = Window(draw(st.sampled_from([3, 4])))
    cfg = AlgebraConfig(draw(st.sampled_from(PARITIES)))
    lam = draw(_coefficients | st.just(Fraction(0)))
    shifts = draw(st.lists(st.sampled_from(representable_shifts(w)), max_size=3, unique=True))
    mu = {k: draw(_coefficients) for k in shifts}
    f = realize(BiderivationForm(lam, mu), w, cfg)
    gens = w.generators(cfg)
    for _ in range(draw(st.integers(0, 3))):
        pair = (draw(st.sampled_from(gens)), draw(st.sampled_from(gens)))
        f.tensor[pair] = f.tensor[pair] + draw(elements(cfg, w.radius))
    return f, w, cfg


@st.composite
def sparse_partial(draw):
    """A few window pairs with values reaching past the window (|index| up
    to 2N+3), every other pair left to ``bilinear_map_on_window``; half the
    time on top of a classified form restricted to some pairs."""
    w = Window(draw(st.sampled_from([3, 4])))
    cfg = AlgebraConfig(draw(st.sampled_from(PARITIES)))
    gens = w.generators(cfg)
    mapping: Dict[Tuple[GeneratorId, GeneratorId], Element] = {}
    if draw(st.booleans()):
        lam = draw(_coefficients)
        full = realize(BiderivationForm(lam, {0: draw(_coefficients)}), w, cfg).tensor
        kept = draw(st.lists(st.sampled_from(sorted(full, key=str)), max_size=60, unique=True))
        mapping.update((pair, full[pair]) for pair in kept)
    for _ in range(draw(st.integers(1, 12))):
        pair = (draw(st.sampled_from(gens)), draw(st.sampled_from(gens)))
        mapping[pair] = draw(elements(cfg, 2 * w.radius + 3))
    return bilinear_map_on_window(mapping, w, cfg, label="sparse"), w, cfg


@st.composite
def perturbed_derivations(draw):
    """A scaled outer derivation or an inner one (its images reach past the
    window at the boundary) with 0-4 images bumped by terms reaching
    |index| <= 2N+3."""
    w = Window(draw(st.sampled_from([3, 4])))
    cfg = AlgebraConfig(draw(st.sampled_from(PARITIES)))
    if draw(st.booleans()):
        op = builtin_derivation(draw(st.sampled_from(["D1", "D2", "D3"])), w, cfg)
        op = op.scaled(draw(_coefficients))
    else:
        op = inner_derivation(draw(elements(cfg, w.radius)), w, cfg)
    gens = w.generators(cfg)
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.sampled_from(gens))
        op.action[g] = op.action[g] + draw(elements(cfg, 2 * w.radius + 3))
    return op, w, cfg


@given(perturbed_derivations())
@settings(max_examples=60, deadline=None)
def test_perturbed_derivations(case):
    assert_same_derivation_report(*case)


@given(realized_perturbed())
@settings(max_examples=40, deadline=None)
def test_realized_forms_with_perturbed_entries(case):
    assert_same_report(*case)


@given(sparse_partial())
@settings(max_examples=40, deadline=None)
def test_sparse_partial_tensors_reaching_outside(case):
    assert_same_report(*case)


@pytest.mark.parametrize("epsilon", PARITIES)
def test_classified_forms_at_radius5(epsilon):
    cfg, w = AlgebraConfig(epsilon), Window(5)
    f = realize(BiderivationForm(Fraction(-7, 3), {-1: 5, 1: Fraction(1, 1000003)}), w, cfg)
    assert assert_same_report(f, w, cfg).empty


def test_recording_cap():
    cfg, w = AlgebraConfig(Fraction(0)), Window(3)
    gens = w.generators(cfg)
    f = bilinear_map_on_window(
        {(a, b): Element({gen("L", 0): Fraction(1, 3)}) for a in gens for b in gens}, w, cfg
    )
    rep = assert_same_report(f, w, cfg)
    assert rep.total > rep.max_recorded == len(rep.violations) == 100


def test_missing_pair_raises_the_same_key_error():
    cfg, w = AlgebraConfig(Fraction(1, 2)), Window(3)
    f = realize(BiderivationForm(1, {}), w, cfg)
    del f.tensor[(gen("Y", Fraction(1, 2)), gen("M", -2))]
    with pytest.raises(KeyError) as want:
        _reference_biderivation_defects(f, w, cfg)
    with pytest.raises(KeyError) as got:
        biderivation_defects(f, w, cfg)
    assert str(got.value) == str(want.value)
    assert "Y[1/2], M[-2]" in str(got.value)


def test_index_that_is_not_a_half_integer_is_refused():
    cfg, w = AlgebraConfig(Fraction(0)), Window(3)
    bad = GeneratorId("M", Fraction(1, 3))
    f = bilinear_map_on_window({(gen("L", 1), gen("L", 2)): Element({bad: 1})}, w, cfg)
    with pytest.raises(ValueError, match=r"M\[1/3\]"):
        biderivation_defects(f, w, cfg)


def test_bracket_coefficient_that_is_not_a_half_integer_is_refused():
    # L has integer indices in SV(eps); [Y[j], L[1/2]] has a quarter coefficient
    cfg, w = AlgebraConfig(Fraction(0)), Window(3)
    odd = GeneratorId("L", Fraction(1, 2))
    f = bilinear_map_on_window({(gen("L", 1), gen("L", 2)): Element({odd: 1})}, w, cfg)
    with pytest.raises(ValueError, match=r"L\[1/2\]\]: coefficient"):
        biderivation_defects(f, w, cfg)


@pytest.mark.parametrize("epsilon", PARITIES)
def test_images_at_the_window_ends_reaching_past_them(epsilon):
    # D2 with each end image bumped just past the window: closed pairs then
    # meet the bumps only off the faithful coordinates, so nothing is found
    cfg, w = AlgebraConfig(epsilon), Window(3)
    op = builtin_derivation("D2", w, cfg)
    past = {3: gen("M", 4), -3: gen("M", -4)}
    for g in w.generators(cfg):
        if g.index in past:
            op.action[g] = op.action[g] + Element({past[g.index]: Fraction(1, 7)})
    assert assert_same_derivation_report(op, w, cfg).empty


def test_derivation_recording_cap():
    cfg, w = AlgebraConfig(Fraction(0)), Window(4)
    third = Element({gen("L", 0): Fraction(1, 3)})
    op = operator_from_action({g: third for g in w.generators(cfg)}, w, cfg)
    rep = assert_same_derivation_report(op, w, cfg)
    assert rep.total > rep.max_recorded == len(rep.violations) == 100


def test_operator_missing_a_generator_raises_the_same_key_error():
    cfg, w = AlgebraConfig(Fraction(1, 2)), Window(3)
    op = builtin_derivation("D3", w, cfg)
    del op.action[gen("Y", Fraction(1, 2))]
    with pytest.raises(KeyError) as want:
        _reference_derivation_defect(op, w, cfg)
    with pytest.raises(KeyError) as got:
        derivation_defect(op, w, cfg)
    assert str(got.value) == str(want.value)
    assert "D3 undefined on Y[1/2]" in str(got.value)


def test_operator_image_index_that_is_not_a_half_integer_is_refused():
    cfg, w = AlgebraConfig(Fraction(0)), Window(3)
    bad = GeneratorId("M", Fraction(1, 3))
    op = operator_from_action({gen("L", 1): Element({bad: 1})}, w, cfg)
    with pytest.raises(ValueError, match=r"M\[1/3\]"):
        derivation_defect(op, w, cfg)
