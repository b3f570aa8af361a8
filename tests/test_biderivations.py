"""Biderivation checking, the window solver, matching and decomposition."""

import random
import time
from fractions import Fraction

import pytest

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    BilinearMap,
    Element,
    EMPTY_OMEGA,
    OmegaSet,
    Window,
    ZERO,
    biderivation_defects,
    bilinear_map_on_window,
    bracket_basis,
    chi_omega,
    classify_biderivations,
    decompose_biderivation,
    gen,
    match_form,
    realize,
    representable_shifts,
    skew_kernel_members,
)
from svalgebra.biderivations import PairCoords
from svalgebra.linalg import kernel_dimension_dense_modp, span_basis
from svalgebra.operators import project_columns

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))


class TestOmegaSet:
    def test_normalization(self):
        om = OmegaSet({3: Fraction(2017), 1: 0, -2: Fraction(1, 2)})
        assert om.as_dict() == {-2: Fraction(1, 2), 3: Fraction(2017)}
        assert om.get(1) == 0
        assert not om.is_empty
        assert EMPTY_OMEGA.is_empty

    def test_str(self):
        assert str(OmegaSet({3: Fraction(2017)})) == "{mu[3]=2017}"

    def test_rejects_fractional_shift(self):
        with pytest.raises(Exception):
            OmegaSet({Fraction(1, 2): 1})


class TestRealize:
    def test_bracket_part(self):
        w = Window(4)
        f = realize(BiderivationForm(Fraction(1, 2), {}), w, CFG0)
        expect = bracket_basis(gen("L", 1), gen("L", 2), CFG0).scaled(Fraction(1, 2))
        assert f.value(gen("L", 1), gen("L", 2)) == expect

    def test_shift_part_sticks_out(self):
        # values are full elements; the window only limits the arguments
        w = Window(4)
        f = realize(BiderivationForm(0, {3: 1}), w, CFG0)
        assert f.value(gen("L", 4), gen("L", 4)) == Element.monomial(gen("M", 11))

    def test_shift_kills_other_families(self):
        w = Window(4)
        f = chi_omega(OmegaSet({0: 1}), w, CFG0)
        assert f.value(gen("Y", 1), gen("L", 2)) == ZERO
        assert f.value(gen("M", 1), gen("M", 2)) == ZERO

    def test_symmetry_flags(self):
        w = Window(4)
        chi = realize(BiderivationForm(0, {1: 2}), w, CFG0)
        brk = realize(BiderivationForm(1, {}), w, CFG0)
        assert chi.is_symmetric() and not chi.is_skewsymmetric()
        assert brk.is_skewsymmetric() and not brk.is_symmetric()


class TestDefects:
    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
    def test_classified_forms_pass(self, eps):
        cfg = AlgebraConfig(eps)
        w = Window(5)
        for form in (
            BiderivationForm(0, {}),
            BiderivationForm(Fraction(-3, 2), {}),
            BiderivationForm(0, {0: 1, -1: Fraction(2, 3)}),
            BiderivationForm(Fraction(1, 7), {1: -2}),
        ):
            rep = biderivation_defects(realize(form, w, cfg), w, cfg)
            assert rep.empty, f"{form} failed: {rep.summary()}"

    def test_tampered_tensor_flagged(self):
        w = Window(4)
        f = realize(BiderivationForm(0, {0: 1}), w, CFG0)
        f.tensor[(gen("L", 1), gen("L", 2))] = Element.monomial(gen("M", 3), Fraction(99))
        rep = biderivation_defects(f, w, CFG0)
        assert not rep.empty
        assert rep.violations[0].rule in ("identity-1", "identity-2")

    def test_seeded_random_sweep(self):
        """Small edition of the acceptance sweep: random classified forms."""
        rng = random.Random(987123)
        w = Window(5)
        shifts = representable_shifts(w)
        t0 = time.time()
        for cfg in (CFG0, CFG_HALF):
            for _ in range(10):
                lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                mu = {
                    k: Fraction(rng.randint(-5, 5) or 1)
                    for k in rng.sample(shifts, rng.randint(0, 3))
                }
                rep = biderivation_defects(realize(BiderivationForm(lam, mu), w, cfg), w, cfg)
                assert rep.empty
        assert time.time() - t0 < 30


class TestClassification:
    def test_kernel_dimension_frozen(self, biderivations_n3):
        assert biderivations_n3.kernel_dimension == 192

    def test_interior_is_classified_span(self, biderivations_n3):
        bc = biderivations_n3
        assert bc.predicted_in_kernel
        assert bc.interior_match
        assert bc.mutual_membership == (True, True)
        # one bracket direction plus one direction per representable shift
        assert bc.interior_kernel_dimension == 1 + len(bc.shifts)
        assert bc.shifts == [-1, 0, 1]

    def test_modp_oracle(self, biderivations_n3):
        assert kernel_dimension_dense_modp(biderivations_n3.matrix) == 192

    def test_kernel_dimension_frozen_n4(self):
        bc = classify_biderivations(Window(4), CFG0)
        assert bc.kernel_dimension == 322
        assert kernel_dimension_dense_modp(bc.matrix) == 322
        assert bc.predicted_in_kernel
        assert bc.interior_match

    def test_kernel_dimension_frozen_n4_half(self):
        bc = classify_biderivations(Window(4), CFG_HALF)
        assert bc.kernel_dimension == 332
        assert kernel_dimension_dense_modp(bc.matrix) == 332
        assert bc.predicted_in_kernel
        assert bc.interior_match
        assert bc.interior_kernel_dimension == 2

    def test_skew_members(self, biderivations_n3):
        bc = biderivations_n3
        skews = skew_kernel_members(bc)
        assert len(skews) == 65
        coords = bc.coords
        for v in skews[:8]:
            assert coords.decode(v).is_skewsymmetric()
        # on the interior the skew part is the bracket line alone
        cols = coords.interior_columns()
        w = coords.window
        lam_vec = coords.encode(realize(BiderivationForm(1, {}), w, CFG0))
        lam_span = span_basis([project_columns(lam_vec, cols)], coords.col_count)
        inside = span_basis(
            (project_columns(v, cols) for v in skews), coords.col_count
        )
        assert inside.dimension == 1
        assert all(lam_span.contains(project_columns(v, cols)) for v in skews)

    def test_solver_guard(self):
        with pytest.raises(ValueError):
            classify_biderivations(Window(2), CFG0)


class TestMatchForm:
    def test_roundtrip_simple(self):
        w = Window(6)
        form = BiderivationForm(0, {3: 2017})
        got = match_form(realize(form, w, CFG0), w, CFG0)
        assert got == form

    def test_roundtrip_mixed(self):
        w = Window(6)
        form = BiderivationForm(Fraction(3, 2), {-1: Fraction(1, 3), 2: -4})
        assert match_form(realize(form, w, CFG0), w, CFG0) == form

    def test_rejects_tampered(self):
        w = Window(4)
        f = realize(BiderivationForm(1, {}), w, CFG0)
        f.tensor[(gen("L", 0), gen("L", 1))] = Element.monomial(gen("Y", 1))
        assert match_form(f, w, CFG0) is None

    def test_rejects_non_classified_map(self):
        w = Window(4)
        zero = realize(BiderivationForm(0, {}), w, CFG0)
        zero.tensor[(gen("Y", 1), gen("Y", 2))] = Element.monomial(gen("M", 3))
        assert match_form(zero, w, CFG0) is None


class TestDecompose:
    def test_shift_slices(self):
        w = Window(6)
        f = realize(BiderivationForm(0, {2: 5}), w, CFG0)
        dec = decompose_biderivation(f, w, CFG0)
        # phi(L_m) = (5/(m+2)) M_{m+2} away from the pole, zero at m = -2
        img = dec.phi.apply_basis(gen("L", 1))
        assert img == Element.monomial(gen("M", 3), Fraction(5, 3))
        assert dec.phi.apply_basis(gen("L", -2)) == ZERO
        assert dec.rho[0].get(gen("L", -2)) == 5

    def test_reassembles_mixed_form(self):
        w = Window(6)
        f = realize(BiderivationForm(Fraction(-3, 2), {0: 1, 2: 5}), w, CFG0)
        dec = decompose_biderivation(f, w, CFG0)
        for g1 in w.interior_generators(CFG0):
            for g2 in w.interior_generators(CFG0):
                assert dec.reassemble(g1, g2, w, CFG0) == f.value(g1, g2)


class TestWindowTensorPlumbing:
    def test_fill_and_reject(self):
        w = Window(2)
        f = bilinear_map_on_window({}, w, CFG0)
        assert f.value(gen("L", 1), gen("M", -1)) == ZERO
        with pytest.raises(ValueError):
            bilinear_map_on_window(
                {(gen("L", 9), gen("L", 0)): ZERO}, w, CFG0
            )

    def test_encode_decode_roundtrip(self):
        w = Window(3)
        coords = PairCoords(w, CFG0)
        f = realize(BiderivationForm(Fraction(2), {1: 1}), w, CFG0)
        g = coords.decode(coords.encode(f))
        for g1 in coords.gens:
            for g2 in coords.gens:
                want = {
                    h: c for h, c in f.value(g1, g2).terms.items() if w.contains(h)
                }
                assert g.value(g1, g2) == Element(want)
