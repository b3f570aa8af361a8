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
from svalgebra.biderivations import PairCoords, biderivation_constraint_matrix, predicted_biderivation_maps
from svalgebra.linalg import kernel_dimension_modp, span_basis
from svalgebra.operators import DecompositionError, DerivationDecomposition, UnitFormRows, project_columns
from svalgebra.postlie import solve_postlie_window
from svalgebra.windows import BracketTable

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


def _reference_chi_omega(omega, w, cfg):
    """The central-shift map as a window loop of its own (the pre-form code)."""
    tensor = {}
    gens = w.generators(cfg)
    for g1 in gens:
        for g2 in gens:
            if g1.family == "L" and g2.family == "L":
                s = g1.index + g2.index
                tensor[(g1, g2)] = Element({gen("M", s + k): v for k, v in omega.items()})
            else:
                tensor[(g1, g2)] = ZERO
    return BilinearMap(tensor, f"chi({omega})")


def _reference_realize(form, w, cfg):
    chi = _reference_chi_omega(form.omega, w, cfg)
    tensor = {}
    for (g1, g2), tail in chi.tensor.items():
        tensor[(g1, g2)] = bracket_basis(g1, g2, cfg).scaled(form.lam) + tail
    return BilinearMap(tensor, f"realize{form}")


def _layout(f):
    """Label, pair order and term order: everything a printer could see."""
    return f.label, [(pair, list(v.terms.items())) for pair, v in f.tensor.items()]


# lam = 0, several shifts at once, and shifts whose M terms leave the window
_PINNED_FORMS = [
    BiderivationForm(lam, om)
    for lam in (Fraction(0), Fraction(1), Fraction(-3, 2))
    for om in ({}, {0: 1}, {-1: Fraction(2, 3), 2: -4}, {5: 7, -9: Fraction(1, 5)})
]


class TestRealizeMatchesReference:
    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    @pytest.mark.parametrize("radius", [3, 5])
    def test_realize_and_chi(self, radius, cfg):
        w = Window(radius)
        for form in _PINNED_FORMS:
            assert _layout(realize(form, w, cfg)) == _layout(_reference_realize(form, w, cfg))
            got = chi_omega(form.omega, w, cfg)
            assert _layout(got) == _layout(_reference_chi_omega(form.omega, w, cfg))

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    @pytest.mark.parametrize("radius", [3, 5])
    def test_predicted_maps(self, radius, cfg):
        w = Window(radius)
        want = [_reference_realize(BiderivationForm(1, EMPTY_OMEGA), w, cfg)]
        want += [_reference_chi_omega(OmegaSet({k: 1}), w, cfg) for k in representable_shifts(w)]
        got = predicted_biderivation_maps(w, cfg)
        assert [_layout(f) for f in got] == [_layout(f) for f in want]


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
        assert kernel_dimension_modp(biderivations_n3.matrix) == 192
        # the full tensor system, which the factored one stands for
        assert kernel_dimension_modp(biderivation_constraint_matrix(Window(3), CFG0)[0]) == 192

    def test_kernel_dimension_frozen_half(self):
        bc = classify_biderivations(Window(3), CFG_HALF)
        assert bc.kernel_dimension == 158
        assert kernel_dimension_modp(bc.matrix) == 158
        assert kernel_dimension_modp(biderivation_constraint_matrix(Window(3), CFG_HALF)[0]) == 158
        assert bc.predicted_in_kernel
        assert bc.interior_match

    def test_kernel_dimension_frozen_n4(self):
        bc = classify_biderivations(Window(4), CFG0)
        assert bc.kernel_dimension == 322
        assert kernel_dimension_modp(bc.matrix) == 322
        assert bc.predicted_in_kernel
        assert bc.interior_match

    def test_kernel_dimension_frozen_n4_half(self):
        bc = classify_biderivations(Window(4), CFG_HALF)
        assert bc.kernel_dimension == 332
        assert kernel_dimension_modp(bc.matrix) == 332
        assert bc.predicted_in_kernel
        assert bc.interior_match
        assert bc.interior_kernel_dimension == 2

    def test_kernel_dimension_frozen_n5(self):
        bc = classify_biderivations(Window(5), CFG0)
        assert bc.kernel_dimension == 504
        assert kernel_dimension_modp(bc.matrix) == 504
        assert bc.predicted_in_kernel
        assert bc.interior_match

    def test_kernel_dimension_frozen_n5_half(self):
        bc = classify_biderivations(Window(5), CFG_HALF)
        assert bc.kernel_dimension == 466
        assert kernel_dimension_modp(bc.matrix) == 466
        assert bc.predicted_in_kernel
        assert bc.interior_match

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

    def test_rejects_shift_read_with_two_coefficients(self):
        w = Window(4)
        f = realize(BiderivationForm(1, {0: 1}), w, CFG0)
        pair = (gen("L", 0), gen("L", 1))
        f.tensor[pair] = f.tensor[pair] + Element.monomial(gen("M", 1))
        assert match_form(f, w, CFG0) is None

    def test_refuses_a_window_below_radius_2(self):
        w = Window(1)
        with pytest.raises(ValueError):
            match_form(realize(BiderivationForm(1, {0: 1}), w, CFG0), w, CFG0)

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
                assert dec.reassemble(g1, g2, CFG0) == f.value(g1, g2)

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps12"])
    def test_names_the_failing_slice(self, cfg):
        w = Window(4)
        f = realize(BiderivationForm(Fraction(1, 2), {1: 3}), w, cfg)
        pair = (gen("L", 0), gen("L", 1))
        f.tensor[pair] = f.tensor[pair] + Element.monomial(gen("L", 1))
        with pytest.raises(DecompositionError) as info:
            decompose_biderivation(f, w, cfg)
        assert str(info.value).startswith("f(L[0], .): ")
        assert str(info.value).endswith("; f is not a biderivation on this window")


    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps12"])
    def test_every_slice_reads_one_build_of_the_unit_rows(self, cfg, monkeypatch):
        """The unit forms are evaluated on the interior generators once per
        decomposition, not once per slice."""
        w = Window(4)
        f = realize(BiderivationForm(Fraction(1, 2), {0: 3}), w, cfg)
        seen = []
        value = DerivationDecomposition.value

        def counted(self, g, cfg):
            seen.append(g)
            return value(self, g, cfg)

        monkeypatch.setattr(DerivationDecomposition, "value", counted)
        builds = []
        init = UnitFormRows.__init__
        monkeypatch.setattr(UnitFormRows, "__init__", lambda self, *args: builds.append(init(self, *args)))
        dec = decompose_biderivation(f, w, cfg)
        assert len(builds) == 1
        interior = w.interior_generators(cfg)
        assert len(seen) == len(interior) * (len(w.generators(cfg)) + 2)
        assert len(dec.phi.action) == len(dec.psi.action) == len(interior)


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


@pytest.mark.parametrize(
    "build", [biderivation_constraint_matrix, solve_postlie_window], ids=["matrix", "brute"]
)
def test_one_bracket_table_per_system(build, monkeypatch):
    """Both identities, and the brute enclosure's identity-2 rows, read
    the derivation rows of one bracket table of the window."""
    made = []
    init = BracketTable.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(BracketTable, "__init__", counting_init)
    build(Window(3), CFG0)
    assert len(made) == 1
