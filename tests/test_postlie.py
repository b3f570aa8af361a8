"""Commutative product axioms, triviality witnesses and the window sweep."""

import random
from fractions import Fraction

import pytest

from svalgebra import (
    AXIOM_BRACKET_DERIVATION,
    AXIOM_COMMUTATIVITY,
    AXIOM_WEIGHTED_LEIBNIZ,
    AlgebraConfig,
    BiderivationForm,
    Element,
    PostLieAxiomError,
    Window,
    axiom_defect,
    biderivation_defects,
    biderivation_from_postlie,
    gen,
    materialize_product,
    postlie_axiom_defects,
    realize,
    solve_postlie_window,
    triviality_witness,
    verify_triviality_theorem,
)
from svalgebra.postlie import _sweep_forms

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))


class TestAxiomChecker:
    def test_zero_product_passes(self):
        w = Window(6)
        rep = postlie_axiom_defects(materialize_product(BiderivationForm(0, {}), w, CFG0), w, CFG0)
        assert rep.empty
        assert rep.summary() == "ok (49335 instances checked)"

    def test_bracket_weight_fails_commutativity_only(self):
        # x.y = [x,y] satisfies both Leibniz-type axioms but is skew, so
        # every recorded violation is the symmetry axiom
        w = Window(6)
        f = materialize_product(BiderivationForm(1, {}), w, CFG0)
        rep = postlie_axiom_defects(f, w, CFG0, max_recorded=10**9)
        assert {v.rule for v in rep.violations} == {AXIOM_COMMUTATIVITY}
        assert len(rep.violations) == 474
        at12 = [v for v in rep.violations if v.inputs == (gen("L", 1), gen("L", 2))]
        assert at12[0].defect == Element.monomial(gen("L", 3), Fraction(-2))

    def test_half_weight_fails_two_axioms(self):
        w = Window(6)
        f = materialize_product(BiderivationForm(Fraction(1, 2), {}), w, CFG0)
        rep = postlie_axiom_defects(f, w, CFG0, max_recorded=10**9)
        assert {v.rule for v in rep.violations} == {
            AXIOM_COMMUTATIVITY,
            AXIOM_WEIGHTED_LEIBNIZ,
        }

    def test_shift_fails_weighted_leibniz_only(self):
        w = Window(8)
        f = materialize_product(BiderivationForm(0, {3: 2017}), w, CFG0)
        rep = postlie_axiom_defects(f, w, CFG0, max_recorded=10**9)
        assert {v.rule for v in rep.violations} == {AXIOM_WEIGHTED_LEIBNIZ}
        canon = [
            v
            for v in rep.violations
            if v.inputs == (gen("L", 1), gen("L", 2), gen("L", 3))
        ]
        assert canon[0].defect == Element.monomial(gen("M", 9), Fraction(-2017))


class TestAxiomDefect:
    def test_ordered_replay_matches_witness(self):
        w = Window(8)
        form = BiderivationForm(0, {3: 2017})
        f = materialize_product(form, w, CFG0)
        wit = triviality_witness(form, CFG0)
        assert wit.axiom == AXIOM_WEIGHTED_LEIBNIZ
        assert wit.inputs == (gen("L", 2), gen("L", 1), gen("L", 3))
        assert axiom_defect(f, wit.axiom, wit.inputs, w, CFG0) == wit.residual
        assert wit.residual == Element.monomial(gen("M", 9), Fraction(2017))

    def test_none_when_instance_leaves_window(self):
        # the same instance at radius 6 needs M[8], which is outside
        w = Window(6)
        f = materialize_product(BiderivationForm(0, {3: 2017}), w, CFG0)
        inputs = (gen("L", 2), gen("L", 1), gen("L", 3))
        assert axiom_defect(f, AXIOM_WEIGHTED_LEIBNIZ, inputs, w, CFG0) is None

    def test_commutativity_always_evaluable(self):
        w = Window(5)
        f = materialize_product(BiderivationForm(1, {}), w, CFG0)
        d = axiom_defect(f, AXIOM_COMMUTATIVITY, (gen("L", 1), gen("L", 2)), w, CFG0)
        assert d == Element.monomial(gen("L", 3), Fraction(-2))

    def test_bracket_derivation_axiom_on_clean_form(self):
        w = Window(6)
        f = materialize_product(BiderivationForm(0, {0: 1}), w, CFG0)
        d = axiom_defect(
            f, AXIOM_BRACKET_DERIVATION, (gen("L", 1), gen("L", 2), gen("L", -1)), w, CFG0
        )
        assert d is not None and not d.terms


def _replay_instances(w, cfg):
    """A fixed set of axiom instances: seeded window inputs for each axiom
    plus instances that leave the window (``axiom_defect`` returns None)."""
    gens = w.generators(cfg)
    rng = random.Random(2016)
    out = [(AXIOM_COMMUTATIVITY, tuple(rng.sample(gens, 2))) for _ in range(6)]
    out += [(AXIOM_WEIGHTED_LEIBNIZ, tuple(rng.sample(gens, 3))) for _ in range(12)]
    out += [(AXIOM_BRACKET_DERIVATION, tuple(rng.sample(gens, 3))) for _ in range(12)]
    n = w.radius
    out += [
        (AXIOM_WEIGHTED_LEIBNIZ, (gen("L", n), gen("L", n - 1), gen("L", 0))),
        (AXIOM_WEIGHTED_LEIBNIZ, (gen("L", 1), gen("L", 2), gen("L", n))),
        (AXIOM_BRACKET_DERIVATION, (gen("L", 0), gen("L", n), gen("L", 1))),
        (AXIOM_BRACKET_DERIVATION, (gen("L", 1), gen("L", n), gen("L", -1))),
    ]
    return out


class TestFormReplayMatchesRealizedMap:
    """``axiom_defect`` on a form reads values lazily; it must give exactly
    what the realized window tensor gives, None and KeyError included."""

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    def test_every_sweep_form(self, cfg):
        w = Window(6)
        instances = _replay_instances(w, cfg)
        seen = set()
        for form in _sweep_forms(w):
            f = realize(form, w, cfg)
            wit = triviality_witness(form, cfg)
            extra = [] if wit is None else [(wit.axiom, wit.inputs)]
            for axiom, inputs in extra + instances:
                got = axiom_defect(form, axiom, inputs, w, cfg)
                assert got == axiom_defect(f, axiom, inputs, w, cfg), (form, axiom, inputs)
                seen.add("none" if got is None else "zero" if got.is_zero else "defect")
        assert seen == {"none", "zero", "defect"}

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    def test_outside_inputs_raise_the_same_key_error(self, cfg):
        w = Window(6)
        off_lattice = gen("Y", cfg.epsilon + Fraction(1, 2))
        cases = [
            (AXIOM_COMMUTATIVITY, (gen("L", 7), gen("L", 1))),
            (AXIOM_COMMUTATIVITY, (off_lattice, gen("L", 1))),
            (AXIOM_WEIGHTED_LEIBNIZ, (gen("L", 7), gen("L", -1), gen("L", 0))),
            (AXIOM_BRACKET_DERIVATION, (gen("L", 7), gen("L", 1), gen("L", 2))),
        ]
        for form in (BiderivationForm(Fraction(1, 2), {-1: 3}), BiderivationForm(0, {})):
            f = realize(form, w, cfg)
            for axiom, inputs in cases:
                with pytest.raises(KeyError) as want:
                    axiom_defect(f, axiom, inputs, w, cfg)
                with pytest.raises(KeyError) as got:
                    axiom_defect(form, axiom, inputs, w, cfg)
                assert str(got.value) == str(want.value)
                assert "undefined on" in str(got.value)


class TestWitnesses:
    def test_trivial_form_has_none(self):
        assert triviality_witness(BiderivationForm(0, {}), CFG0) is None

    def test_weight_witness(self):
        wit = triviality_witness(BiderivationForm(1, {}), CFG0)
        assert wit.axiom == AXIOM_COMMUTATIVITY
        assert wit.inputs == (gen("L", 1), gen("L", 2))
        assert wit.residual == Element.monomial(gen("L", 3), Fraction(-2))

    def test_mixed_form_uses_weight_witness(self):
        # the shift part cancels in the symmetry defect, so the weight
        # witness stands even when shifts are present
        wit = triviality_witness(BiderivationForm(Fraction(1, 2), {-1: 3}), CFG0)
        assert wit.axiom == AXIOM_COMMUTATIVITY
        assert wit.residual == Element.monomial(gen("L", 3), Fraction(-1))

    def test_shift_witness(self):
        wit = triviality_witness(BiderivationForm(0, {-2: Fraction(1, 3), 0: -1}), CFG0)
        assert wit.axiom == AXIOM_WEIGHTED_LEIBNIZ
        assert wit.inputs == (gen("L", 2), gen("L", 1), gen("L", 3))
        want = Element(
            {gen("M", 4): Fraction(1, 3), gen("M", 6): Fraction(-1)}
        )
        assert wit.residual == want

    def test_describe_mentions_axiom(self):
        wit = triviality_witness(BiderivationForm(1, {}), CFG0)
        assert AXIOM_COMMUTATIVITY in wit.describe()


class TestSweep:
    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
    def test_window5_sweep(self, eps):
        cfg = AlgebraConfig(eps)
        rep = verify_triviality_theorem(Window(5), cfg)
        assert rep.all_ok
        assert len(rep.cases) == 60
        assert rep.trivial_defects.empty
        assert rep.brute is None
        trivial = [c for c in rep.cases if c.form.is_trivial]
        assert len(trivial) == 1 and trivial[0].witness is None
        assert all(c.witness is not None for c in rep.cases if not c.form.is_trivial)

    def test_sweep_guard(self):
        with pytest.raises(ValueError):
            verify_triviality_theorem(Window(4), CFG0)

    def test_summary_counts_cases(self):
        rep = verify_triviality_theorem(Window(5), CFG0)
        assert "60" in rep.summary()


class TestBridge:
    def test_clean_product_is_a_biderivation(self):
        w = Window(5)
        p = materialize_product(BiderivationForm(0, {}), w, CFG0)
        f = biderivation_from_postlie(p, w, CFG0)
        assert biderivation_defects(f, w, CFG0).empty

    def test_raises_on_axiom_failure(self):
        w = Window(5)
        p = materialize_product(BiderivationForm(1, {}), w, CFG0)
        with pytest.raises(PostLieAxiomError) as exc:
            biderivation_from_postlie(p, w, CFG0)
        assert AXIOM_COMMUTATIVITY in str(exc.value)


class TestBruteSolve:
    @pytest.mark.parametrize(
        "eps, kernel, forced",
        [(Fraction(0), 127, 509), (Fraction(1, 2), 107, 419)],
    )
    def test_window3_collapses_to_zero(self, eps, kernel, forced):
        br = solve_postlie_window(Window(3), AlgebraConfig(eps))
        assert br.kernel_dimension == kernel
        assert br.forced_columns == forced
        assert br.iterations == 2
        assert br.final_dimension == 0
        assert br.interior_dimension == 0
        assert br.conclusive
        assert "interior-trivial" in br.verdict()

    def test_guard(self):
        with pytest.raises(ValueError):
            solve_postlie_window(Window(2), CFG0)

    def test_sweep_with_brute_attached(self):
        rep = verify_triviality_theorem(Window(5), CFG0, brute=Window(3))
        assert rep.all_ok
        assert rep.brute is not None and rep.brute.conclusive
