"""Acceptance gate: one test per criterion, one pass/fail line under -v.

Each test name states the claim it checks.  The expensive classifications
come from session fixtures so the gate shares work with the unit tests.
"""

import json
import random
import time
from fractions import Fraction

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    Element,
    Window,
    biderivation_defects,
    builtin_derivation,
    derivation_defect,
    gen,
    inner_derivation,
    lie_axiom_defects,
    match_form,
    realize,
    representable_shifts,
    skew_kernel_members,
    solve_all_propositions,
    triviality_witness,
    verify_triviality_theorem,
)
from svalgebra.cli import main
from svalgebra.linalg import kernel_dimension_modp, span_basis
from svalgebra.operators import project_columns
from svalgebra.algebra import format_element
from svalgebra.parsing import parse_element

from conftest import random_corpus_element

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))
BOTH = (CFG0, CFG_HALF)


def test_criterion_01_lie_axioms_hold_exhaustively_on_radius8_for_both_parities():
    for cfg, pairs_plus_triples in ((CFG0, 22151), (CFG_HALF, 20875)):
        rep = lie_axiom_defects(Window(8), cfg)
        assert rep.empty, rep.summary()
        assert rep.checked == pairs_plus_triples


def test_criterion_02_builtin_and_all_inner_operators_are_derivations_on_radius8():
    w = Window(8)
    for cfg in BOTH:
        for name in ("D1", "D2", "D3"):
            rep = derivation_defect(builtin_derivation(name, w, cfg), w, cfg)
            assert rep.empty, f"{name} at eps={cfg.epsilon}: {rep.summary()}"
        for g in w.generators(cfg):
            op = inner_derivation(Element.monomial(g), w, cfg)
            rep = derivation_defect(op, w, cfg)
            assert rep.empty, f"ad {g} at eps={cfg.epsilon}: {rep.summary()}"


def test_criterion_03_derivation_kernel_on_radius4_is_101_dimensional_and_matches_classified_span(
    derivations_n4,
):
    dc = derivations_n4
    assert dc.kernel_dimension == 101
    assert dc.predicted_in_kernel
    assert dc.interior_kernel_dimension == dc.interior_predicted_dimension == 17
    assert dc.mutual_membership == (True, True)
    assert kernel_dimension_modp(dc.matrix) == 101


def test_criterion_04_central_shift_2017_realizes_a_symmetric_biderivation_on_radius10():
    w = Window(10)
    form = BiderivationForm(0, {3: 2017})
    f = realize(form, w, CFG0)
    rep = biderivation_defects(f, w, CFG0)
    assert rep.empty, rep.summary()
    assert f.is_symmetric()
    assert not f.is_skewsymmetric()
    assert match_form(f, w, CFG0) == form


def test_criterion_05_fifty_seeded_classified_forms_verify_per_parity_under_a_minute():
    w = Window(5)
    shifts = representable_shifts(w)
    t0 = time.time()
    for cfg in BOTH:
        rng = random.Random(20250819)
        for _ in range(50):
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            mu = {
                k: Fraction(rng.randint(-5, 5) or 1)
                for k in rng.sample(shifts, rng.randint(0, 3))
            }
            form = BiderivationForm(lam, mu)
            rep = biderivation_defects(realize(form, w, cfg), w, cfg)
            assert rep.empty, f"{form} at eps={cfg.epsilon}: {rep.summary()}"
    assert time.time() - t0 < 60


def test_criterion_06_biderivation_kernel_on_radius3_is_192_dimensional_with_modp_crosscheck(
    biderivations_n3,
):
    bc = biderivations_n3
    assert bc.kernel_dimension == 192
    assert bc.predicted_in_kernel
    assert bc.interior_match
    assert bc.mutual_membership == (True, True)
    assert kernel_dimension_modp(bc.matrix) == 192


def test_criterion_07_skew_kernel_members_reduce_to_the_bracket_line_on_the_interior(
    biderivations_n3,
):
    bc = biderivations_n3
    skews = skew_kernel_members(bc)
    assert len(skews) == 65
    coords = bc.coords
    cols = coords.interior_columns()
    projected = [project_columns(v, cols) for v in skews]
    inside = span_basis(projected, coords.col_count)
    assert inside.dimension == 1
    bracket_enc = coords.encode(realize(BiderivationForm(1, {}), coords.window, CFG0))
    line = span_basis([project_columns(bracket_enc, cols)], coords.col_count)
    assert all(line.contains(v) for v in projected)


def test_criterion_08_recurrence_systems_on_radius4_match_their_closed_form_kernels():
    expected = {
        "prop1": (5, 1, 0),
        "prop2": (4, 0, 0),
        "prop3": (35, 15, 18),
        "prop4": (9, 5, 9),
    }
    reports = dict(solve_all_propositions(Window(4)))
    for name, (kernel, interior, free) in expected.items():
        rep = reports[name]
        assert rep.kernel_dimension == kernel, name
        assert rep.interior_kernel_dimension == interior, name
        assert len(rep.free_directions) == free, name
        assert rep.predicted_in_kernel and rep.interior_match, name
        assert rep.mutual_membership == (True, True), name
    # the 15 interior directions of the third system: 5 representable
    # shifts plus 10 interior subscript-0 free columns
    p3 = reports["prop3"]
    interior_zero = [
        lab for lab in p3.free_directions if abs(lab[2]) <= p3.coords.radius // 2
    ]
    assert 5 + len(interior_zero) == 15


def test_criterion_09_triviality_sweep_on_radius6_and_brute_radius3_leave_only_the_zero_product():
    from svalgebra import materialize_product, postlie_axiom_defects

    for cfg in BOTH:
        rep = verify_triviality_theorem(Window(6), cfg, brute=Window(3))
        assert rep.all_ok, rep.summary()
        assert len(rep.cases) == 72
        assert rep.trivial_defects.empty
        assert rep.brute.conclusive
        assert rep.brute.final_dimension == 0
        assert rep.brute.interior_dimension == 0
        assert "interior-trivial" in rep.brute.verdict()
    # witness entries agree with the full checker's recorded defects
    w = Window(6)
    weight = BiderivationForm(1, {})
    wit = triviality_witness(weight, CFG0)
    full = postlie_axiom_defects(materialize_product(weight, w, CFG0), w, CFG0, max_recorded=10**9)
    entry = [v for v in full.violations if v.inputs == wit.inputs]
    assert entry and entry[0].defect == wit.residual
    spike = BiderivationForm(0, {0: 1})
    wit = triviality_witness(spike, CFG0)
    full = postlie_axiom_defects(materialize_product(spike, w, CFG0), w, CFG0, max_recorded=10**9)
    canon = tuple(sorted(wit.inputs, key=lambda g: g.sort_key()))
    entry = [v for v in full.violations if v.inputs == canon]
    assert entry and entry[0].defect == -wit.residual


def test_criterion_10_cli_round_trips_200_expressions_and_returns_documented_exit_codes(capsys):
    for cfg in BOTH:
        rng = random.Random(20250819)
        for _ in range(100):
            e = random_corpus_element(rng, cfg)
            assert parse_element(format_element(e), cfg) == e
    assert main(["bracket", "L[2]", "L[3]"]) == 0
    assert capsys.readouterr().out == "-1*L[5]\n"
    assert main(["postlie", "--lambda", "1", "-N", "5", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["axiom"] == "axiom-5"
    assert main(["props", "-N", "2"]) == 2
    capsys.readouterr()
