"""Derivation checking, solving, classification and decomposition."""

import random
from fractions import Fraction

import pytest

from svalgebra import (
    AlgebraConfig,
    DecompositionError,
    Element,
    Window,
    ZERO,
    bracket_basis,
    builtin_derivation,
    classify_derivations,
    decompose_derivation,
    derivation_defect,
    gen,
    inner_derivation,
    operator_from_action,
    predicted_derivation_operators,
)
from svalgebra.linalg import SparseMatrix, kernel_dimension_modp, solve_linear, vec_bump
from svalgebra.operators import DerivationDecomposition

CFG0 = AlgebraConfig(Fraction(0))
CFG_HALF = AlgebraConfig(Fraction(1, 2))
W4 = Window(4)


def test_builtin_actions():
    d1 = builtin_derivation("D1", W4, CFG0)
    d2 = builtin_derivation("D2", W4, CFG0)
    d3 = builtin_derivation("D3", W4, CFG0)
    assert d1.apply_basis(gen("L", 3)) == Element.monomial(gen("M", 3))
    assert d1.apply_basis(gen("Y", 3)) == ZERO
    assert d2.apply_basis(gen("L", -2)) == Element.monomial(gen("M", -2), Fraction(-2))
    assert d3.apply_basis(gen("Y", 1)) == Element.monomial(gen("Y", 1))
    assert d3.apply_basis(gen("M", 1)) == Element.monomial(gen("M", 1), Fraction(2))
    assert d3.apply_basis(gen("L", 1)) == ZERO


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("which", ["D1", "D2", "D3"])
def test_builtins_are_derivations(eps, which):
    cfg = AlgebraConfig(eps)
    rep = derivation_defect(builtin_derivation(which, W4, cfg), W4, cfg)
    assert rep.empty


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
def test_inner_derivations_pass(eps):
    cfg = AlgebraConfig(eps)
    for g in Window(3).generators(cfg):
        op = inner_derivation(Element.monomial(g), Window(3), cfg)
        assert derivation_defect(op, Window(3), cfg).empty


def test_linear_combination_is_derivation():
    op = builtin_derivation("D1", W4, CFG0).scaled(Fraction(3, 2))
    op = op + inner_derivation(Element.monomial(gen("L", 2), Fraction(-1)), W4, CFG0)
    assert derivation_defect(op, W4, CFG0).empty


def test_tampered_operator_flagged():
    d1 = builtin_derivation("D1", W4, CFG0)
    action = dict(d1.action)
    action[gen("L", 1)] = action[gen("L", 1)] + Element.monomial(gen("L", 1))
    rep = derivation_defect(operator_from_action(action, W4, CFG0), W4, CFG0)
    assert not rep.empty
    assert all(v.rule == "leibniz" for v in rep.violations)
    assert any(gen("L", 1) in v.inputs for v in rep.violations)


def test_operator_from_action_defaults_and_guard():
    op = operator_from_action({gen("L", 0): Element.monomial(gen("M", 0))}, W4, CFG0)
    assert op.apply_basis(gen("Y", 2)) == ZERO
    with pytest.raises(ValueError):
        operator_from_action({gen("L", 9): ZERO}, W4, CFG0)


def test_apply_linear():
    d2 = builtin_derivation("D2", W4, CFG0)
    x = Element({gen("L", 1): Fraction(2), gen("L", -3): Fraction(1, 3)})
    assert d2.apply(x) == Element({gen("M", 1): Fraction(2), gen("M", -3): Fraction(-1)})


class TestClassification:
    """Kernel dimensions are frozen from exact runs, cross-checked mod p."""

    def test_window3_eps0(self):
        dc = classify_derivations(Window(3), CFG0)
        assert dc.kernel_dimension == 71
        assert dc.predicted_in_kernel
        assert dc.interior_match
        assert dc.mutual_membership == (True, True)

    def test_window4_eps0(self, derivations_n4):
        dc = derivations_n4
        assert dc.kernel_dimension == 101
        assert dc.interior_kernel_dimension == 17
        assert dc.interior_predicted_dimension == 17
        assert dc.predicted_in_kernel
        assert dc.interior_match

    def test_window3_eps_half(self):
        dc = classify_derivations(Window(3), CFG_HALF)
        assert dc.kernel_dimension == 66
        assert dc.interior_match

    def test_window4_eps_half(self):
        dc = classify_derivations(Window(4), CFG_HALF)
        assert dc.kernel_dimension == 100
        assert dc.interior_kernel_dimension == 16
        assert dc.interior_match

    def test_modp_oracle_window3(self):
        dc = classify_derivations(Window(3), CFG0)
        assert kernel_dimension_modp(dc.matrix) == 71

    def test_predicted_count(self):
        # every ad g except the central one, plus the three outer maps
        ops = predicted_derivation_operators(Window(3), CFG0)
        assert len(ops) == 20 + 3

    def test_solver_guard(self):
        with pytest.raises(ValueError):
            classify_derivations(Window(2), CFG0)


class TestDecomposition:
    def test_recovers_mixture(self):
        op = inner_derivation(Element.monomial(gen("L", 1), Fraction(2)), W4, CFG0)
        op = op + builtin_derivation("D1", W4, CFG0)
        op = op + builtin_derivation("D3", W4, CFG0).scaled(Fraction(-1, 2))
        dec = decompose_derivation(op, W4, CFG0)
        assert dec.inner_part == Element.monomial(gen("L", 1), Fraction(2))
        assert (dec.a, dec.b, dec.c) == (1, 0, Fraction(-1, 2))

    def test_central_part_suppressed(self):
        # ad(M_0) = 0, so an M_0 component can never be recovered
        x = Element({gen("L", 2): Fraction(1), gen("M", 0): Fraction(7)})
        dec = decompose_derivation(inner_derivation(x, W4, CFG0), W4, CFG0)
        assert dec.inner_part == Element.monomial(gen("L", 2))

    def test_realize_roundtrip(self):
        op = inner_derivation(Element.monomial(gen("Y", -1), Fraction(3)), W4, CFG0)
        op = op + builtin_derivation("D2", W4, CFG0).scaled(Fraction(5))
        dec = decompose_derivation(op, W4, CFG0)
        back = dec.realize(W4, CFG0)
        for g in W4.interior_generators(CFG0):
            assert back.apply_basis(g) == op.apply_basis(g)

    def test_rejects_non_derivation(self):
        action = {gen("L", 1): Element.monomial(gen("L", 0))}
        op = operator_from_action(action, W4, CFG0)
        with pytest.raises(DecompositionError):
            decompose_derivation(op, W4, CFG0)


def _reference_decompose_derivation(op, w, cfg):
    """The decomposition system with D1-D3 written out by hand as columns
    (the pre-``outer_image`` code); column and row order as there."""
    m0 = gen("M", 0)
    xs = [g for g in w.generators(cfg) if g != m0]
    na, nb, nc = len(xs), len(xs) + 1, len(xs) + 2
    m = SparseMatrix(len(xs) + 3)
    rhs = []
    for g in w.interior_generators(cfg):
        target = op.apply_basis(g)
        rows = {}
        for j, gj in enumerate(xs):
            for h, c in bracket_basis(gj, g, cfg).terms.items():
                vec_bump(rows.setdefault(h, {}), j, c)
        if g.family == "L":
            mg = gen("M", g.index)
            vec_bump(rows.setdefault(mg, {}), na, Fraction(1))
            if g.index:
                vec_bump(rows.setdefault(mg, {}), nb, g.index)
        elif g.family == "Y":
            vec_bump(rows.setdefault(g, {}), nc, Fraction(1))
        else:
            vec_bump(rows.setdefault(g, {}), nc, Fraction(2))
        for h in target.terms:
            rows.setdefault(h, {})
        for h in sorted(rows, key=lambda k: k.sort_key()):
            m.add_row(rows[h])
            rhs.append(target.coefficient(h))
    sol = solve_linear(m, rhs)
    if sol is None:
        raise DecompositionError("operator does not match ad x + a*D1 + b*D2 + c*D3 on this window")
    x = Element({gj: sol[j] for j, gj in enumerate(xs) if j in sol})
    zero = Fraction(0)
    return DerivationDecomposition(
        inner_part=x, a=sol.get(na, zero), b=sol.get(nb, zero), c=sol.get(nc, zero)
    )


def _seeded_operators(rng, w, cfg, count):
    """ad x + a*D1 + b*D2 + c*D3 with random x (M_0 terms included) and
    coefficients, every other one perturbed at a random generator."""
    gens = w.generators(cfg)
    for i in range(count):
        x = Element({g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in rng.sample(gens, 3)})
        op = inner_derivation(x, w, cfg)
        for d in ("D1", "D2", "D3"):
            op = op + builtin_derivation(d, w, cfg).scaled(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if i % 2:
            g, h = rng.choice(gens), rng.choice(gens)
            op.action[g] = op.action[g] + Element.monomial(h, rng.randint(1, 9))
        yield op


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("radius", [3, 4])
def test_decomposition_matches_reference(radius, eps):
    cfg = AlgebraConfig(eps)
    w = Window(radius)
    rng = random.Random(8000 + radius + int(2 * eps))
    outcomes = set()
    for op in _seeded_operators(rng, w, cfg, 16):
        try:
            want = _reference_decompose_derivation(op, w, cfg)
        except DecompositionError:
            with pytest.raises(DecompositionError):
                decompose_derivation(op, w, cfg)
            outcomes.add("error")
            continue
        assert decompose_derivation(op, w, cfg) == want
        outcomes.add("decomposed")
    assert outcomes == {"error", "decomposed"}
