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
from svalgebra.linalg import SparseMatrix, kernel_dimension_modp, rank, solve_linear, vec_bump
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


# -- the one closed form, against the code it replaced -----------------------


def _reference_realize(dec, w, cfg):
    """``DerivationDecomposition.realize`` as it was: the inner derivation
    plus each builtin derivation scaled by its coefficient."""
    op = inner_derivation(dec.inner_part, w, cfg)
    for d, k in zip(("D1", "D2", "D3"), (dec.a, dec.b, dec.c)):
        op = op + builtin_derivation(d, w, cfg).scaled(k)
    op.label = "decomposition"
    return op


def _reference_predicted(w, cfg):
    """``predicted_derivation_operators`` as it was: ad g for every window
    g but M_0, then D1, D2, D3."""
    ops = [inner_derivation(Element.monomial(g), w, cfg) for g in w.generators(cfg) if g != gen("M", 0)]
    return ops + [builtin_derivation(d, w, cfg) for d in ("D1", "D2", "D3")]


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)], ids=["eps0", "eps_half"])
@pytest.mark.parametrize("radius", [2, 3, 4, 5])
def test_value_is_the_realized_shape(radius, eps):
    """Seeded forms with M_0 terms and zero coefficients: ``value`` at every
    window generator is the image of the operator the old ``realize``
    built, and ``realize`` is that operator, label included."""
    cfg = AlgebraConfig(eps)
    w = Window(radius)
    gens = w.generators(cfg)
    rng = random.Random(9100 + radius + int(2 * eps))
    for _ in range(8):
        x = Element({g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in rng.sample(gens, 3)})
        x = x + Element.monomial(gen("M", 0), rng.randint(1, 5))
        a, b, c = (Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3))
        dec = DerivationDecomposition(x, a, b, c)
        want = _reference_realize(dec, w, cfg)
        assert [dec.value(g, cfg) for g in gens] == [want.apply_basis(g) for g in gens]
        got = dec.realize(w, cfg)
        assert (got.label, got.action) == (want.label, want.action)


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)], ids=["eps0", "eps_half"])
def test_predicted_operators_are_the_unit_forms(eps):
    """Radii 3 to 8: the same operators, in the same order, with the same
    labels and actions (generator order and term order included)."""
    cfg = AlgebraConfig(eps)
    for radius in range(3, 9):
        w = Window(radius)
        got, want = predicted_derivation_operators(w, cfg), _reference_predicted(w, cfg)
        labels = [op.label for op in got]
        assert labels == [op.label for op in want]
        assert labels[0] == f"ad(1*L[{-radius}])" and labels[-3:] == ["D1", "D2", "D3"]
        for g_op, w_op in zip(got, want):
            assert list(g_op.action) == list(w_op.action)
            assert [list(v.terms.items()) for v in g_op.action.values()] == [
                list(v.terms.items()) for v in w_op.action.values()
            ]


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2)], ids=["eps0", "eps_half"])
def test_decomposition_system_has_full_column_rank_from_radius_2(eps):
    """The unit forms' values on the interior generators, the columns of
    the decomposition system, are independent at radii 2 to 6, so the
    decomposition there is unique.  At radius 1 they span 8 dimensions of
    11 (epsilon 0) or 10 (epsilon 1/2), which is why radius 1 is refused."""
    cfg = AlgebraConfig(eps)
    for radius in range(1, 7):
        w = Window(radius)
        ops = predicted_derivation_operators(w, cfg)
        index = {}
        columns = [
            {index.setdefault((g, h), len(index)): c for g in w.interior_generators(cfg)
             for h, c in op.apply_basis(g).terms.items()}
            for op in ops
        ]
        want = len(ops) if radius >= 2 else 8
        assert rank(SparseMatrix(len(index), columns)) == want, radius
    assert len(predicted_derivation_operators(Window(1), cfg)) == (11 if eps == 0 else 10)
    with pytest.raises(ValueError, match=r"^derivation decomposition needs window radius >= 2$"):
        decompose_derivation(operator_from_action({}, Window(1), cfg), Window(1), cfg)
