"""Commutative product axioms, triviality witnesses and the window sweep."""

import functools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from svalgebra import (
    AXIOM_BRACKET_DERIVATION,
    AXIOM_COMMUTATIVITY,
    AXIOM_WEIGHTED_LEIBNIZ,
    ZERO,
    AlgebraConfig,
    BiderivationForm,
    DefectReport,
    DomainError,
    Element,
    PostLieAxiomError,
    Window,
    axiom_defect,
    bilinear_map_on_window,
    biderivation_defects,
    biderivation_from_postlie,
    bracket,
    bracket_basis,
    gen,
    materialize_product,
    postlie_axiom_defects,
    realize,
    solve_postlie_window,
    triviality_witness,
    validate_generator,
    verify_triviality_theorem,
)
from svalgebra import postlie
from svalgebra.algebra import format_element
from svalgebra.postlie import TrivialityWitness, _product_values, _sweep_forms, _trim_step
from svalgebra.windows import MAX_RECORDED, OUTSIDE, BracketTable

from conftest import window_brackets

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
        cases = [
            (AXIOM_COMMUTATIVITY, (gen("L", 7), gen("L", 1))),
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

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    def test_off_lattice_inputs_raise_the_same_domain_error(self, cfg):
        # a read neither product can answer, at a generator off its lattice
        w = Window(6)
        off_lattice = gen("Y", cfg.epsilon + Fraction(1, 2))
        for form in (BiderivationForm(Fraction(1, 2), {-1: 3}), BiderivationForm(0, {})):
            f = realize(form, w, cfg)
            for p in (f, form):
                with pytest.raises(DomainError) as got:
                    axiom_defect(p, AXIOM_COMMUTATIVITY, (off_lattice, gen("L", 1)), w, cfg)
                want = f"index {off_lattice.index} invalid for family Y at epsilon={cfg.epsilon}"
                assert str(got.value) == want


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


class TestSweepVerdict:
    """Each way a sweep case can fail, provoked by replacing the witness
    or the replay the sweep calls, with its verdict and detail pinned."""

    W = Window(5)

    def sweep(self):
        rep = verify_triviality_theorem(self.W, CFG0)
        trivial = [c for c in rep.cases if c.form.is_trivial]
        assert len(rep.cases) == 60 and len(trivial) == 1
        return trivial[0], [c for c in rep.cases if not c.form.is_trivial]

    def test_passing_cases(self):
        trivial, others = self.sweep()
        assert (trivial.witness, trivial.ok, trivial.detail) == (None, True, "")
        assert all(c.witness is not None and (c.ok, c.detail) == (True, "") for c in others)

    def test_unexpected_witness(self, monkeypatch):
        stray = TrivialityWitness(AXIOM_COMMUTATIVITY, (gen("L", 1), gen("L", 2)), ZERO)
        real = postlie.triviality_witness
        monkeypatch.setattr(postlie, "triviality_witness", lambda form, cfg: real(form, cfg) or stray)
        trivial, others = self.sweep()
        assert trivial.witness is stray
        assert (trivial.ok, trivial.detail) == (False, "unexpected witness for the trivial product")
        assert all((c.ok, c.detail) == (True, "") for c in others)

    def test_missing_witness(self, monkeypatch):
        monkeypatch.setattr(postlie, "triviality_witness", lambda form, cfg: None)
        trivial, others = self.sweep()
        assert (trivial.ok, trivial.detail) == (True, "")
        assert all((c.witness, c.ok, c.detail) == (None, False, "missing witness") for c in others)

    def test_witness_not_evaluable(self, monkeypatch):
        monkeypatch.setattr(postlie, "axiom_defect", lambda *args: None)
        trivial, others = self.sweep()
        assert (trivial.ok, trivial.detail) == (True, "")
        assert all((c.ok, c.detail) == (False, "witness instance not evaluable") for c in others)

    def test_checker_defect_differs(self, monkeypatch):
        defect = Element({gen("M", 0): Fraction(-3, 2)})
        monkeypatch.setattr(postlie, "axiom_defect", lambda *args: defect)
        trivial, others = self.sweep()
        assert (trivial.ok, trivial.detail) == (True, "")
        for c in others:
            want = f"checker defect -3/2*M[0] != witness residual {format_element(c.witness.residual)}"
            assert (c.ok, c.detail) == (False, want)
        lam_one = BiderivationForm(1, {})
        (case,) = [c for c in others if c.form == lam_one]
        assert case.detail == "checker defect -3/2*M[0] != witness residual -2*L[3]"


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
        "radius, eps, columns, linear_rows, kernel, quadratic, forced",
        [
            (3, Fraction(0), 9261, 50148, 127, 43218, 509),
            (3, Fraction(1, 2), 8000, 40400, 107, 35200, 419),
            (4, Fraction(0), 19683, 135270, 205, 121014, 957),
            (4, Fraction(1, 2), 17576, 114270, 211, 104104, 859),
            (5, Fraction(0), 35937, 299772, 309, 276606, 1717),
            (5, Fraction(1, 2), 32768, 260160, 291, 241664, 1609),
            (6, Fraction(0), 59319, 579150, 457, 541476, 2725),
            (6, Fraction(1, 2), 54872, 515546, 455, 488072, 2537),
            (7, Fraction(0), 91125, 1023570, 659, 972000, 4133),
            (7, Fraction(1, 2), 85184, 926288, 611, 886688, 3965),
        ],
        ids=[
            "N3-eps0", "N3-eps1/2", "N4-eps0", "N4-eps1/2", "N5-eps0", "N5-eps1/2",
            "N6-eps0", "N6-eps1/2", "N7-eps0", "N7-eps1/2",
        ],
    )
    def test_window_collapses_to_zero(self, radius, eps, columns, linear_rows, kernel, quadratic, forced):
        br = solve_postlie_window(Window(radius), AlgebraConfig(eps))
        assert br.columns == columns
        assert br.linear_rows == linear_rows
        assert br.kernel_dimension == kernel
        assert br.quadratic_instances == quadratic
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


# -- the trim rule of the brute enclosure, against the instance loop ---------
# A verbatim copy of the instance list and trim loop that ran in
# ``solve_postlie_window`` before the rule moved into ``postlie._trim_step``:
# one instance per ((x, y), z, k), each tested against every window g.  It
# reads the window's brackets from ``bracket_basis`` (``window_brackets``).


def _reference_trim_step(products, n, supp, forced):
    instances = []
    for x in range(n):
        for y in range(x + 1, n):
            br = products[x * n + y]
            if br is None or br[0] == OUTSIDE:
                continue
            b = br[0]
            for z in range(n):
                base_b = (b * n + z) * n
                base_yz = (y * n + z) * n
                base_xz = (x * n + z) * n
                for k in range(n):
                    instances.append((base_b + k, base_yz, x * n, base_xz, y * n, k))
    quadratic_instances = len(instances)

    new_forced = set()
    for lin_col, base_yz, row_x, base_xz, row_y, k in instances:
        if lin_col in forced or lin_col not in supp:
            continue
        ok = True
        for g in range(n):
            if base_yz + g in supp and (row_x + g) * n + k in supp:
                ok = False
                break
            if base_xz + g in supp and (row_y + g) * n + k in supp:
                ok = False
                break
        if ok:
            new_forced.add(lin_col)
    return quadratic_instances, new_forced


@functools.cache
def _trim_window(radius, eps):
    """The bracket table of one window, its brackets from ``bracket_basis``
    (``window_brackets``) and its ``closed`` list: the (x, y, b) with x < y
    and [x, y] a nonzero multiple of the window generator b."""
    w, cfg = Window(radius), AlgebraConfig(eps)
    table, products = BracketTable(w, cfg), window_brackets(w, cfg)
    n = table.n
    pairs = [(x, y, products[x * n + y]) for x in range(n) for y in range(x + 1, n)]
    return table, products, [(x, y, br[0]) for x, y, br in pairs if br is not None and br[0] != OUTSIDE]


@st.composite
def trim_cases(draw):
    """A window of radius 2 or 3, either parity, and a random support on its
    ``PairCoords`` columns, split over one to three basis vectors, with a
    drawn forced set that the support avoids, as a trimmed basis does.  The
    density runs from a few columns, where the rows force what they reach,
    to nine tenths of the columns, where most rows are blocked."""
    radius = draw(st.sampled_from([2, 3]))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 2)]))
    table, products, closed = _trim_window(radius, eps)
    cols = table.n ** 3
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0005, 0.003, 0.02, 0.1, 0.5, 0.9]))
    forced_density = draw(st.sampled_from([0, 0.01, 0.1]))
    forced = {c for c in range(cols) if rng.random() < forced_density}
    supp = {c for c in range(cols) if rng.random() < density} - forced
    parts = draw(st.integers(1, 3))
    basis = [{} for _ in range(parts)]
    for c in supp:
        basis[rng.randrange(parts)][c] = Fraction(rng.choice([-2, -1, 1, 3]))
    return table, products, closed, supp, forced, basis


@given(trim_cases())
@settings(max_examples=40, deadline=None)
def test_trim_step_matches_the_instance_loop(case):
    table, products, closed, supp, forced, basis = case
    n = table.n
    quadratic_instances, want = _reference_trim_step(products, n, supp, forced)
    got = _trim_step(closed, n, basis)
    assert got == want
    assert quadratic_instances == len(closed) * n * n
    assert got <= supp


# -- the Element-based checker, kept as the reference ------------------------
# A verbatim copy of the helpers that evaluated each instance on Element
# objects with Fraction arithmetic before the checker moved onto integer
# positions (``postlie.AxiomCheck``).


def _left_product(f, e, z):
    # e * z for window-supported e
    out = ZERO
    for b, c in e.terms.items():
        out = out + f(b, z).scaled(c)
    return out


def _right_product(f, x, e):
    # x * e for window-supported e
    out = ZERO
    for b, c in e.terms.items():
        out = out + f(x, b).scaled(c)
    return out


def _axiom5_defect(f, a, b):
    return f(a, b) - f(b, a)


def _axiom6_defect(f, x, y, z, w, cfg):
    br = bracket_basis(x, y, cfg)
    if not w.contains_element(br):
        return None
    yz = f(y, z)
    xz = f(x, z)
    if not (w.contains_element(yz) and w.contains_element(xz)):
        return None
    return _left_product(f, br, z) - _right_product(f, x, yz) + _right_product(f, y, xz)


def _axiom7_defect(f, x, y, z, w, cfg):
    br = bracket_basis(y, z, cfg)
    if not w.contains_element(br):
        return None
    left = _right_product(f, x, br)
    right = bracket(f(x, y), Element.monomial(z, Fraction(1)), cfg)
    right = right + bracket(Element.monomial(y, Fraction(1)), f(x, z), cfg)
    return left - right


def _lattice_read(read, cfg):
    """``read``, except that a pair it cannot answer raises DomainError when
    it holds a generator off its lattice, as ``AxiomCheck`` reads values."""

    def value(a, b):
        try:
            return read(a, b)
        except KeyError:
            validate_generator(a, cfg)
            validate_generator(b, cfg)
            raise

    return value


def _reference_axiom_defect(p, axiom, inputs, w, cfg):
    f = _lattice_read(_product_values(p, w, cfg), cfg)
    if axiom == AXIOM_COMMUTATIVITY:
        a, b = inputs
        return _axiom5_defect(f, a, b)
    if axiom == AXIOM_WEIGHTED_LEIBNIZ:
        x, y, z = inputs
        return _axiom6_defect(f, x, y, z, w, cfg)
    if axiom == AXIOM_BRACKET_DERIVATION:
        x, y, z = inputs
        return _axiom7_defect(f, x, y, z, w, cfg)
    raise ValueError(f"unknown axiom tag {axiom!r}")


def _reference_postlie_axiom_defects(p, w, cfg, max_recorded=MAX_RECORDED):
    f = _lattice_read(materialize_product(p, w, cfg).value, cfg)
    gens = w.generators(cfg)
    for a in gens:
        for b in gens:
            f(a, b)  # total on the window or KeyError
    rep = DefectReport(max_recorded=max_recorded)

    pairs = 0
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            pairs += 1
            d = _axiom5_defect(f, a, b)
            if d.terms:
                rep.record((a, b), d, AXIOM_COMMUTATIVITY)
    rep.tick(pairs)

    # axiom-6 is antisymmetric in (x, y), axiom-7 in (y, z): unordered there
    closed = 0
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            for z in gens:
                d = _axiom6_defect(f, x, y, z, w, cfg)
                if d is None:
                    continue
                closed += 1
                if d.terms:
                    rep.record((x, y, z), d, AXIOM_WEIGHTED_LEIBNIZ)
    rep.tick(closed)

    closed = 0
    for x in gens:
        for j, y in enumerate(gens):
            for z in gens[j + 1:]:
                d = _axiom7_defect(f, x, y, z, w, cfg)
                if d is None:
                    continue
                closed += 1
                if d.terms:
                    rep.record((x, y, z), d, AXIOM_BRACKET_DERIVATION)
    rep.tick(closed)
    return rep


def _outcome(call, *args):
    """A call's result, or its KeyError or DomainError as (class name, message)."""
    try:
        return call(*args)
    except (KeyError, DomainError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_axiom_report(p, w, cfg, max_recorded=MAX_RECORDED):
    want = _outcome(_reference_postlie_axiom_defects, p, w, cfg, max_recorded)
    got = _outcome(postlie_axiom_defects, p, w, cfg, max_recorded)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert (got.checked, got.total) == (want.checked, want.total)
    assert got.violations == want.violations
    return got


def assert_same_instance(p, axiom, inputs, w, cfg):
    want = _outcome(_reference_axiom_defect, p, axiom, inputs, w, cfg)
    got = _outcome(axiom_defect, p, axiom, inputs, w, cfg)
    assert got == want, (axiom, inputs)
    return got


class TestFixedProductsMatchReference:
    """The zero, λ=1, λ=1/2, λ=-2/3 plus two shifts and {3: 2017} products
    at N=5: every report field, every violation in order, and the
    single-instance replay of recorded violations."""

    @pytest.mark.parametrize("cfg", [CFG0, CFG_HALF], ids=["eps0", "eps_half"])
    @pytest.mark.parametrize(
        "form",
        [
            BiderivationForm(0, {}),
            BiderivationForm(1, {}),
            BiderivationForm(Fraction(1, 2), {}),
            BiderivationForm(Fraction(-2, 3), {-1: Fraction(5, 7), 0: 3}),
            BiderivationForm(0, {3: 2017}),
        ],
        ids=["zero", "lam1", "lam_half", "lam_mixed_shifts", "shift2017"],
    )
    def test_every_violation(self, form, cfg):
        w = Window(5)
        rep = assert_same_axiom_report(form, w, cfg, max_recorded=10**9)
        for v in rep.violations[::7]:
            assert axiom_defect(form, v.rule, v.inputs, w, cfg) == v.defect

    def test_small_cap_keeps_the_first_violations_in_order(self):
        w = Window(5)
        form = BiderivationForm(Fraction(1, 2), {-1: 3})
        full = assert_same_axiom_report(form, w, CFG0, max_recorded=10**9)
        capped = assert_same_axiom_report(form, w, CFG0, max_recorded=7)
        assert {v.rule for v in full.violations} == {AXIOM_COMMUTATIVITY, AXIOM_WEIGHTED_LEIBNIZ}
        assert capped.total == full.total > 7
        assert capped.violations == full.violations[:7]


_coefficients = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.sampled_from([1, 1, 2, 3, 4, 6, 7, 1000003]),
)


@st.composite
def value_terms(draw, cfg, radius):
    """1-3 terms: lattice generators with |index| up to 2N+3 (some leave
    the window), and now and then one off the lattice, such as Y[1/3] at
    epsilon 0, inside or outside the window radius."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        fam = draw(st.sampled_from("LYM"))
        idx = Fraction(draw(st.integers(-2 * radius - 3, 2 * radius + 3)))
        if fam == "Y":
            idx += cfg.epsilon
        if draw(st.integers(0, 9)) == 0:
            idx += draw(st.sampled_from([Fraction(1, 3), Fraction(1, 7), Fraction(-1, 2)]))
        terms[gen(fam, idx)] = draw(_coefficients)
    return Element(terms)


@st.composite
def post_lie_products(draw):
    """A window map at N=3..5, either parity: half the time a realized form,
    else zero, with a few entries replaced by drawn values or by zero."""
    w = Window(draw(st.sampled_from([3, 4, 5])))
    cfg = AlgebraConfig(draw(st.sampled_from([Fraction(0), Fraction(1, 2)])))
    gens = w.generators(cfg)
    mapping = {}
    if draw(st.booleans()):
        lam = draw(_coefficients | st.just(Fraction(0)))
        mu = {k: draw(_coefficients) for k in draw(st.lists(st.integers(-2, 2), max_size=2, unique=True))}
        mapping.update(realize(BiderivationForm(lam, mu), w, cfg).tensor)
    pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
    for _ in range(draw(st.integers(0, 5))):
        mapping[draw(pairs)] = draw(value_terms(cfg, w.radius))
    for _ in range(draw(st.integers(0, 3))):
        mapping[draw(pairs)] = ZERO
    f = bilinear_map_on_window(mapping, w, cfg, label="drawn")
    instances = [
        (AXIOM_COMMUTATIVITY, (draw(st.sampled_from(gens)), draw(st.sampled_from(gens))))
    ] + [
        (draw(st.sampled_from([AXIOM_WEIGHTED_LEIBNIZ, AXIOM_BRACKET_DERIVATION])), draw(st.tuples(*[st.sampled_from(gens)] * 3)))
        for _ in range(4)
    ]
    return f, w, cfg, draw(st.sampled_from([1, 3, MAX_RECORDED])), instances


@given(post_lie_products())
@settings(max_examples=20, deadline=None)
def test_drawn_products_match_reference(case):
    f, w, cfg, cap, instances = case
    assert_same_axiom_report(f, w, cfg, max_recorded=cap)
    for axiom, inputs in instances:
        assert_same_instance(f, axiom, inputs, w, cfg)


class TestOffLatticeBrackets:
    """Value generators off the lattice bracket with window generators at
    coefficients that are not half-integers; both checkers stay exact."""

    def test_outside_the_radius_stays_exact(self):
        # [L[1], Y[22/7]] = -37/14 Y[29/7] and [Y[0], L[10/3]] = -5/3 Y[10/3]
        w = Window(3)
        odd = Element({gen("Y", Fraction(22, 7)): 3, gen("L", Fraction(10, 3)): Fraction(-1, 2)})
        f = bilinear_map_on_window({(gen("L", 2), gen("L", -1)): odd}, w, CFG0)
        rep = assert_same_axiom_report(f, w, CFG0, max_recorded=10**9)
        seven = [v for v in rep.violations if v.rule == AXIOM_BRACKET_DERIVATION and any(c.denominator % 7 == 0 for c in v.defect.terms.values())]
        assert seven
        inputs = (gen("L", 2), gen("L", -1), gen("L", 1))
        d = assert_same_instance(f, AXIOM_BRACKET_DERIVATION, inputs, w, CFG0)
        assert d.coefficient(gen("Y", Fraction(29, 7))) == 3 * Fraction(-37, 14)

    def test_inside_the_radius_replays_exactly(self):
        # -[Y[1/7], L[2]] = 6/7 Y[15/7]; the full check reads f(x, Y[1/7]),
        # which the map cannot answer off the lattice: a DomainError, so a
        # ValueError, as biderivation_defects raises for the same map
        w = Window(3)
        f = bilinear_map_on_window({(gen("L", 1), gen("L", 1)): Element({gen("Y", Fraction(1, 7)): 1})}, w, CFG0)
        d = assert_same_instance(f, AXIOM_BRACKET_DERIVATION, (gen("L", 1), gen("L", 1), gen("L", 2)), w, CFG0)
        assert d.coefficient(gen("Y", Fraction(15, 7))) == Fraction(6, 7)
        assert assert_same_axiom_report(f, w, CFG0) is None  # both raised the same error
        want = ("DomainError", "index 1/7 invalid for family Y at epsilon=0")
        assert _outcome(postlie_axiom_defects, f, w, CFG0) == want
        assert _outcome(biderivation_from_postlie, f, w, CFG0) == want
        with pytest.raises(ValueError):
            biderivation_defects(f, w, CFG0)

    def test_a_map_defined_past_the_window_is_read_there(self):
        # extra entries (g, Y[1/3]) make the off-lattice reads defined
        w = Window(3)
        third = gen("Y", Fraction(1, 3))
        f = bilinear_map_on_window({(gen("L", 1), gen("M", 0)): Element({third: Fraction(2, 3)})}, w, CFG0)
        for g in w.generators(CFG0):
            f.tensor[(g, third)] = Element({gen("M", g.index + third.index): 1, gen("L", 1): Fraction(1, 2)})
        rep = assert_same_axiom_report(f, w, CFG0, max_recorded=10**9)
        assert rep.total > 0
