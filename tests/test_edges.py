"""Where numbers and commands enter and leave: exact scalars, the one radius
guard, the command-line number grammar and subcommand table, and rational
labels printed exactly at any length."""

import sys
from fractions import Fraction

import pytest

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    Element,
    GeneratorId,
    OmegaSet,
    SparseMatrix,
    Window,
    axiom_defect,
    chi_omega,
    classify_biderivations,
    classify_derivations,
    decompose_biderivation,
    decompose_derivation,
    gen,
    match_form,
    operator_from_action,
    prop1_solve,
    prop2_solve,
    prop3_solve,
    prop4_solve,
    realize,
    solve_all_propositions,
    span_basis,
    triviality_witness,
    validate_generator,
    verify_triviality_theorem,
)
from svalgebra import algebra
from svalgebra.cli import build_parser, main
from svalgebra.linalg import solve_linear
from svalgebra.parsing import format_tensor_lines, parse_tensor_lines
from svalgebra.postlie import solve_postlie_window
from svalgebra.propositions import GridCoords
from svalgebra.windows import LeibnizCheck

CFG0 = AlgebraConfig(Fraction(0))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactScalars:
    ENTRY_POINTS = {
        "Element": lambda x: Element({gen("L", 0): x}),
        "Element.scaled": lambda x: Element.monomial(gen("L", 0)).scaled(x),
        "gen": lambda x: gen("L", x),
        "GeneratorId": lambda x: GeneratorId("L", x),
        "AlgebraConfig": lambda x: AlgebraConfig(x),
        "OmegaSet": lambda x: OmegaSet({0: x}),
        "BiderivationForm": lambda x: BiderivationForm(x, {}),
        "GridCoords.encode": lambda x: GridCoords(3, ("k",)).encode({("k", 0, 0): x}),
        "SparseMatrix": lambda x: SparseMatrix(2, [{0: x}]),
        "SparseMatrix.add_row": lambda x: SparseMatrix(2).add_row({0: x}),
        "span_basis": lambda x: span_basis([{0: x, 1: Fraction(1)}], 2),
        "SpanBasis.contains": lambda x: span_basis([{0: Fraction(1)}], 2).contains({0: x}),
        "solve_linear rhs": lambda x: solve_linear(SparseMatrix(2, [{0: Fraction(1)}]), [x]),
    }

    @pytest.mark.parametrize("value", [0.1, "1/2", 0.0], ids=["float", "text", "zero-float"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_refuses_inexact_scalars(self, entry, value):
        with pytest.raises(TypeError, match="a scalar is an int or a Fraction"):
            self.ENTRY_POINTS[entry](value)

    def test_exact_keeps_a_fraction_and_converts_an_int(self):
        q = Fraction(-5, 3)
        assert algebra.exact(q) is q
        assert algebra.exact(7) == Fraction(7) and type(algebra.exact(7)) is Fraction

    def test_omega_set_refuses_a_bool_shift(self):
        with pytest.raises(ValueError, match="shift True is not an integer"):
            OmegaSet({True: 1})

    def test_parse_makes_fewer_fractions_than_lines(self):
        """Element terms that already are Fractions are kept as they are:
        a parse makes a Fraction per distinct token, not per term."""
        form = BiderivationForm(Fraction(-5, 3), {-1: 2, 0: Fraction(1, 7)})
        tensor = realize(form, Window(5), CFG0).tensor
        text = format_tensor_lines({k: v for k, v in tensor.items() if not v.is_zero})
        lines = len(text.splitlines())
        assert lines == 683
        code, made = Fraction.__new__.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                made.append(1)

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            parsed = parse_tensor_lines(text, CFG0)
        finally:
            sys.setprofile(old)
        assert len(parsed) == lines
        assert 0 < len(made) < lines


# (call at a window, its minimum radius, what its message names)
GUARDS = [
    (lambda w: classify_derivations(w, CFG0), 3, "derivation solver"),
    (lambda w: classify_biderivations(w, CFG0), 3, "biderivation solver"),
    (lambda w: match_form(realize(BiderivationForm(1, {}), w, CFG0), w, CFG0), 2, "form matching"),
    (prop1_solve, 2, "proposition 1"),
    (prop2_solve, 3, "proposition 2"),
    (prop3_solve, 3, "proposition 3"),
    (prop4_solve, 3, "proposition 4"),
    (lambda w: verify_triviality_theorem(w, CFG0), 5, "triviality sweep"),
    (lambda w: solve_postlie_window(w, CFG0), 3, "brute post-Lie solve"),
    (lambda w: decompose_derivation(operator_from_action({}, w, CFG0), w, CFG0), 2, "derivation decomposition"),
    (lambda w: decompose_biderivation(realize(BiderivationForm(1, {}), w, CFG0), w, CFG0), 2,
     "biderivation decomposition"),
]


@pytest.mark.parametrize("call, minimum, what", GUARDS, ids=[what for _, _, what in GUARDS])
def test_radius_guard_names_its_minimum(call, minimum, what):
    with pytest.raises(ValueError) as info:
        call(Window(minimum - 1))
    assert str(info.value) == f"{what} needs window radius >= {minimum}"


def test_window_require():
    Window(4).require(4, "a solver")
    with pytest.raises(ValueError, match=r"^a solver needs window radius >= 5$"):
        Window(4).require(5, "a solver")


@pytest.mark.parametrize("radius", [3.0, Fraction(7, 2), Fraction(3), True, "3"], ids=repr)
def test_window_refuses_a_radius_that_is_not_an_integer(radius):
    with pytest.raises(ValueError, match=r"^window radius .* is not an integer$"):
        Window(radius)


def test_sparse_matrix_refuses_a_column_count_that_is_not_an_int():
    with pytest.raises(TypeError, match=r"^column count 2\.0 is not an int$"):
        SparseMatrix(2.0, [{0: Fraction(1)}])


def min_window(command, *args):
    return build_parser().parse_args([command, *args]).min_window


@pytest.mark.parametrize(
    "command, args, library",
    [
        ("solve-derivations", (), lambda w: classify_derivations(w, CFG0)),
        ("solve-biderivations", (), lambda w: classify_biderivations(w, CFG0)),
        ("props", (), solve_all_propositions),
        ("match-form", ("file",), lambda w: match_form(realize(BiderivationForm(1, {}), w, CFG0), w, CFG0)),
        ("decompose-derivation", ("file",),
         lambda w: decompose_derivation(operator_from_action({}, w, CFG0), w, CFG0)),
    ],
)
def test_cli_minimum_is_the_library_minimum(capsys, command, args, library):
    """Below the subcommand's minimum the CLI refuses before any file is
    read, and the library guard it reaches refuses the same radius."""
    n = min_window(command, *args)
    with pytest.raises(ValueError, match=f"needs window radius >= {n}$"):
        library(Window(n - 1))
    assert run(capsys, command, *args, "-N", str(n - 1)) == (2, "", f"error: {command} needs -N >= {n}\n")


def test_postlie_minimum_is_the_cli_own():
    """The witness replay has no guard: below radius 5 it leaves the
    window and says so, so the CLI keeps its own minimum for postlie."""
    assert min_window("postlie") == 5
    form = BiderivationForm(0, {3: 2017})
    wit = triviality_witness(form, CFG0)
    assert axiom_defect(form, wit.axiom, wit.inputs, Window(1), CFG0) is None


def test_subcommands_without_a_minimum():
    for command, args in [("bracket", ("X", "Y")), ("jacobi", ()), ("check-derivation", ("f",)),
                          ("check-biderivation", ("f",))]:
        assert min_window(command, *args) == 1


# flag values the element grammar reads, with today's output
PINNED = [
    (("postlie", "-N", "5", "--lambda=-3/7"), 1,
     "axiom-5 fails at (L[1], L[2]): residual 6/7*L[3]\nreplay through the axiom checker: confirmed\n"),
    (("postlie", "-N", "5", "--lambda=-3/7", "--json"), 1,
     '{"command": "postlie", "epsilon": "0", "window": 5, "seed": null, "verdict": "witness-found",'
     ' "trivial": false, "witness": {"axiom": "axiom-5", "inputs": ["L[1]", "L[2]"],'
     ' "residual": "6/7*L[3]"}, "confirmed": true}\n'),
    (("postlie", "-N", "6", "--mu=-2=5/3"), 1,
     "axiom-6 fails at (L[2], L[1], L[3]): residual 5/3*M[4]\nreplay through the axiom checker: confirmed\n"),
    (("postlie", "-N", "06", "--json"), 0,
     '{"command": "postlie", "epsilon": "0", "window": 6, "seed": null, "verdict": "trivial",'
     ' "trivial": true, "witness": null, "confirmed": null}\n'),
    (("postlie", "-N", "5", "--seed", "7", "--json"), 0,
     '{"command": "postlie", "epsilon": "0", "window": 5, "seed": 7, "verdict": "trivial",'
     ' "trivial": true, "witness": null, "confirmed": null}\n'),
]


@pytest.mark.parametrize("argv, code, out", PINNED, ids=[" ".join(a[1:]) for a, _, _ in PINNED])
def test_flag_values_keep_their_output(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out, "")


def test_integer_flags_read_rationals_equal_to_integers(capsys):
    assert run(capsys, "postlie", "-N", "5", "--mu=6/2=1", "--json") == run(
        capsys, "postlie", "-N", "5", "--mu=3=1", "--json"
    )
    assert run(capsys, "jacobi", "-N", "4/2", "--json") == run(capsys, "jacobi", "-N", "2", "--json")
    assert run(capsys, "postlie", "-N", "5", "--seed", "14/2", "--json")[1] == PINNED[-1][2]


REFUSED = ["0.1", "1e3", "1_000", "+3", "٣", "١/٢", "1/-2"]

# (argv with {} for the value, the flag argparse names)
FLAGS = [
    (("postlie", "-N", "5", "--lambda={}"), "--lambda"),
    (("postlie", "-N", "5", "--mu={}=1"), "--mu"),
    (("postlie", "-N", "5", "--mu=1={}"), "--mu"),
    (("bracket", "L[0]", "L[1]", "--window={}"), "-N/--window"),
    (("bracket", "L[0]", "L[1]", "--seed={}"), "--seed"),
    (("bracket", "L[0]", "L[1]", "--epsilon={}"), "--epsilon"),
]


@pytest.mark.parametrize("value", REFUSED)
@pytest.mark.parametrize("argv, flag", FLAGS, ids=["lambda", "mu-shift", "mu-value", "window", "seed", "epsilon"])
def test_flag_outside_the_grammar_is_a_usage_error(capsys, argv, flag, value):
    code, out, err = run(capsys, *(a.format(value) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("usage: svalg ")
    assert f": error: argument {flag}: " in err


@pytest.mark.parametrize("argv", [("jacobi", "-N", "5/2"), ("jacobi", "-N", "2", "--seed", "1/2"),
                                  ("postlie", "-N", "5", "--mu=1/2=1")])
def test_integer_flag_refuses_a_proper_fraction(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "not an integer" in err


# --epsilon spellings the element grammar reads, with the value they name
EPSILON_SPELLINGS = [("2/4", "1/2"), ("3/6", "1/2"), ("00", "0"), ("-0", "0")]


@pytest.mark.parametrize("spelling, value", EPSILON_SPELLINGS, ids=[s for s, _ in EPSILON_SPELLINGS])
def test_epsilon_reads_any_spelling_of_its_value(capsys, spelling, value):
    y = "Y[1/2]" if value == "1/2" else "Y[1]"
    for argv in (("bracket", "L[3]", y), ("bracket", "L[3]", y, "--json"), ("jacobi", "-N", "2", "--json")):
        want = run(capsys, *argv, "--epsilon", value)
        assert want[0] == 0
        assert run(capsys, *argv, "--epsilon", spelling) == want
        assert run(capsys, *argv, f"--epsilon={spelling}") == want


@pytest.mark.parametrize("value", ["2", "1/3"])
def test_epsilon_off_both_parities_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "jacobi", "--epsilon", value)
    assert (code, out) == (2, "")
    assert err.startswith("usage: svalg jacobi ")
    assert err.endswith(f"svalg jacobi: error: argument --epsilon: epsilon must be 0 or 1/2, got {value}\n")


# (argv before the flag, flag, a value that starts with '-' and a digit)
NEGATIVE_WORDS = [
    (("postlie", "-N", "5"), "--lambda", "-3/7"),
    (("postlie", "-N", "5"), "--lam", "-3/7"),
    (("postlie", "-N", "5", "--json"), "--lambda", "-6/14"),
    (("postlie", "-N", "6"), "--mu", "-2=5/3"),
    (("postlie", "-N", "6", "--mu", "1=1"), "--mu", "-2=-5/3"),
    (("postlie", "-N", "5", "--json"), "--seed", "-14/2"),
    (("jacobi", "-N", "2", "--json"), "--epsilon", "-0/3"),
    (("jacobi", "--json"), "-N", "-4/2"),
    (("jacobi", "--json"), "--window", "-1"),
    (("jacobi",), "--epsilon", "-1/2"),
    (("postlie", "-N", "5"), "--lambda", "-1.5"),
]


@pytest.mark.parametrize("head, flag, value", NEGATIVE_WORDS, ids=[f"{f} {v}" for _, f, v in NEGATIVE_WORDS])
def test_negative_value_as_its_own_word_reads_as_the_equals_form(capsys, head, flag, value):
    assert run(capsys, *head, flag, value) == run(capsys, *head, f"{flag}={value}")


def test_negative_fraction_flags_run_as_their_own_word(capsys):
    assert run(capsys, "postlie", "-N", "5", "--lambda", "-3/7") == (1, PINNED[0][2], "")
    assert run(capsys, "postlie", "-N", "6", "--mu", "-2=5/3") == (1, PINNED[2][2], "")


def test_negative_epsilon_as_its_own_word_is_a_usage_error(capsys):
    code, out, err = run(capsys, "jacobi", "--epsilon", "-1/2")
    assert (code, out) == (2, "")
    assert err.endswith("svalg jacobi: error: argument --epsilon: epsilon must be 0 or 1/2, got -1/2\n")


def test_words_after_a_double_dash_are_left_alone(capsys):
    assert run(capsys, "bracket", "--", "-3*L[1]", "L[2]") == (0, "3*L[3]\n", "")
    code, out, _ = run(capsys, "bracket", "--json", "--", "-3*L[1]", "L[2]")
    assert code == 0 and '"result": "3*L[3]"' in out


# forms that were usage errors before negative words were joined to their flag
STILL_REFUSED = [
    ("bracket", "-3*L[1]", "L[2]"),
    ("bracket", "--json", "-3*L[1]", "L[2]"),
    ("bracket", "L[1]", "--json", "-3*L[2]"),
    ("bracket", "L[1]", "L[2]", "--json", "-3"),
    ("postlie", "-N", "5", "--lambda", "-1.5"),
    ("postlie", "-N", "5", "--lambda", "-3/7x"),
    ("postlie", "-N", "5", "--lambda=1", "-3/7"),
    ("postlie", "-N", "5", "--mu", "-2"),
    ("postlie", "-N", "-5"),
    ("jacobi", "-N", "2", "--seed", "-1/2"),
    ("jacobi", "--epsilon", "-1/2"),
    ("jacobi", "-N", "2", "--", "-3"),
]


@pytest.mark.parametrize("argv", STILL_REFUSED, ids=[" ".join(a) for a in STILL_REFUSED])
def test_invocations_refused_before_stay_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err


BIG = 10**5000 + 1
BIG_TEXT = "1" + "0" * 4999 + "1"


class TestLongRationals:
    """Labels and messages print rationals past the int-string limit."""

    def test_the_limit_is_in_force(self):
        with pytest.raises(ValueError):
            str(BIG)

    def test_form_label(self):
        form = BiderivationForm(BIG, {-1: Fraction(1, BIG)})
        assert str(form) == f"(lam={BIG_TEXT}, omega={{mu[-1]=1/{BIG_TEXT}}})"

    def test_realize_and_chi_labels(self):
        assert realize(BiderivationForm(BIG, {}), Window(3), CFG0).label == f"realize(lam={BIG_TEXT}, omega={{}})"
        assert chi_omega(OmegaSet({0: BIG}), Window(2), CFG0).label == f"chi({{mu[0]={BIG_TEXT}}})"

    def test_leibniz_check_index_message(self):
        g = gen("M", Fraction(1, BIG))
        with pytest.raises(ValueError) as info:
            LeibnizCheck(Window(1), CFG0, [{g: Fraction(1)}])
        assert str(info.value) == f"generator M[1/{BIG_TEXT}]: index 1/{BIG_TEXT} is not a half-integer"

    def test_validate_generator_and_config_messages(self):
        with pytest.raises(ValueError) as info:
            validate_generator(gen("L", Fraction(1, BIG)), CFG0)
        assert str(info.value) == f"index 1/{BIG_TEXT} invalid for family L at epsilon=0"
        with pytest.raises(ValueError) as info:
            AlgebraConfig(BIG)
        assert str(info.value) == f"epsilon must be 0 or 1/2, got {BIG_TEXT}"
