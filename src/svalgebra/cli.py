"""Command-line front end.

One subcommand per verification or solver entry point.  Every subcommand
accepts the shared flags --epsilon {0,1/2}, -N/--window, --json and --seed
after the subcommand name.  Numbers in flags are read with the rational
grammar of elements (``parsing.parse_rational``): an integer flag is a
rational equal to an integer, and --epsilon takes any spelling of 0 or 1/2
(``-0``, ``2/4``), which ``AlgebraConfig`` checks.  A negative value may be
its own word (``--lambda -3/7``): ``main`` joins it to its flag before
parsing.  ``build_parser`` is the subcommand table: each subcommand carries
its handler and, where it has one, the smallest window radius it can use,
which ``main`` checks before the handler runs.  In JSON mode each run
prints a single object whose keys come in a fixed order for a given
subcommand: command, epsilon, window, seed, verdict, then the subcommand's
own fields.  All rationals are serialized as strings, elements as
expressions the parser accepts back.

Exit status: 0 means verified or trivial, 1 means a defect, witness or
mismatch was found, 2 means the invocation itself was unusable (bad flags,
unreadable file, malformed expression, window below a subcommand's minimum).
A mathematical negative never exits 2 and a usage problem never exits 1.
Any other exception is an internal fault: ``main`` lets it propagate, and
the ``svalg`` console entry point ``console_main`` prints its traceback to
stderr and exits 3, so a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraConfig, DomainError, bracket, format_element, format_rational
from .biderivations import (
    BiderivationForm,
    BilinearMap,
    biderivation_defects,
    bilinear_map_on_window,
    classify_biderivations,
    match_form,
)
from .linalg import KernelComparison
from .operators import (
    DecompositionError,
    LinearOperator,
    classify_derivations,
    decompose_derivation,
    derivation_defect,
    operator_from_action,
)
from .parsing import (
    ParseError,
    parse_element,
    parse_operator_lines,
    parse_rational,
    parse_tensor_lines,
)
from .postlie import axiom_defect, triviality_witness
from .propositions import solve_all_propositions
from .windows import DefectReport, Window, lie_axiom_defects

SHOWN_VIOLATIONS = 5


class UsageError(ValueError):
    """Invocation problem: reported on stderr, exit status 2."""


Payload = Dict[str, object]
Outcome = Tuple[int, Payload, List[str]]


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _integer_arg(text: str) -> int:
    q = _rational_arg(text)
    if q.denominator != 1:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return q.numerator


def _mu_arg(text: str) -> Tuple[int, Fraction]:
    k, sep, v = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"--mu expects K=V, got {text!r}")
    return _integer_arg(k), _rational_arg(v)


def _epsilon_arg(text: str) -> AlgebraConfig:
    try:
        return AlgebraConfig(_rational_arg(text))
    except ValueError as exc:  # neither 0 nor 1/2
        raise argparse.ArgumentTypeError(str(exc))


def _window_arg(text: str) -> Window:
    try:
        return Window(_integer_arg(text))
    except ValueError as exc:  # radius below 1
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    """The subcommand table: each subcommand's parser carries its handler
    and, where it has one, the smallest window radius it can use."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--epsilon",
        type=_epsilon_arg,
        default=AlgebraConfig(),
        metavar="{0,1/2}",
        help="index parity of the middle family (default 0)",
    )
    common.add_argument(
        "-N",
        "--window",
        type=_window_arg,
        default=Window(6),
        help="window radius (default 6)",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--seed",
        type=_integer_arg,
        default=None,
        help="seed echoed into reports; reserved for randomized sweeps",
    )

    parser = argparse.ArgumentParser(
        prog="svalg",
        description="Exact window calculations in the two-parity extended Witt algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, min_window=1, file=False):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler, min_window=min_window)
        if file:
            p.add_argument("file")
        return p

    p = add("bracket", _cmd_bracket, "evaluate [X, Y]")
    p.add_argument("x", metavar="X")
    p.add_argument("y", metavar="Y")
    add("jacobi", _cmd_jacobi, "exhaustive Lie axiom check")
    add("check-derivation", _cmd_check_derivation, "Leibniz check of an operator file", file=True)
    add("solve-derivations", _cmd_solve_derivations, "kernel of the derivation system", min_window=3)
    add("decompose-derivation", _cmd_decompose_derivation, "split an operator file into the classified shape",
        min_window=2, file=True)
    add("check-biderivation", _cmd_check_biderivation, "identity check of a tensor file", file=True)
    add("solve-biderivations", _cmd_solve_biderivations, "kernel of the biderivation system", min_window=3)
    add("match-form", _cmd_match_form, "fit a tensor file to the classified shape", min_window=2, file=True)
    add("props", _cmd_props, "the four coefficient-recurrence systems", min_window=3)
    p = add("postlie", _cmd_postlie, "triviality witness for a parametric product", min_window=5)
    p.add_argument("--lambda", dest="lam", type=_rational_arg, default=Fraction(0),
                   help="bracket multiple (default 0)")
    p.add_argument("--mu", dest="mu", type=_mu_arg, action="append", default=[],
                   metavar="K=V", help="shift tail entry, repeatable")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _operator_file(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> LinearOperator:
    """The operator file of ``ns``, completed by zero on the window."""
    return operator_from_action(parse_operator_lines(_read(ns.file), cfg), w, cfg, label=ns.file)


def _tensor_file(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> BilinearMap:
    """The tensor file of ``ns``, completed by zero on the window."""
    return bilinear_map_on_window(parse_tensor_lines(_read(ns.file), cfg), w, cfg, label=ns.file)


def _cmd_bracket(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    x = parse_element(ns.x, cfg)
    y = parse_element(ns.y, cfg)
    result = format_element(bracket(x, y, cfg))
    return 0, {"verdict": "ok", "result": result}, [result]


def _defect_outcome(rep: DefectReport, ok: str, bad: str, head: str = "") -> Outcome:
    """Verdict ok when rep is empty, else bad, with the first violations;
    the text output leads with head + verdict, then the report summary."""
    verdict = ok if rep.empty else bad
    shown = rep.violations[:SHOWN_VIOLATIONS]
    payload: Payload = {
        "verdict": verdict,
        "checked": rep.checked,
        "defects": rep.total,
        "violations": [
            {"inputs": [str(g) for g in v.inputs], "rule": v.rule, "defect": format_element(v.defect)}
            for v in shown
        ],
    }
    lines = [head + verdict, rep.summary()] + ["  " + v.describe() for v in shown]
    return (0 if rep.empty else 1), payload, lines


def _cmd_jacobi(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    return _defect_outcome(lie_axiom_defects(w, cfg), "holds", "fails", head="lie axioms: ")


def _cmd_check_derivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    return _defect_outcome(derivation_defect(_operator_file(ns, cfg, w), w, cfg), "derivation", "defect-found")


def _classification_outcome(dc: KernelComparison, extra: Payload) -> Outcome:
    verdict = "classification-confirmed" if dc.confirmed else "classification-mismatch"
    payload: Payload = {"verdict": verdict}
    payload.update(extra)
    payload.update(
        {
            "kernel_dimension": dc.kernel_dimension,
            "interior_kernel_dimension": dc.interior_kernel_dimension,
            "interior_predicted_dimension": dc.interior_predicted_dimension,
            "predicted_in_kernel": dc.predicted_in_kernel,
            "interior_match": dc.interior_match,
            "mutual_membership": list(dc.mutual_membership),
        }
    )
    lines = [
        verdict,
        f"kernel dimension {dc.kernel_dimension}",
        f"interior: kernel {dc.interior_kernel_dimension},"
        f" classified {dc.interior_predicted_dimension}, match {dc.interior_match}",
    ]
    return (0 if dc.confirmed else 1), payload, lines


def _cmd_solve_derivations(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    return _classification_outcome(classify_derivations(w, cfg), {})


def _cmd_decompose_derivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    op = _operator_file(ns, cfg, w)
    try:
        dec = decompose_derivation(op, w, cfg)
    except DecompositionError as exc:
        payload: Payload = {"verdict": "not-decomposable", "reason": str(exc)}
        return 1, payload, [f"not decomposable: {exc}"]
    a, b, c = (format_rational(q) for q in (dec.a, dec.b, dec.c))
    payload = {"verdict": "decomposed", "inner_part": format_element(dec.inner_part), "a": a, "b": b, "c": c}
    lines = [
        "decomposed",
        f"inner part: {format_element(dec.inner_part)}",
        f"outer coefficients: a={a} b={b} c={c}",
    ]
    return 0, payload, lines


def _cmd_check_biderivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    return _defect_outcome(biderivation_defects(_tensor_file(ns, cfg, w), w, cfg), "biderivation", "defect-found")


def _cmd_solve_biderivations(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    bc = classify_biderivations(w, cfg)
    return _classification_outcome(bc, {"shifts": [str(k) for k in bc.shifts]})


def _cmd_match_form(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    form = match_form(_tensor_file(ns, cfg, w), w, cfg)
    if form is None:
        payload: Payload = {"verdict": "no-match", "lam": None, "omega": None}
        return 1, payload, ["no-match: tensor is not of the classified shape on the interior"]
    lam = format_rational(form.lam)
    omega = {str(k): format_rational(v) for k, v in form.omega.items()}
    payload = {"verdict": "matched", "lam": lam, "omega": omega}
    lines = [f"matched: lam={lam}, omega={{{', '.join(f'{k}: {v}' for k, v in omega.items())}}}"]
    return 0, payload, lines


def _cmd_props(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    systems: Payload = {}
    lines: List[str] = []
    ok = True
    for name, rep in solve_all_propositions(w):
        ok = ok and rep.confirmed
        systems[name] = {
            "kernel_dimension": rep.kernel_dimension,
            "interior_kernel_dimension": rep.interior_kernel_dimension,
            "interior_predicted_dimension": rep.interior_predicted_dimension,
            "free_directions": len(rep.free_directions),
            "interior_match": rep.interior_match,
            "predicted_in_kernel": rep.predicted_in_kernel,
            "mutual_membership": list(rep.mutual_membership),
        }
        lines.append(
            f"{name}: kernel {rep.kernel_dimension}, interior {rep.interior_kernel_dimension}"
            f" (classified {rep.interior_predicted_dimension}), match {rep.interior_match}"
        )
    verdict = "classification-confirmed" if ok else "classification-mismatch"
    payload: Payload = {"verdict": verdict, "systems": systems}
    return (0 if ok else 1), payload, [verdict] + lines


def _cmd_postlie(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    mu: Dict[int, Fraction] = {}
    for k, v in ns.mu:
        if k in mu:
            raise UsageError(f"--mu given twice for shift {k}")
        mu[k] = v
    form = BiderivationForm(ns.lam, mu)
    wit = triviality_witness(form, cfg)
    if wit is None:
        payload: Payload = {"verdict": "trivial", "trivial": True, "witness": None, "confirmed": None}
        return 0, payload, ["trivial: the zero product satisfies all three axioms"]
    replay = axiom_defect(form, wit.axiom, wit.inputs, w, cfg)
    confirmed = None if replay is None else replay == wit.residual
    payload = {
        "verdict": "witness-found",
        "trivial": False,
        "witness": {
            "axiom": wit.axiom,
            "inputs": [str(g) for g in wit.inputs],
            "residual": format_element(wit.residual),
        },
        "confirmed": confirmed,
    }
    lines = [wit.describe()]
    if confirmed is None:
        lines.append("replay: witness instance leaves the window; rerun with a larger -N to confirm")
    else:
        lines.append(f"replay through the axiom checker: {'confirmed' if confirmed else 'MISMATCH'}")
    return 1, payload, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # argparse takes a word such as -3/7 for a flag: join it, before any '--', as FLAG=WORD to a bare flag
    words: List[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        flag = words[-1] if words and "--" not in words and "=" not in words[-1] else ""
        if word[:1] == flag[:1] == "-" and word[1:2].isdecimal() and not flag[1:2].isdecimal():
            words[-1] += "=" + word
        else:
            words.append(word)
    try:
        ns = parser.parse_args(words)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; keep its code
        code = exc.code
        return code if isinstance(code, int) else 2
    cfg = ns.epsilon
    w = ns.window
    try:
        # before the handler runs, so before any file is read
        if w.radius < ns.min_window:
            raise UsageError(f"{ns.command} needs -N >= {ns.min_window}")
        status, payload, lines = ns.handler(ns, cfg, w)
    except (UsageError, ParseError, DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.json:
        envelope: Payload = {
            "command": ns.command,
            "epsilon": format_rational(cfg.epsilon),
            "window": w.radius,
            "seed": ns.seed,
        }
        envelope.update(payload)
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
    return status


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    """``main`` with internal faults reported as exit status 3."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(console_main())
