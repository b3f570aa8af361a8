"""Command-line front end.

One subcommand per verification or solver entry point.  Every subcommand
accepts the shared flags --epsilon {0,1/2}, -N/--window, --json and --seed
after the subcommand name.  In JSON mode each run prints a single object
whose keys come in a fixed order for a given subcommand: command, epsilon,
window, seed, verdict, then the subcommand's own fields.  All rationals are
serialized as strings, elements as expressions the parser accepts back.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraConfig, Element, bracket, format_element
from .biderivations import (
    BiderivationForm,
    biderivation_defects,
    bilinear_map_on_window,
    classify_biderivations,
    match_form,
)
from .linalg import KernelComparison
from .operators import (
    DecompositionError,
    classify_derivations,
    decompose_derivation,
    derivation_defect,
    operator_from_action,
)
from .parsing import (
    DomainError,
    ParseError,
    parse_element,
    parse_operator_lines,
    parse_tensor_lines,
)
from .postlie import axiom_defect, triviality_witness
from .propositions import solve_all_propositions
from .windows import DefectReport, Window, lie_axiom_defects

SHOWN_VIOLATIONS = 5


class UsageError(ValueError):
    """Invocation problem: reported on stderr, exit status 2."""


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _mu_arg(text: str) -> Tuple[int, Fraction]:
    k, sep, v = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"--mu expects K=V, got {text!r}")
    try:
        shift = int(k)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--mu shift must be an integer, got {k!r}")
    try:
        value = Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"--mu value not a rational: {v!r} ({exc})")
    return shift, value


def _window_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window radius must be an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("window radius must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--epsilon",
        choices=("0", "1/2"),
        default="0",
        help="index parity of the middle family (default 0)",
    )
    common.add_argument(
        "-N",
        "--window",
        type=_window_arg,
        default=6,
        help="window radius (default 6)",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed echoed into reports; reserved for randomized sweeps",
    )

    parser = argparse.ArgumentParser(
        prog="svalg",
        description="Exact window calculations in the two-parity extended Witt algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", parents=[common], help="evaluate [X, Y]")
    p.add_argument("x", metavar="X")
    p.add_argument("y", metavar="Y")

    sub.add_parser("jacobi", parents=[common], help="exhaustive Lie axiom check")

    p = sub.add_parser("check-derivation", parents=[common], help="Leibniz check of an operator file")
    p.add_argument("file")

    sub.add_parser("solve-derivations", parents=[common], help="kernel of the derivation system")

    p = sub.add_parser(
        "decompose-derivation", parents=[common], help="split an operator file into the classified shape"
    )
    p.add_argument("file")

    p = sub.add_parser("check-biderivation", parents=[common], help="identity check of a tensor file")
    p.add_argument("file")

    sub.add_parser("solve-biderivations", parents=[common], help="kernel of the biderivation system")

    p = sub.add_parser("match-form", parents=[common], help="fit a tensor file to the classified shape")
    p.add_argument("file")

    sub.add_parser("props", parents=[common], help="the four coefficient-recurrence systems")

    p = sub.add_parser("postlie", parents=[common], help="triviality witness for a parametric product")
    p.add_argument("--lambda", dest="lam", type=_fraction_arg, default=Fraction(0),
                   help="bracket multiple (default 0)")
    p.add_argument("--mu", dest="mu", type=_mu_arg, action="append", default=[],
                   metavar="K=V", help="shift tail entry, repeatable")
    return parser


def _violations_json(rep: DefectReport) -> List[Dict[str, object]]:
    out = []
    for v in rep.violations[:SHOWN_VIOLATIONS]:
        out.append(
            {
                "inputs": [str(g) for g in v.inputs],
                "rule": v.rule,
                "defect": format_element(v.defect),
            }
        )
    return out


def _report_lines(rep: DefectReport) -> List[str]:
    lines = [rep.summary()]
    for v in rep.violations[:SHOWN_VIOLATIONS]:
        lines.append("  " + v.describe())
    return lines


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


Payload = Dict[str, object]
Outcome = Tuple[int, Payload, List[str]]


def _cmd_bracket(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    x = parse_element(ns.x, cfg)
    y = parse_element(ns.y, cfg)
    result = format_element(bracket(x, y, cfg))
    return 0, {"verdict": "ok", "result": result}, [result]


def _cmd_jacobi(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    rep = lie_axiom_defects(w, cfg)
    verdict = "holds" if rep.empty else "fails"
    payload: Payload = {
        "verdict": verdict,
        "checked": rep.checked,
        "defects": rep.total,
        "violations": _violations_json(rep),
    }
    return (0 if rep.empty else 1), payload, [f"lie axioms: {verdict}"] + _report_lines(rep)


def _cmd_check_derivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    action = parse_operator_lines(_read(ns.file), cfg)
    op = operator_from_action(action, w, cfg, label=ns.file)
    rep = derivation_defect(op, w, cfg)
    verdict = "derivation" if rep.empty else "defect-found"
    payload: Payload = {
        "verdict": verdict,
        "checked": rep.checked,
        "defects": rep.total,
        "violations": _violations_json(rep),
    }
    return (0 if rep.empty else 1), payload, [verdict] + _report_lines(rep)


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
    if w.radius < 3:
        raise UsageError("solve-derivations needs -N >= 3")
    return _classification_outcome(classify_derivations(w, cfg), {})


def _cmd_decompose_derivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    action = parse_operator_lines(_read(ns.file), cfg)
    op = operator_from_action(action, w, cfg, label=ns.file)
    try:
        dec = decompose_derivation(op, w, cfg)
    except DecompositionError as exc:
        payload: Payload = {"verdict": "not-decomposable", "reason": str(exc)}
        return 1, payload, [f"not decomposable: {exc}"]
    payload = {
        "verdict": "decomposed",
        "inner_part": format_element(dec.inner_part),
        "a": str(dec.a),
        "b": str(dec.b),
        "c": str(dec.c),
    }
    lines = [
        "decomposed",
        f"inner part: {format_element(dec.inner_part)}",
        f"outer coefficients: a={dec.a} b={dec.b} c={dec.c}",
    ]
    return 0, payload, lines


def _cmd_check_biderivation(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    tensor = parse_tensor_lines(_read(ns.file), cfg)
    f = bilinear_map_on_window(tensor, w, cfg, label=ns.file)
    rep = biderivation_defects(f, w, cfg)
    verdict = "biderivation" if rep.empty else "defect-found"
    payload: Payload = {
        "verdict": verdict,
        "checked": rep.checked,
        "defects": rep.total,
        "violations": _violations_json(rep),
    }
    return (0 if rep.empty else 1), payload, [verdict] + _report_lines(rep)


def _cmd_solve_biderivations(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    if w.radius < 3:
        raise UsageError("solve-biderivations needs -N >= 3")
    bc = classify_biderivations(w, cfg)
    return _classification_outcome(bc, {"shifts": [str(k) for k in bc.shifts]})


def _cmd_match_form(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    tensor = parse_tensor_lines(_read(ns.file), cfg)
    f = bilinear_map_on_window(tensor, w, cfg, label=ns.file)
    form = match_form(f, w, cfg)
    if form is None:
        payload: Payload = {"verdict": "no-match", "lam": None, "omega": None}
        return 1, payload, ["no-match: tensor is not of the classified shape on the interior"]
    omega = {str(k): str(v) for k, v in form.omega.items()}
    payload = {"verdict": "matched", "lam": str(form.lam), "omega": omega}
    lines = [f"matched: lam={form.lam}, omega={{{', '.join(f'{k}: {v}' for k, v in omega.items())}}}"]
    return 0, payload, lines


def _cmd_props(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    if w.radius < 3:
        raise UsageError("props needs -N >= 3")
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
        }
        lines.append(
            f"{name}: kernel {rep.kernel_dimension}, interior {rep.interior_kernel_dimension}"
            f" (classified {rep.interior_predicted_dimension}), match {rep.interior_match}"
        )
    verdict = "classification-confirmed" if ok else "classification-mismatch"
    payload: Payload = {"verdict": verdict, "systems": systems}
    return (0 if ok else 1), payload, [verdict] + lines


def _cmd_postlie(ns: argparse.Namespace, cfg: AlgebraConfig, w: Window) -> Outcome:
    if w.radius < 5:
        raise UsageError("postlie needs -N >= 5")
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


_HANDLERS: Dict[str, Callable[[argparse.Namespace, AlgebraConfig, Window], Outcome]] = {
    "bracket": _cmd_bracket,
    "jacobi": _cmd_jacobi,
    "check-derivation": _cmd_check_derivation,
    "solve-derivations": _cmd_solve_derivations,
    "decompose-derivation": _cmd_decompose_derivation,
    "check-biderivation": _cmd_check_biderivation,
    "solve-biderivations": _cmd_solve_biderivations,
    "match-form": _cmd_match_form,
    "props": _cmd_props,
    "postlie": _cmd_postlie,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; keep its code
        code = exc.code
        return code if isinstance(code, int) else 2
    cfg = AlgebraConfig(Fraction(ns.epsilon))
    w = Window(ns.window)
    try:
        status, payload, lines = _HANDLERS[ns.command](ns, cfg, w)
    except (UsageError, ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.json:
        envelope: Payload = {
            "command": ns.command,
            "epsilon": str(cfg.epsilon),
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
