"""The benchmark's workloads: the operations each one runs, untraced and
traced, and the checks every output must pass.

An operation is one call group a user of svalgebra would make.  Its
untraced form calls the library's top-level entry point; its traced form
makes the same computation by calling each layer's public functions in
turn, inside spans.  Both return an outcome value, and the two outcomes
of one operation must be equal.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple

from svalgebra import (
    AlgebraConfig,
    BiderivationForm,
    Element,
    SparseMatrix,
    Window,
    biderivation_constraint_matrix,
    biderivation_defects,
    bracket_basis,
    bilinear_map_on_window,
    classify_biderivations,
    classify_derivations,
    kernel_basis,
    parse_tensor_lines,
    postlie_axiom_defects,
    predicted_derivation_operators,
    realize,
    representable_shifts,
    solve_all_propositions,
    solve_postlie_window,
    span_basis,
    verify_triviality_theorem,
)
from svalgebra.biderivations import PairCoords, identity2_rows, predicted_biderivation_maps
from svalgebra.cli import main as cli_main
from svalgebra.linalg import kernel_dimension_dense_modp
from svalgebra.operators import derivation_constraint_matrix, project_columns
from svalgebra.parsing import format_tensor_lines

from tracing import Tracer, duration

PARITIES = ("e0", "e12")
EPSILON = {"e0": Fraction(0), "e12": Fraction(1, 2)}
EPSILON_ARG = {"e0": "0", "e12": "1/2"}

# Frozen answers every output is checked against.
DERIVATION_KERNEL = {8: {"e0": 251, "e12": 254}, 4: {"e0": 101, "e12": 100}}
BIDERIVATION_KERNEL = {3: {"e0": 192, "e12": 158}}
PROPOSITIONS_W4 = {  # name -> (kernel, interior kernel, free directions)
    "prop1": (5, 1, 0),
    "prop2": (4, 0, 0),
    "prop3": (35, 15, 18),
    "prop4": (9, 5, 9),
}
SWEEP_CASES = 72

# System shapes recorded when the Baseline was measured; the traced run
# compares its counts against them.
BASELINE = {
    ("der", "e0", 8): {
        "rows": 31737, "empty_rows": 5719, "distinct_rows": 25039,
        "rank": 2350, "blocks": 307, "largest_block": 51,
    },
    ("bid", "e0", 3): {
        "rows": 91476, "empty_rows": 18102, "blocks": 343, "largest_block": 259,
    },
}


@dataclass
class Op:
    """One operation.  ``run`` and ``traced`` return equal outcomes;
    ``verify`` lists what is wrong with an outcome."""

    name: str
    parity: str
    run: Callable[[], Any]
    traced: Callable[[Tracer, int], Any]
    verify: Callable[[Any], List[str]]


# -- shared pieces -----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    kernel: Tuple[Dict[int, Fraction], ...]
    modp_dimension: int
    predicted_in_kernel: bool
    interior_match: bool

    @property
    def dimension(self) -> int:
        return len(self.kernel)


def _verify_classification(expected: int) -> Callable[[Classification], List[str]]:
    def verify(out: Classification) -> List[str]:
        problems = []
        if out.dimension != expected:
            problems.append(f"kernel dimension {out.dimension} != {expected}")
        if out.modp_dimension != out.dimension:
            problems.append(f"mod-p dimension {out.modp_dimension} != {out.dimension}")
        if not out.predicted_in_kernel:
            problems.append("classified span not inside the kernel")
        if not out.interior_match:
            problems.append("interior comparison failed")
        return problems

    return verify


def interior_comparison(kernel, predicted, coords) -> Tuple[bool, bool]:
    """(predicted in kernel, interior match), computed as the library's
    classify functions compute them."""
    inside = all(kernel.contains(v) for v in predicted)
    cols = coords.interior_columns()
    ik = span_basis((project_columns(v, cols) for v in kernel.vectors), coords.col_count)
    ip = span_basis((project_columns(v, cols) for v in predicted), coords.col_count)
    return inside, ik.vectors == ip.vectors


def column_blocks(m: SparseMatrix) -> Tuple[int, int]:
    """(number of column-connected blocks, columns in the largest).

    Two columns share a block when some row touches both; a column no row
    touches is a block of its own.
    """
    parent = list(range(m.col_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in m.rows:
        cols = iter(row)
        first = next(cols, None)
        if first is None:
            continue
        root = find(first)
        for c in cols:
            other = find(c)
            if other != root:
                parent[other] = root
    sizes: Dict[int, int] = {}
    for c in range(m.col_count):
        r = find(c)
        sizes[r] = sizes.get(r, 0) + 1
    return len(sizes), max(sizes.values(), default=0)


def system_shape(m: SparseMatrix, kernel_dimension: int) -> Dict[str, int]:
    rows = m.rows
    blocks, largest = column_blocks(m)
    return {
        "rows": len(rows),
        "empty_rows": sum(1 for r in rows if not r),
        # the empty row, when present, counts as one distinct row
        "distinct_rows": len({frozenset(r.items()) for r in rows}),
        "columns": m.col_count,
        "rank": m.col_count - kernel_dimension,
        "blocks": blocks,
        "largest_block": largest,
    }


def baseline_mismatches(name: str, parity: str, window: int, shape: Dict[str, int]) -> List[str]:
    expected = BASELINE.get((name, parity, window), {})
    return [
        f"{name}.{parity} N={window} {key}: measured {shape[key]}, Baseline {value}"
        for key, value in expected.items()
        if shape[key] != value
    ]


def _record_shape(tr: Tracer, op: int, layer: str, kind: str, shape: Dict[str, int]) -> None:
    tr.count(f"{layer}.rows", shape["rows"], op)
    tr.count(f"{layer}.empty_rows", shape["empty_rows"], op)
    tr.count(f"{layer}.duplicate_rows", shape["rows"] - shape["distinct_rows"], op)
    tr.count(f"{layer}.columns", shape["columns"], op)
    tr.count(f"linalg.rank_{kind}", shape["rank"], op)
    tr.count(f"linalg.blocks_{kind}", shape["blocks"], op)
    tr.count(f"linalg.largest_block_{kind}", shape["largest_block"], op)
    nonempty = shape["rows"] - shape["empty_rows"]
    tr.count(f"linalg.pivot_yield_{kind}", shape["rank"] / nonempty if nonempty else 0.0, op)


# -- solve -------------------------------------------------------------------


# kind -> (layer, classify, constraint matrix, spanning set of the classified family)
CLASSIFICATIONS = {
    "der": ("operators", classify_derivations, derivation_constraint_matrix,
            predicted_derivation_operators),
    "bid": ("biderivations", classify_biderivations, biderivation_constraint_matrix,
            predicted_biderivation_maps),
}


def classification_op(kind: str, parity: str, window: int, expected: int,
                      baseline: List[str]) -> Op:
    """Classify derivations ("der") or biderivations ("bid") on
    Window(window), then run the mod-p oracle on the matrix.  Baseline
    mismatches found by the traced form are appended to ``baseline``."""
    layer, classify, constraint_matrix, predicted_family = CLASSIFICATIONS[kind]
    cfg, w = AlgebraConfig(EPSILON[parity]), Window(window)

    def run() -> Classification:
        c = classify(w, cfg)
        modp = kernel_dimension_dense_modp(c.matrix)
        return Classification(c.kernel.vectors, modp, c.predicted_in_kernel, c.interior_match)

    def traced(tr: Tracer, op: int) -> Classification:
        with tr.span(f"{layer}.assembly", op):
            m, coords = constraint_matrix(w, cfg)
        with tr.span(f"linalg.kernel_{kind}", op):
            kernel = kernel_basis(m)
        with tr.span(f"{layer}.predicted", op):
            predicted = [coords.encode(x) for x in predicted_family(w, cfg)]
        with tr.span(f"linalg.interior_{kind}", op):
            inside, match = interior_comparison(kernel, predicted, coords)
        with tr.span(f"linalg.modp_{kind}", op):
            modp = kernel_dimension_dense_modp(m)
        with tr.span("bench.shape", op):
            shape = system_shape(m, kernel.dimension)
        _record_shape(tr, op, layer, kind, shape)
        baseline.extend(baseline_mismatches(kind, parity, window, shape))
        return Classification(kernel.vectors, modp, inside, match)

    return Op(kind, parity, run, traced, _verify_classification(expected))


def propositions_op(window: int = 4) -> Op:
    w = Window(window)

    def outcome(reports) -> Dict[str, Tuple[int, int, int, bool, bool]]:
        return {
            name: (
                rep.kernel_dimension,
                rep.interior_kernel_dimension,
                len(rep.free_directions),
                rep.predicted_in_kernel,
                rep.interior_match,
            )
            for name, rep in reports
        }

    def run():
        return outcome(solve_all_propositions(w))

    def traced(tr: Tracer, op: int):
        with tr.span("propositions.solve", op):
            reports = solve_all_propositions(w)
        return outcome(reports)

    def verify(out) -> List[str]:
        expected = {n: t + (True, True) for n, t in PROPOSITIONS_W4.items()}
        if out != expected:
            return [f"propositions {out} != {expected}"]
        return []

    return Op("props", "", run, traced, verify)


def solve_ops(baseline: List[str]) -> List[Op]:
    """One pass of ``solve``: both parities, then the propositions."""
    ops = []
    for parity in PARITIES:
        ops.append(classification_op("der", parity, 8, DERIVATION_KERNEL[8][parity], baseline))
        ops.append(classification_op("bid", parity, 3, BIDERIVATION_KERNEL[3][parity], baseline))
    ops.append(propositions_op(4))
    return ops


def fill_bracket_cache(window: int) -> None:
    """Evaluate every bracket of two window generators once, so the
    library's bracket cache is full before timing starts."""
    for parity in PARITIES:
        cfg = AlgebraConfig(EPSILON[parity])
        gens = Window(window).generators(cfg)
        for a in gens:
            for b in gens:
                bracket_basis(a, b, cfg)


def solve_warm_up() -> None:
    fill_bracket_cache(8)
    for parity in PARITIES:
        dc = classify_derivations(Window(3), AlgebraConfig(EPSILON[parity]))
        kernel_dimension_dense_modp(dc.matrix)


# -- brute -------------------------------------------------------------------


@dataclass(frozen=True)
class Triviality:
    cases: Tuple[Tuple[str, bool], ...]
    trivial_defects: int
    brute: Any  # PostLieBruteReport


def brute_linear_system(w: Window, cfg: AlgebraConfig) -> SparseMatrix:
    """The brute solve's linear rows, rebuilt: two-term symmetry rows,
    then the faithful identity-2 rows."""
    coords = PairCoords(w, cfg)
    n = coords.n
    m = SparseMatrix(coords.col_count)
    one = Fraction(1)
    for a in range(n):
        for b in range(a + 1, n):
            base_ab, base_ba = (a * n + b) * n, (b * n + a) * n
            for k in range(n):
                m.add_row({base_ab + k: one, base_ba + k: -one})
    for row in identity2_rows(coords, cfg):
        m.add_row(row)
    return m


def brute_op(parity: str, sweep_window: int = 6, brute_window: int = 4) -> Op:
    """verify_triviality_theorem on the sweep window with the brute
    enclosure on the smaller one."""
    cfg = AlgebraConfig(EPSILON[parity])
    sweep_w, brute_w = Window(sweep_window), Window(brute_window)

    def outcome(report, brute) -> Triviality:
        cases = tuple((str(c.form), c.ok) for c in report.cases)
        return Triviality(cases, report.trivial_defects.total, brute)

    def run() -> Triviality:
        report = verify_triviality_theorem(sweep_w, cfg, brute=brute_w)
        return outcome(report, report.brute)

    def traced(tr: Tracer, op: int) -> Triviality:
        with tr.span("postlie.sweep", op):
            report = verify_triviality_theorem(sweep_w, cfg)
        with tr.span("postlie.axiom_defects", op):
            postlie_axiom_defects(BiderivationForm(0, {}), sweep_w, cfg)
        with tr.span("postlie.brute", op):
            brute = solve_postlie_window(brute_w, cfg)
        with tr.span("postlie.linear_assembly", op):
            m = brute_linear_system(brute_w, cfg)
        with tr.span("linalg.kernel_brute", op):
            kernel = kernel_basis(m)
        if (m.row_count, kernel.dimension) != (brute.linear_rows, brute.kernel_dimension):
            raise RuntimeError(
                f"rebuilt brute system has {m.row_count} rows and kernel {kernel.dimension},"
                f" the solve reports {brute.linear_rows} and {brute.kernel_dimension}"
            )
        tr.count("postlie.quadratic_instances", brute.quadratic_instances, op)
        tr.count("postlie.iterations", brute.iterations, op)
        tr.count("postlie.forced_columns", brute.forced_columns, op)
        tr.count("postlie.kernel_dimension", brute.kernel_dimension, op)
        return outcome(report, brute)

    def verify(out: Triviality) -> List[str]:
        problems = []
        if len(out.cases) != SWEEP_CASES:
            problems.append(f"{len(out.cases)} sweep cases, expected {SWEEP_CASES}")
        bad = [form for form, ok in out.cases if not ok]
        if bad:
            problems.append(f"sweep cases failed: {bad}")
        if out.trivial_defects:
            problems.append(f"trivial product has {out.trivial_defects} axiom defects")
        if not out.brute.conclusive or out.brute.final_dimension != 0:
            problems.append(f"brute solve not conclusive: {out.brute.verdict()}")
        return problems

    return Op("brute", parity, run, traced, verify)


def brute_ops() -> List[Op]:
    return [brute_op(parity) for parity in PARITIES]


def brute_warm_up() -> None:
    fill_bracket_cache(6)
    for parity in PARITIES:
        postlie_axiom_defects(BiderivationForm(0, {}), Window(3), AlgebraConfig(EPSILON[parity]))


# -- check -------------------------------------------------------------------

CHECK_WINDOW = 5
FILES_PER_PARITY = 4  # the last one of each parity is perturbed


@dataclass(frozen=True)
class TensorFile:
    path: str
    parity: str
    perturbed: bool


@dataclass(frozen=True)
class Verdict:
    exit_code: int
    verdict: str
    checked: int
    defects: int


def write_check_files(seed: int, directory: str, window: int = CHECK_WINDOW) -> List[TensorFile]:
    """Tensor files of seeded classified forms (lam, omega); the last file
    of each parity has one seeded entry perturbed."""
    rng = random.Random(seed)
    w = Window(window)
    files = []
    for parity in PARITIES:
        cfg = AlgebraConfig(EPSILON[parity])
        interior = w.interior_generators(cfg)
        for j in range(FILES_PER_PARITY):
            lam = Fraction(rng.choice([c for c in range(-9, 10) if c]), rng.randint(1, 9))
            shifts = representable_shifts(w)
            mu = {
                k: Fraction(rng.randint(-5, 5) or 1)
                for k in rng.sample(shifts, min(rng.randint(0, 3), len(shifts)))
            }
            tensor = realize(BiderivationForm(lam, mu), w, cfg).tensor
            perturbed = j == FILES_PER_PARITY - 1
            if perturbed:
                pair = (rng.choice(interior), rng.choice(interior))
                bump = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
                tensor[pair] = tensor[pair] + Element({rng.choice(interior): bump})
            path = os.path.join(directory, f"{parity}-{j}.tensor")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_tensor_lines({k: v for k, v in tensor.items() if not v.is_zero}))
            files.append(TensorFile(path, parity, perturbed))
    return files


def check_op(tf: TensorFile, window: int = CHECK_WINDOW) -> Op:
    """``svalg check-biderivation -N <window> --json`` on one file, run in
    process through svalgebra.cli.main."""
    cfg, w = AlgebraConfig(EPSILON[tf.parity]), Window(window)
    argv = ["check-biderivation", "-N", str(window), "--epsilon", EPSILON_ARG[tf.parity], "--json", tf.path]

    def run() -> Verdict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        payload = json.loads(out.getvalue())
        return Verdict(code, payload["verdict"], payload["checked"], payload["defects"])

    def traced(tr: Tracer, op: int) -> Verdict:
        with tr.span("cli.main", op):
            via_cli = run()
        with open(tf.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        tr.count("parsing.tensor_bytes", len(text.encode("utf-8")), op)
        with tr.span("parsing.tensor", op):
            tensor = parse_tensor_lines(text, cfg)
        with tr.span("biderivations.window_map", op):
            f = bilinear_map_on_window(tensor, w, cfg, label=tf.path)
        with tr.span("biderivations.defects", op) as defects_span:
            rep = biderivation_defects(f, w, cfg)
        composed = Verdict(
            0 if rep.empty else 1,
            "biderivation" if rep.empty else "defect-found",
            rep.checked,
            rep.total,
        )
        if composed != via_cli:
            raise RuntimeError(f"layer composition gives {composed}, cli.main gives {via_cli}")
        tr.count("biderivations.checked", rep.checked, op)
        tr.count("biderivations.checked_per_s", rep.checked / duration(defects_span), op)
        if tf.perturbed:
            tr.count("biderivations.violations", rep.total, op)
        return composed

    def verify(out: Verdict) -> List[str]:
        expected = (1, "defect-found") if tf.perturbed else (0, "biderivation")
        if (out.exit_code, out.verdict) != expected:
            return [f"{tf.path}: exit {out.exit_code} verdict {out.verdict}, expected {expected}"]
        return []

    return Op("check", tf.parity, run, traced, verify)


def check_warm_up(files: Sequence[TensorFile]) -> None:
    for parity in PARITIES:
        check_op(next(f for f in files if f.parity == parity)).run()


def check_pass(files: Sequence[TensorFile], rng: random.Random) -> List[Op]:
    """Every file once, in seeded order, alternating parities."""
    by_parity = [[f for f in files if f.parity == p] for p in PARITIES]
    for group in by_parity:
        rng.shuffle(group)
    return [check_op(f) for pair in zip(*by_parity) for f in pair]
