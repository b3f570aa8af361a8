"""Fast self-test of the benchmark harness on small windows.

    python3 -m pytest -q bench/test_harness.py
"""
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from svalgebra import AlgebraConfig, Window, classify_derivations  # noqa: E402
from svalgebra.linalg import _column_components  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run_traced(op):
    untraced = op.run()
    tr = Tracer()
    op_id = tr.begin_op(op.name, op.parity)
    with tr.span(f"op.{op.name}", op_id):
        traced = op.traced(tr, op_id)
    return untraced, traced, tr


def test_derivation_op_on_radius4_gives_101_traced_and_untraced():
    baseline = []
    op = wl.classification_op("der", "e0", 4, wl.DERIVATION_KERNEL[4]["e0"], baseline)
    untraced, traced, tr = _run_traced(op)
    assert untraced.dimension == 101
    assert op.verify(untraced) == []
    assert traced == untraced
    values = tr.layer_values()
    for name in ("operators.assembly_s", "linalg.kernel_der_s", "linalg.modp_der_s",
                 "linalg.interior_der_s", "operators.predicted_s"):
        assert values[f"{name}.e0"] > 0
    assert values["operators.columns.e0"] == 3 * 9 * 3 * 9
    assert values["linalg.rank_der.e0"] == values["operators.columns.e0"] - 101
    assert baseline == []  # no Baseline figures exist for N=4


def test_verification_catches_a_wrong_dimension():
    op = wl.classification_op("der", "e0", 4, 100, [])
    assert op.verify(op.run()) == ["kernel dimension 101 != 100"]


def test_column_blocks_agree_with_the_library_union_find():
    m = classify_derivations(Window(4), AlgebraConfig(Fraction(0))).matrix
    cols_by_root, _ = _column_components(m)
    sizes = [len(c) for c in cols_by_root.values()]
    assert wl.column_blocks(m) == (len(sizes), max(sizes))


def test_baseline_mismatch_is_reported_not_raised():
    shape = {"rows": 1, "empty_rows": 5719, "distinct_rows": 25039,
             "rank": 2350, "blocks": 307, "largest_block": 51}
    found = wl.baseline_mismatches("der", "e0", 8, shape)
    assert found == ["der.e0 N=8 rows: measured 1, Baseline 31737"]


def test_check_pass_verdicts_on_radius4(tmp_path):
    files = wl.write_check_files(7, str(tmp_path), window=4)
    assert sum(f.perturbed for f in files) == 2
    ops = [wl.check_op(f, window=4) for f in files]
    for op, f in zip(ops, files):
        untraced, traced, tr = _run_traced(op)
        assert op.verify(untraced) == [], f
        assert traced == untraced
        assert untraced.verdict == ("defect-found" if f.perturbed else "biderivation")
    # the same seed writes the same files
    (tmp_path / "again").mkdir()
    again = wl.write_check_files(7, str(tmp_path / "again"), window=4)
    for a, b in zip(files, again):
        assert Path(a.path).read_text() == Path(b.path).read_text()


def test_check_pass_alternates_parities():
    files = [wl.TensorFile(f"{p}-{j}", p, j == 3) for p in wl.PARITIES for j in range(4)]
    order = [op.parity for op in wl.check_pass(files, random.Random(1))]
    assert order == ["e0", "e12"] * 4


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    op = tr.begin_op("x", "e0")
    with tr.span("outer", op) as outer:
        with tr.span("inner", op) as inner:
            pass
    outer["start"], outer["end"] = 0.0, 10.0
    inner["start"], inner["end"] = 2.0, 5.0
    assert tr.self_times() == [7.0, 3.0]
    assert tr.layer_values() == {"outer_s.e0": 7.0, "inner_s.e0": 3.0}


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 0.9) == 90
    assert run.nearest_rank(values, 0.5) == 50
    assert run.nearest_rank([3.0, 1.0], 0.9) == 3.0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
