"""svalgebra benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload {solve,check,brute} --seed N --seconds S --trace {0,1}

Run from a checkout: the library is imported from its ``src`` directory.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the run context.  The full result, with every
span of a traced run, is written to ``.bench_out/`` in the checkout.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("solve", "check", "brute")

END_TO_END: List[Tuple[str, str]] = [
    ("pass_norm", "ratio"),
    ("op_p50_norm", "ratio"),
    ("op_p90_norm", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer() -> List[Tuple[str, str]]:
    per_parity = [
        ("operators.assembly_s", "s"),
        ("operators.predicted_s", "s"),
        ("operators.rows", "count"),
        ("operators.empty_rows", "count"),
        ("operators.duplicate_rows", "count"),
        ("operators.columns", "count"),
        ("biderivations.assembly_s", "s"),
        ("biderivations.predicted_s", "s"),
        ("biderivations.rows", "count"),
        ("biderivations.empty_rows", "count"),
        ("biderivations.duplicate_rows", "count"),
        ("biderivations.columns", "count"),
        ("linalg.kernel_der_s", "s"),
        ("linalg.kernel_bid_s", "s"),
        ("linalg.kernel_brute_s", "s"),
        ("linalg.modp_der_s", "s"),
        ("linalg.modp_bid_s", "s"),
        ("linalg.interior_der_s", "s"),
        ("linalg.interior_bid_s", "s"),
        ("linalg.rank_der", "count"),
        ("linalg.rank_bid", "count"),
        ("linalg.blocks_der", "count"),
        ("linalg.blocks_bid", "count"),
        ("linalg.largest_block_der", "count"),
        ("linalg.largest_block_bid", "count"),
        ("linalg.pivot_yield_der", "ratio"),
        ("linalg.pivot_yield_bid", "ratio"),
        ("parsing.tensor_s", "s"),
        ("parsing.tensor_bytes", "B"),
        ("biderivations.window_map_s", "s"),
        ("biderivations.defects_s", "s"),
        ("biderivations.checked", "count"),
        ("biderivations.checked_per_s", "1/s"),
        ("biderivations.violations", "count"),
        ("cli.main_s", "s"),
        ("postlie.sweep_s", "s"),
        ("postlie.axiom_defects_s", "s"),
        ("postlie.brute_s", "s"),
        ("postlie.linear_assembly_s", "s"),
        ("postlie.quadratic_instances", "count"),
        ("postlie.iterations", "count"),
        ("postlie.forced_columns", "count"),
        ("postlie.kernel_dimension", "count"),
    ]
    out = [(f"{name}.{p}", unit) for name, unit in per_parity for p in ("e0", "e12")]
    out += [
        ("propositions.solve_s", "s"),
        ("bench.calibration_s", "s"),
        ("bench.trace_overhead_s", "s"),
    ]
    return out


PER_LAYER = _per_layer()

SAMPLE_INTERVAL_S = 0.025  # one calibration slice per interval inside operations
TRACED_BOUNDARY_SLICES = 10  # calibration slices before each traced operation
SETUP_SAMPLES = 3  # this process plus two fresh ones
SETUP_CALIBRATION_SLICES = 50
# setup_s is reported in seconds on a machine whose calibration slice takes
# this long: each set-up is rescaled by the slices run right after it
CALIBRATION_REFERENCE_S = 0.001


def calibration_slice(terms: int = 200) -> float:
    """Seconds for a fixed stdlib-only Fraction/dict workload, shaped like
    the library's sparse row updates; it measures the machine, not the
    program."""
    t0 = time.perf_counter()
    acc: Dict[int, Fraction] = {}
    zero = Fraction(0)
    for i in range(1, terms):
        c = Fraction(i % 89 - 44, i % 7 + 2)
        k = (i * 31) % 257
        v = acc.get(k, zero) + c * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return time.perf_counter() - t0


def nearest_rank(values: List[float], q: float) -> float:
    """Smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    k = max(1, math.ceil(len(ordered) * q - 1e-9))
    return ordered[k - 1]


class Plan:
    """A workload ready to measure: its inputs are built and warmed up."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        import workloads as wl

        self.workload = workload
        self.rng = random.Random(seed)
        self.baseline: List[str] = []
        self._files = []
        if workload == "solve":
            self._ops = wl.solve_ops(self.baseline)
            wl.solve_warm_up()
        elif workload == "brute":
            self._ops = wl.brute_ops()
            wl.brute_warm_up()
        else:
            self._files = wl.write_check_files(seed, workdir)
            wl.check_warm_up(self._files)
        self._wl = wl

    def next_pass(self):
        if self.workload == "check":
            return self._wl.check_pass(self._files, self.rng)
        ops = list(self._ops)
        self.rng.shuffle(ops)
        return ops


class Sampler:
    """Calibration slices taken while an operation runs.

    A library call cannot be paused from outside, so an interval timer's
    signal runs one slice every SAMPLE_INTERVAL_S of wall time, between
    two bytecodes of whatever runs.  The handler's own time is kept in
    ``spent`` and taken off the operation's time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_slice())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_op(op, tracer, sampler: Sampler, problems: List[str]):
    """Run one operation, untraced and, with a tracer, traced as well.

    Returns (ok, untraced seconds, calibration slices taken during the
    untraced run, traced seconds); the untraced seconds are None if the
    operation raised.
    """
    try:
        n0, spent0 = len(sampler.samples), sampler.spent
        t0 = time.perf_counter()
        out = op.run()
        untraced = time.perf_counter() - t0 - (sampler.spent - spent0)
        during = sampler.samples[n0:]
        found = op.verify(out)
        traced = 0.0
        if tracer is not None:
            op_id = tracer.begin_op(op.name, op.parity)
            t0 = time.perf_counter()
            with tracer.span(f"op.{op.name}", op_id):
                traced_out = op.traced(tracer, op_id)
            traced = time.perf_counter() - t0
            if traced_out != out:
                found.append(f"{op.name}.{op.parity}: traced result differs from untraced")
            found += op.verify(traced_out)
    except Exception:  # one failed operation is counted and reported; the run goes on
        problems.append(f"{op.name}.{op.parity}: {traceback.format_exc()}")
        return False, None, [], 0.0
    problems.extend(f"{op.name}.{op.parity}: {p}" for p in found)
    return not found, untraced, during, traced


def measure(plan: Plan, seconds: float, tracer) -> Dict[str, object]:
    """Whole passes for about ``seconds``: a pass starts only while the
    median pass so far is expected to end within the budget; there is
    always at least one.

    Each operation is also expressed in calibration units: its time over
    the mean slice taken while it ran.  The machine's speed drifts on a
    scale of seconds, so only slices taken during the operation say how
    fast the machine was for it.  A traced run does not start the timer,
    because spans would time the handler too; it takes its slices just
    before each operation.
    """
    ops: List[Dict[str, object]] = []
    passes: List[Dict[str, float]] = []
    problems: List[str] = []
    calibration: List[float] = []
    attempted = failed = 0
    sampler = Sampler()
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(sampler)
        while True:
            seconds_sum = norm_sum = traced_sum = 0.0
            for op in plan.next_pass():
                gc.collect()  # start every operation from the same collector state
                before = [] if tracer is None else [
                    calibration_slice() for _ in range(TRACED_BOUNDARY_SLICES)
                ]
                ok, untraced, during, traced = _run_op(op, tracer, sampler, problems)
                slices = before + during or [calibration_slice()]
                calibration += slices
                attempted += 1
                failed += not ok
                if untraced is not None:
                    norm = untraced / statistics.fmean(slices)
                    ops.append({"op": f"{op.name}.{op.parity}", "s": untraced, "norm": norm,
                                "slices": len(slices)})
                    seconds_sum += untraced
                    norm_sum += norm
                    traced_sum += traced
            overhead = traced_sum - seconds_sum if tracer is not None else 0.0
            passes.append({"s": seconds_sum, "norm": norm_sum, "overhead": overhead})
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p["s"] for p in passes) > seconds:
                break
    return {
        "calibration": calibration,
        "ops": ops,
        "passes": passes,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "measured_s": time.perf_counter() - start,
    }


def setup_calibration() -> float:
    return statistics.median(calibration_slice() for _ in range(SETUP_CALIBRATION_SLICES))


def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """(set-up seconds, calibration slice seconds) of a fresh process, as
    that process measures them."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup"])


def run_context(args, load_at_start: float, calibration_median: float) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "load_avg_1m_at_start": load_at_start,
        "calibration_median_s": calibration_median,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s samples)")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()[0]
    if not (ROOT / "src" / "svalgebra" / "__init__.py").is_file():
        print(f"error: no svalgebra sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        plan = Plan(args.workload, args.seed, workdir)
        setup = (time.perf_counter() - _T0, setup_calibration())
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        setups = [setup]
        if not args.trace:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        tracer = Tracer() if args.trace else None
        m = measure(plan, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cal = statistics.median(m["calibration"])
    # solve and brute certify a claim set, so their operation is the pass
    samples = m["ops"] if args.workload == "check" else m["passes"]
    op_s = [o["s"] for o in samples]
    norms = [o["norm"] for o in samples]
    wall = {
        "pass_s": statistics.median(p["s"] for p in m["passes"]),
        "op_p50_s": statistics.median(op_s),
        "op_p90_s": nearest_rank(op_s, 0.9),
    }
    if args.trace:
        values = tracer.layer_values()
        values["bench.calibration_s"] = cal
        values["bench.trace_overhead_s"] = statistics.median(p["overhead"] for p in m["passes"])
        metrics = {n: {"value": values.get(n, 0), "unit": u} for n, u in PER_LAYER}
    else:
        values = {
            "pass_norm": statistics.median(p["norm"] for p in m["passes"]),
            "op_p50_norm": statistics.median(norms),
            "op_p90_norm": nearest_rank(norms, 0.9),
            "setup_s": statistics.median(s * CALIBRATION_REFERENCE_S / c for s, c in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    context = run_context(args, load_at_start, cal)
    context.update(
        operations=m["attempted"],
        passes=len(m["passes"]),
        calibration_slices=len(m["calibration"]),
        error_rate=m["failed"] / m["attempted"],
        measured_s=m["measured_s"],
        wall_s=wall,
        setups_s_and_calibration_s=setups,
        baseline_mismatches=plan.baseline,
    )
    for problem in m["problems"] + [f"Baseline mismatch: {b}" for b in plan.baseline]:
        print(problem, file=sys.stderr)
    full = {"context": context, "metrics": metrics, "problems": m["problems"],
            "ops": m["ops"], "passes": m["passes"]}
    if tracer is not None:
        full["trace"] = tracer.dump()
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, indent=1, default=str))

    print("context " + json.dumps(context))
    print(json.dumps({
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
