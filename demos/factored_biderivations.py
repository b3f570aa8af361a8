"""Solve the biderivation system through the window derivation kernel.

Identity (1) of a biderivation says that every slice f(., z) is a
derivation, so ``classify_biderivations`` writes f as sum c_{j,z} B_j (x) e_z
over a basis B_j of the window derivation kernel and eliminates only the
identity (2) rows, in far fewer unknowns than the n^3 tensor columns.
This script checks that the factored route and the tensor system give
identical kernels on small windows, prints each route's time, and pins
the radius-6 kernel (766 at epsilon 0), which the tests cannot afford.
It exits with status 1 if any check fails.

Run with:  python3 demos/factored_biderivations.py
"""

import sys
import time
from fractions import Fraction

from svalgebra import (
    AlgebraConfig,
    BiderivationClassification,
    Window,
    biderivation_constraint_matrix,
    classify_biderivations,
    representable_shifts,
)
from svalgebra.biderivations import predicted_biderivation_maps
from svalgebra.linalg import kernel_dimension_modp

FROZEN = {(6, Fraction(0)): 766}


def timed(solve):
    t0 = time.perf_counter()
    out = solve()
    return out, time.perf_counter() - t0


def tensor_route(w: Window, cfg: AlgebraConfig) -> BiderivationClassification:
    """The same comparison on the unfactored system over tensor columns."""
    m, coords = biderivation_constraint_matrix(w, cfg)
    predicted = [coords.encode(f) for f in predicted_biderivation_maps(w, cfg)]
    return BiderivationClassification.of(coords, m, predicted, shifts=representable_shifts(w))


def main() -> int:
    failures = []
    print("Factored route against the tensor system")
    for radius in (3, 4):
        for eps in (Fraction(0), Fraction(1, 2)):
            cfg, w = AlgebraConfig(eps), Window(radius)
            factored, t_factored = timed(lambda: classify_biderivations(w, cfg))
            tensor, t_tensor = timed(lambda: tensor_route(w, cfg))
            same = factored.kernel.vectors == tensor.kernel.vectors
            print(
                f"  N={radius} epsilon={eps}: kernel {factored.kernel_dimension},"
                f" columns {factored.matrix.col_count} of {tensor.matrix.col_count},"
                f" identical kernels: {same};"
                f" factored {t_factored:.2f} s, tensor {t_tensor:.2f} s"
            )
            if not same:
                failures.append(f"N={radius} epsilon={eps}: the routes' kernels differ")

    print()
    print("Frozen kernels through the factored route")
    for (radius, eps), expected in FROZEN.items():
        cfg, w = AlgebraConfig(eps), Window(radius)
        bc, seconds = timed(lambda: classify_biderivations(w, cfg))
        modp = kernel_dimension_modp(bc.matrix)
        found = (bc.kernel_dimension, modp, bc.predicted_in_kernel, bc.interior_match)
        print(
            f"  N={radius} epsilon={eps}: kernel {bc.kernel_dimension} (mod p {modp}, frozen {expected}),"
            f" classified span in kernel: {bc.predicted_in_kernel}, interior match: {bc.interior_match};"
            f" {seconds:.2f} s"
        )
        if found != (expected, expected, True, True):
            failures.append(f"N={radius} epsilon={eps}: expected kernel {expected} with a confirmed comparison")

    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
