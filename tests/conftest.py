"""Shared fixtures, the seeded expression corpus and the reference
brackets of a window's positions.

The expensive window classifications are session-scoped so the unit tests
and the acceptance tests reuse one computation.
"""

import contextlib
import random
import signal
from fractions import Fraction

import pytest

from svalgebra import (
    AlgebraConfig,
    Element,
    Window,
    bracket_basis,
    classify_biderivations,
    classify_derivations,
    gen,
)
from svalgebra.windows import OUTSIDE


def random_corpus_element(rng: random.Random, cfg: AlgebraConfig) -> Element:
    """One random window element for printer/parser round-trip corpora."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        fam = rng.choice("LYM")
        idx = Fraction(rng.randint(-6, 6))
        if fam == "Y":
            idx += cfg.epsilon
        coeff = Fraction(rng.choice([c for c in range(-9, 10) if c]), rng.randint(1, 9))
        g = gen(fam, idx)
        terms[g] = terms.get(g, Fraction(0)) + coeff
    return Element(terms)


def window_brackets(w: Window, cfg: AlgebraConfig) -> list:
    """[g_a, g_b] by ``bracket_basis`` for the window positions a, b, at
    a * n + b: None when it vanishes, else (target position, or OUTSIDE when
    the value leaves the window, coefficient)."""
    gens = w.generators(cfg)
    pos = {g: i for i, g in enumerate(gens)}
    out = []
    for ga in gens:
        for gb in gens:
            terms = bracket_basis(ga, gb, cfg).terms
            if not terms:
                out.append(None)
                continue
            ((g, c),) = terms.items()
            out.append((pos.get(g, OUTSIDE), c))
    return out


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run for ``seconds``, so
    a call that never returns fails its test instead of stalling the suite.
    Built on SIGALRM: main thread only."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def cfg0():
    return AlgebraConfig(Fraction(0))


@pytest.fixture(scope="session")
def cfg_half():
    return AlgebraConfig(Fraction(1, 2))


@pytest.fixture(scope="session")
def derivations_n4(cfg0):
    return classify_derivations(Window(4), cfg0)


@pytest.fixture(scope="session")
def biderivations_n3(cfg0):
    # the big one: ~5s of exact elimination
    return classify_biderivations(Window(3), cfg0)
