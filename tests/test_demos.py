"""Smoke test: every demo script runs and prints its headline result."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, key_line",
    [
        ("bracket_tour.py", "  radius-5 window: ok (6017 instances checked)\n"),
        ("product_triviality.py", "  window radius 5, epsilon 0: 60/60 sweep cases ok\n"),
        ("rediscover_derivations.py", "  mutual membership:           (True, True)\n"),
    ],
    ids=["bracket_tour", "product_triviality", "rediscover_derivations"],
)
def test_demo_runs(capsys, script, key_line):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert key_line in capsys.readouterr().out
