"""Generators and elements survive pickling into another interpreter.

String hashing is seeded per process, so a generator must not carry a
hash computed where it was pickled, and its doubled index ``twice`` is
recomputed with it.  Each side runs in its own interpreter with its own
``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

DUMP = """
import pickle, sys
from svalgebra import AlgebraConfig
from svalgebra.parsing import parse_element
x = parse_element("2*L[1] - 1/3*Y[0] + M[4]", AlgebraConfig(0))
sys.stdout.buffer.write(pickle.dumps((x, list(x.terms))))
"""

LOAD = """
import pickle, sys
from svalgebra import AlgebraConfig, gen
from svalgebra.parsing import parse_element
x, gens = pickle.loads(sys.stdin.buffer.read())
assert x == parse_element("2*L[1] - 1/3*Y[0] + M[4]", AlgebraConfig(0)), x
assert {g: 1 for g in gens}.get(gen("L", 1)) == 1
assert hash(gens[0]) == hash(gen("L", 1)) and gens[0] is gen("L", 1)
print("ok")
"""


DUMP_TWICE = """
import pickle, sys
from fractions import Fraction
from svalgebra import GeneratorId, gen
gens = [gen("L", -3), gen("Y", Fraction(5, 2)), gen("M", 4), GeneratorId("L", Fraction(1, 3))]
sys.stdout.buffer.write(pickle.dumps(gens))
"""

LOAD_TWICE = """
import pickle, sys
from fractions import Fraction
gens = pickle.loads(sys.stdin.buffer.read())
twice = [g.twice for g in gens]
assert twice == [-6, 5, 8, Fraction(2, 3)], twice
assert [type(d) for d in twice] == [int, int, int, Fraction], twice
print("ok")
"""


def _run(code, seed, data=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=False)


def test_pickled_generators_rehash_in_another_process():
    dumped = _run(DUMP, 1)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = _run(LOAD, 2, dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.decode().strip() == "ok"


def test_pickled_generators_keep_their_doubled_index_in_another_process():
    dumped = _run(DUMP_TWICE, 1)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = _run(LOAD_TWICE, 2, dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.decode().strip() == "ok"
