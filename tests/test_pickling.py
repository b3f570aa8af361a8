"""Generators and elements survive pickling into another interpreter.

String hashing is seeded per process, so a generator must not carry a
hash computed where it was pickled.  Each side runs in its own
interpreter with its own ``PYTHONHASHSEED``.
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


def _run(code, seed, data=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], input=data, env=env, capture_output=True, check=False)


def test_pickled_generators_rehash_in_another_process():
    dumped = _run(DUMP, 1)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = _run(LOAD, 2, dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.decode().strip() == "ok"
