"""Ring work pinned for fixed runs: an algorithmic regression fails here
without any timing.

Each run counts the polynomial products it makes and their term products
and compares both numbers exactly with ``tests/golden/work.json``.  Every
product of two polynomials goes through the kernel ``Polynomial.sum_products``
(``a * b`` is its one-triple case), so each (s, a, b) triple the kernel
receives counts as one product of len(a) x len(b) term products, a triple with
a zero operand included; the scalar branch of ``Polynomial.__mul__`` counts
as one product of len x 1.  The runs are every identity suite at dim 2
(seed 7, 20 trials), the connection suite at dim 3 (seed 0, 3 trials) and the
two ``hamiltonian`` fixture commands.

Re-record when a change of work is intended, from the repository root, and
show the diff of ``work.json`` with the change:

    PYTHONPATH=src python tests/test_work.py --record
"""

import json
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

import pytest

from genform import cli
from genform.ring import Polynomial
from genform.suites import SUITE_NAMES, SUITES

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / "tests" / "golden" / "work.json"

# run name -> argv of a fixture command, or (suite, dim, trials, seed)
RUNS = {f"{name}_d2": (name, 2, 20, 7) for name in SUITE_NAMES}
RUNS["connection_d3"] = ("connection", 3, 3, 0)
RUNS.update({f"hamiltonian_{n}": ["hamiltonian", "--fixture", f"fixtures/hamiltonian_{n}.json"]
             for n in ("n2", "n4")})


def _execute(run) -> None:
    if isinstance(run, tuple):
        name, dim, trials, seed = run
        assert SUITES[name](dim, Fraction(1), trials, seed).passed
        return
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.main(run + ["--out", os.path.join(tmp, "report.json")]) == 0
    finally:
        os.chdir(cwd)


def measure(name: str, monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """{"mul_calls", "term_products"} of one run, counted by wrappers that
    ``monkeypatch`` puts on ``Polynomial.sum_products`` and on the scalar
    branch of ``Polynomial.__mul__``."""
    work = {"mul_calls": 0, "term_products": 0}
    mul, sum_products = Polynomial.__mul__, Polynomial.sum_products

    def counted_mul(self, other):
        out = mul(self, other)
        if isinstance(other, (int, Fraction)):
            work["mul_calls"] += 1
            work["term_products"] += len(self._nums)
        return out

    def counted_sum_products(terms):
        out = sum_products(terms)
        work["mul_calls"] += len(terms)
        work["term_products"] += sum(len(a._nums) * len(b._nums) for _, a, b in terms)
        return out

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "sum_products", staticmethod(counted_sum_products))
    _execute(RUNS[name])
    return work


@pytest.mark.parametrize("name", sorted(RUNS))
def test_ring_work(name, monkeypatch):
    assert measure(name, monkeypatch) == json.loads(WORK.read_text())[name]


def record() -> None:
    work = {}
    for name in sorted(RUNS):
        with pytest.MonkeyPatch.context() as mp:
            work[name] = measure(name, mp)
    WORK.write_text(json.dumps(work, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_work.py --record")
    record()
