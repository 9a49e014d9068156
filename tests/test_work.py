"""Ring work pinned for fixed runs: an algorithmic regression fails here
without any timing.

Each run counts the polynomial products it makes and their term products
and compares both numbers exactly with ``tests/golden/work.json``.  Every
product of two polynomials goes through the kernel ``Polynomial.sum_products``
(``a * b`` is its one-triple case), so each (s, a, b) triple the kernel
receives counts as one product of len(a) x len(b) term products, a triple with
a zero operand included; the scalar branch of ``Polynomial.__mul__`` counts
as one product of len x 1.  The runs are every identity suite at dim 2
(seed 7, 20 trials), the connection suite at dim 3 (seed 0, 3 trials), the
two ``hamiltonian`` fixture commands and the three ``connection-thm`` ones,
whose counts show that each command forms F_cal, q and the non-metricity Q
once.

The same runs pin where the fiber branch of the kernel is taken: on the
dim-3 connection run, and never on the fixture commands of the benchmark's
``cli-mix`` workload, whose products are all below the size rule (the
oscillator integrates its slopes in floats and forms none).  On the dim-3
connection run no operand is encoded twice for the same stride and slot
width.

Re-record when a change of work is intended, from the repository root, and
show the diff of ``work.json`` with the change:

    PYTHONPATH=src python tests/test_work.py --record
"""

import collections
import json
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

import pytest

from genform import cli, ring
from genform.ring import Polynomial
from genform.suites import SUITE_NAMES, run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / "tests" / "golden" / "work.json"

# run name -> argv of a fixture command, or (suite, dim, trials, seed)
RUNS = {f"{name}_d2": (name, 2, 20, 7) for name in SUITE_NAMES}
RUNS["connection_d3"] = ("connection", 3, 3, 0)
RUNS.update({f"hamiltonian_{n}": ["hamiltonian", "--fixture", f"fixtures/hamiltonian_{n}.json"]
             for n in ("n2", "n4")})
RUNS.update({f"connection_thm_{name}": ["connection-thm", "--case", case,
                                        "--fixture", f"fixtures/connection_{name}.json"]
             for case, name in (("i", "case_i"), ("ii", "case_ii"),
                                ("ii", "case_ii_ordinary"))})


# The fixture commands of ``cli-mix``, with their exit codes; the oscillator
# at both l and two of its epsilons.
FIXTURE_COMMANDS = [
    (RUNS["hamiltonian_n2"], 0),
    (RUNS["hamiltonian_n4"], 0),
    *[(RUNS[f"connection_thm_{name}"], 0) for name in ("case_i", "case_ii", "case_ii_ordinary")],
    *[(["cover", "--fixture", "fixtures/two_chart.json", f"--epsilon={eps}"], 0)
      for eps in ("1", "-1", "2", "1/2", "-3/2")],
    (["cover", "--fixture", "fixtures/case_i_cover.json", "--epsilon", "0"], 0),
    (["cover", "--fixture", "fixtures/broken_triple.json", "--epsilon", "1"], 1),
    *[(["oscillator", f"--epsilon={eps}", "--v0=3/2", f"--l={l}", "--q0=1", "--p0=0",
        "--t-end", "3", "--dt", "0.01"], 0) for eps in ("1/2", "-1/3") for l in (1, 2)],
]


def _execute(run, code: int = 0) -> None:
    if isinstance(run, tuple):
        name, dim, trials, seed = run
        assert run_suite(name, dim, Fraction(1), trials, seed)["pass"]
        return
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.main(run + ["--out", os.path.join(tmp, "report.json")]) == code
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


def _fiber_dispatches(run, code: int, monkeypatch: pytest.MonkeyPatch) -> int:
    """How many kernel calls of one run, which must exit with code, take the
    fiber branch."""
    calls = 0
    fiber_sum = ring._fiber_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return fiber_sum(*args)

    monkeypatch.setattr(ring, "_fiber_sum", counted)
    _execute(run, code)
    return calls


def test_fiber_branch_runs_on_connection_d3(monkeypatch):
    assert _fiber_dispatches(RUNS["connection_d3"], 0, monkeypatch) > 0


def test_connection_d3_encodes_each_fiber_operand_once(monkeypatch):
    """No (polynomial, stride, width) is encoded twice: each polynomial keeps
    its fiber encodings.  The wrapper keeps every encoded operand alive, so no
    id is reused by a later polynomial."""
    encodings, operands = collections.Counter(), []
    encode = ring._encode

    def counted(p, stride, width):
        operands.append(p)
        encodings[id(p), stride, width] += 1
        return encode(p, stride, width)

    monkeypatch.setattr(ring, "_encode", counted)
    _execute(RUNS["connection_d3"])
    assert encodings and max(encodings.values()) == 1


@pytest.mark.parametrize("run, code", FIXTURE_COMMANDS,
                         ids=[" ".join(run) for run, _ in FIXTURE_COMMANDS])
def test_fiber_branch_never_runs_on_fixture_commands(run, code, monkeypatch):
    assert _fiber_dispatches(run, code, monkeypatch) == 0


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
