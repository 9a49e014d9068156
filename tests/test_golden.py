"""Golden reports: fixed CLI runs must reproduce their recorded output.

Each case runs one ``genform`` command in-process from the repository root
and compares its JSON report with ``tests/golden/<case>.json`` byte for byte,
apart from the ``wall_time`` values, which are zeroed on both sides.  The
oscillator trajectories are compared by SHA-256 against
``tests/golden/csv.sha256``.  No report reads the term order of a polynomial:
the oscillator integrates its closed-form slopes in floats, and every other
report prints polynomials with their terms sorted.  The second test replays
every case with each polynomial's terms stored in reverse order.

Re-record only when a change of output is intended, from the repository root:

    PYTHONPATH=src python tests/test_golden.py --record

Without ``--record`` the script replays every case through the test below and
needs only the standard library, so it also runs on an interpreter without
pytest; it exits 1 if a case differs.
"""

import hashlib
import os
import pathlib
import re
import sys
import tempfile
import types

try:
    import pytest
except ModuleNotFoundError:  # parametrize is a no-op; the replay below calls the test
    pytest = types.SimpleNamespace(
        mark=types.SimpleNamespace(parametrize=lambda *args: lambda test: test))

from genform.cli import main
from genform.ring import Polynomial

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CSV_SUMS = GOLDEN / "csv.sha256"

_IDENTITIES = ["identities", "--seed", "7", "--suite", "all"]

# case name -> (argv without output paths, expected exit code)
CASES = {
    "identities_d2": (_IDENTITIES + ["--dim", "2", "--trials", "20"], 0),
    "identities_d3": (_IDENTITIES + ["--dim", "3", "--trials", "3"], 0),
    "hamiltonian_n2": (["hamiltonian", "--fixture", "fixtures/hamiltonian_n2.json"], 0),
    "hamiltonian_n4": (["hamiltonian", "--fixture", "fixtures/hamiltonian_n4.json"], 0),
    "connection_case_i": (["connection-thm", "--case", "i",
                           "--fixture", "fixtures/connection_case_i.json"], 0),
    "connection_case_ii": (["connection-thm", "--case", "ii",
                            "--fixture", "fixtures/connection_case_ii.json"], 0),
    "connection_case_ii_ordinary": (["connection-thm", "--case", "ii",
                                     "--fixture", "fixtures/connection_case_ii_ordinary.json"], 0),
    "cover_two_chart_eps0": (["cover", "--fixture", "fixtures/two_chart.json",
                              "--epsilon", "0"], 1),
    "cover_two_chart_eps1": (["cover", "--fixture", "fixtures/two_chart.json",
                              "--epsilon", "1"], 0),
    "cover_two_chart_eps2": (["cover", "--fixture", "fixtures/two_chart.json",
                              "--epsilon", "2"], 0),
    "cover_two_chart_eps_minus_half": (["cover", "--fixture", "fixtures/two_chart.json",
                                        "--epsilon=-1/2"], 0),
    "cover_case_i": (["cover", "--fixture", "fixtures/case_i_cover.json",
                      "--epsilon", "0"], 0),
    "cover_broken_triple": (["cover", "--fixture", "fixtures/broken_triple.json",
                             "--epsilon", "1"], 1),
    "oscillator_l1": (["oscillator", "--epsilon", "1/2", "--v0", "1",
                       "--t-end", "3", "--dt", "0.01"], 0),
    "oscillator_l2": (["oscillator", "--epsilon=-1/3", "--v0", "3/2", "--l", "2",
                       "--t-end", "3", "--dt", "0.01", "--q0", "1,0.5", "--p0", "0,1"], 0),
}

_WALL_TIME = re.compile(r'"wall_time": [^,\n}]+')


def _normalise(text: str) -> str:
    return _WALL_TIME.sub('"wall_time": 0', text)


def run_case(name: str, workdir: pathlib.Path) -> tuple[int, str | None, str | None]:
    """Run one case from the repository root; returns (exit code, normalised
    report text or None when no report was written, as on exit 2, SHA-256 of
    the CSV or None)."""
    argv, _ = CASES[name]
    report = workdir / f"{name}.json"
    csv = workdir / f"{name}.csv"
    if argv[0] == "oscillator":
        argv = argv + ["--out", str(csv), "--report", str(report)]
    else:
        argv = argv + ["--out", str(report)]
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        code = main(argv)
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return code, _normalise(report.read_text()) if report.exists() else None, digest


def _csv_sums() -> dict[str, str]:
    sums = {}
    for line in CSV_SUMS.read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    return sums


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    code, text, digest = run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert text == (GOLDEN / f"{name}.json").read_text()
    if digest is not None:
        assert digest == _csv_sums()[f"{name}.csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_ignores_term_order(name, tmp_path, monkeypatch):
    """The same report and CSV with every polynomial's numerators stored in
    reverse order: the premise of the docstring's "no report reads the term
    order", checked."""
    of, reversed_terms = Polynomial._of.__func__, []

    def reversed_of(cls, dim, den, nums):
        if len(nums) > 1:
            reversed_terms.append(len(nums))
        return of(cls, dim, den, dict(reversed(nums.items())))

    monkeypatch.setattr(Polynomial, "_of", classmethod(reversed_of))
    test_golden_report(name, tmp_path)
    # the oscillator integrates in floats and builds no polynomial of two terms
    assert reversed_terms or CASES[name][0][0] == "oscillator"


def record(workdir: pathlib.Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    sums = []
    for name in sorted(CASES):
        code, text, digest = run_case(name, workdir)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.json").write_text(text)
        if digest is not None:
            sums.append(f"{digest}  {name}.csv\n")
    CSV_SUMS.write_text("".join(sums))


def replay() -> int:
    """Run ``test_golden_report`` on every case; the number that fail."""
    if not __debug__:
        raise SystemExit("the replay checks with assert; run it without -O")
    failed = 0
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                test_golden_report(name, pathlib.Path(tmp))
            except AssertionError:
                failed += 1
                print(f"FAILED {name}")
    print(f"{len(CASES) - failed} passed, {failed} failed on Python {sys.version.split()[0]}")
    return failed


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--record"]):
        raise SystemExit("usage: python tests/test_golden.py [--record]")
    if sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            record(pathlib.Path(tmp))
    else:
        raise SystemExit(1 if replay() else 0)
