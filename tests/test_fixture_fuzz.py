"""Fixture-mutation fuzz test of the CLI's exit-code contract.

For every key path in every shipped fixture, the key is deleted, or its value
is swapped for each of ``null``, ``1.5``, ``"x"``, ``[]`` and ``{}``.  Every
such run must return an exit code instead of raising, and malformed input
must exit 2 (usage or fixture error), never 0 (pass) or 1 (residual failure).

Some mutations leave a well-formed fixture and must exit as that fixture
means: a swap that does not change the value (``[]`` for an empty
``triples``) exits as the unmutated fixture does, and so does leaving out a
key the schema marks optional, unless ``ABSENT_EXIT`` says otherwise.  An
empty ``overlaps`` or ``triples`` means the same as a missing one.  Deleting
a ``components`` entry or an array element, or emptying ``components``, is
not tried: each leaves a valid, different input.

A second pass keeps every leaf's JSON type: each integer leaf is swapped for
0, 1, 3 and -1, and each string leaf for a few rationals and polynomials.
The fixture then still parses, so a rejection must come from a stated
hypothesis of the construction (a symmetric metric with an exact inverse, a
torsion-free connection, a closed symplectic form, known charts): exit 2
with one ``error:`` line.  Only ``cover`` may exit 1 on such input, because
whether a cover glues is the question it answers.
"""

import json
import pathlib

import pytest

from genform import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# fixture -> (command and options, top-level keys the schema marks optional)
CASES = {
    "hamiltonian_n2.json": (["hamiltonian"], {"upsilon"}),
    "hamiltonian_n4.json": (["hamiltonian"], {"upsilon"}),
    "connection_case_i.json": (["connection-thm", "--case", "i"],
                               {"case", "epsilon", "alpha", "chi"}),
    "connection_case_ii.json": (["connection-thm", "--case", "ii"],
                                {"case", "epsilon", "alpha"}),
    "connection_case_ii_ordinary.json": (["connection-thm", "--case", "ii"],
                                         {"case", "epsilon", "alpha"}),
    "two_chart.json": (["cover", "--epsilon", "2"], {"overlaps", "triples"}),
    "case_i_cover.json": (["cover", "--epsilon", "0"], {"overlaps", "triples"}),
    "broken_triple.json": (["cover", "--epsilon", "1"], {"overlaps", "triples"}),
}
EMPTY_MEANS_ABSENT = {"overlaps", "triples"}

# Where leaving an optional key out changes the exit code, and why.
ABSENT_EXIT = {
    # without upsilon the symplectic form is not closed
    ("hamiltonian_n4.json", "upsilon"): 2,
    # epsilon defaults to 0, and case ii needs a nonzero epsilon
    ("connection_case_ii.json", "epsilon"): 2,
    ("connection_case_ii_ordinary.json", "epsilon"): 2,
    # the triples then name overlaps the cover does not list
    ("case_i_cover.json", "overlaps"): 2,
    ("broken_triple.json", "overlaps"): 2,
}

SWAPS = (None, 1.5, "x", [], {})
INT_SWAPS = (0, 1, 3, -1)
STRING_SWAPS = ("0", "1", "-1", "1*x1", "2", "1*x1^2 + 1")
WELL_TYPED_EXITS = {"hamiltonian": {0, 2}, "connection-thm": {0, 2}, "cover": {0, 1, 2}}


def _paths(node, path=()):
    """Every key path below node: object keys and array indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _at(node, steps):
    """The node that the key path ``steps`` leads to."""
    for step in steps:
        node = node[step]
    return node


def _mutants(data):
    """(path, mutation, mutated fixture) for every deletion and swap tried."""
    for path in _paths(data):
        *head, key = path
        parent = _at(data, head)
        in_components = bool(head) and head[-1] == "components"
        changes = [(value, value) for value in SWAPS
                   if not (key == "components" and value == {})]
        if isinstance(parent, dict) and not in_components:
            changes.append(("deleted", None))
        for label, value in changes:
            mutant = json.loads(json.dumps(data))
            target = _at(mutant, head)
            if label == "deleted":
                del target[key]
            else:
                target[key] = value
            yield path, label, mutant


def _expected_exit(fixture, path, label, old_value, baseline):
    optional = CASES[fixture][1]
    if label != "deleted" and old_value == label and type(old_value) is type(label):
        return baseline
    key = path[0]
    absent = label == "deleted" or key in EMPTY_MEANS_ABSENT and label == []
    if len(path) == 1 and key in optional and absent:
        return ABSENT_EXIT.get((fixture, key), baseline)
    return 2


def _run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_mutated_fixture_exits_as_documented(fixture, tmp_path, capsys):
    data = json.loads((FIXTURES / fixture).read_text())
    path = tmp_path / fixture
    argv = CASES[fixture][0] + ["--fixture", path, "--out", tmp_path / "report.json"]
    path.write_text(json.dumps(data))
    baseline = _run(argv, capsys)
    assert baseline in (0, 1)
    wrong, tried = [], 0
    for key_path, label, mutant in _mutants(data):
        old_value = _at(data, key_path)
        expected = _expected_exit(fixture, key_path, label, old_value, baseline)
        path.write_text(json.dumps(mutant))
        code = _run(argv, capsys)  # an exception here is the traceback the CLI must not show
        tried += 1
        if code != expected:
            wrong.append((key_path, label, code, expected))
    assert tried > 0
    assert not wrong, wrong


def _well_typed_mutants(data):
    """(path, swap, mutated fixture) for every int or string leaf and each
    swap of its type, the unchanged value included."""
    for path in _paths(data):
        value = _at(data, path)
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            continue
        for swap in INT_SWAPS if isinstance(value, int) else STRING_SWAPS:
            mutant = json.loads(json.dumps(data))
            *head, key = path
            _at(mutant, head)[key] = swap
            yield path, swap, mutant


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_well_typed_mutant_is_bad_input_or_a_verdict(fixture, tmp_path, capsys):
    data = json.loads((FIXTURES / fixture).read_text())
    path = tmp_path / fixture
    argv = [str(a) for a in CASES[fixture][0]
            + ["--fixture", path, "--out", tmp_path / "report.json"]]
    allowed = WELL_TYPED_EXITS[argv[0]]
    wrong, tried = [], 0
    for key_path, swap, mutant in _well_typed_mutants(data):
        path.write_text(json.dumps(mutant))
        code = cli.main(argv)  # an exception here is the traceback the CLI must not show
        err = capsys.readouterr().err
        tried += 1
        if code not in allowed:
            wrong.append((key_path, swap, code))
        elif code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
            wrong.append((key_path, swap, err))
    assert tried > 0
    assert not wrong, wrong
