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
                                {"case", "epsilon", "alpha", "chi"}),
    "connection_case_ii_ordinary.json": (["connection-thm", "--case", "ii"],
                                         {"case", "epsilon", "alpha", "chi"}),
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


def _paths(node, path=()):
    """Every key path below node: object keys and array indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutants(data):
    """(path, mutation, mutated fixture) for every deletion and swap tried."""
    for path in _paths(data):
        *head, key = path
        parent = data
        for step in head:
            parent = parent[step]
        in_components = bool(head) and head[-1] == "components"
        changes = [(value, value) for value in SWAPS
                   if not (key == "components" and value == {})]
        if isinstance(parent, dict) and not in_components:
            changes.append(("deleted", None))
        for label, value in changes:
            mutant = json.loads(json.dumps(data))
            target = mutant
            for step in head:
                target = target[step]
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
        old_value = data
        for step in key_path:
            old_value = old_value[step]
        expected = _expected_exit(fixture, key_path, label, old_value, baseline)
        path.write_text(json.dumps(mutant))
        code = _run(argv, capsys)  # an exception here is the traceback the CLI must not show
        tried += 1
        if code != expected:
            wrong.append((key_path, label, code, expected))
    assert tried > 0
    assert not wrong, wrong
