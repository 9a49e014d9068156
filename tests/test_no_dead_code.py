"""Every function and method defined in the package must run when the golden
cases replay, and every name a package module imports must be used.

``traced_calls`` replays the ``CASES`` of ``tests/test_golden.py`` in a fresh
interpreter under ``sys.setprofile`` and records the code of every call.  A
fresh interpreter, because in this one earlier tests may already have filled
the ``functools.cache`` of a function, which then runs no more.  Each
function and method of ``src/genform`` must be among those calls, the
operator dunders included: ``sys.setprofile`` sees the implicit calls of
``a + b``, ``-a``, ``a == b`` or ``hash(a)`` like any other.
A definition is named by its module and qualified name, such as
``ring.Polynomial.terms`` or ``gvector.quaternion_triple.<locals>.tensor``,
and matched to the code that ran by its file, first line (its first
decorator's) and name, since Python 3.10 code has no qualified name.  Only
the printing dunders ``__str__`` and ``__repr__`` are exempt, since failure
records and error messages print through them.  A call from a test does not
count: a definition that only tests call serves no command and no suite.

The exceptions are ``UNRUN``, each with what will reach it.  A second test
fails when one of them is no longer defined or now runs, so the list cannot
go stale.

An imported name counts as used when its module reads it as a bare name
(an attribute access ``conn.x`` reads ``conn``), or when it is listed in the
module's ``__all__``, the package's re-exports; every name listed there must
resolve on the package.  ``from __future__`` imports
are exempt.  ``cli``, the home of the fixture format, alone imports ``json``
and defines ``*_from_json`` readers.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genform"

# Definitions that no golden case runs, with what is to reach them (the
# numbered items of ROADMAP.md).
UNRUN = {
    # paper constructions still waiting for a caller
    "hamiltonian.recover_hamiltonian": "the hamiltonian identity suite (item 11)",
    "gvector.quaternion_triple": "a check of the gvector suite",
    "gvector.validate_quaternion_triple": "a check of the gvector suite",
    "cover.general_gd": "the cover command",
    "cover.rescaled_soul": "the cover command",
    "connection.cov_deriv_vf_along": "the connection suite",
    "randgen.FormRandom.torsion_free_alpha": "the sympy.diffgeom torsion oracle (item 10)",
    # helpers that only those constructions reach
    "exterior.poincare_antiderivative": "recover_hamiltonian",
    "connection.field_from_components": "cov_deriv_vf_along",
    # ExpPoly's signed sums: general_gd adds and negates its theta terms
    "ring.ExpPoly.__radd__": "cover.general_gd",
    "ring.ExpPoly.__neg__": "cover.general_gd",
    "ring.ExpPoly.__sub__": "cover.general_gd",
    "ring.ExpPoly.__rsub__": "cover.general_gd",
    # the residual lhs - rhs of a failing two-sided check (suites._check)
    "exterior.VectorField.__sub__": "a failing gvector check on two fields, in GenVectorField's",
    "gvector.GenVectorField.__sub__": "a failing gvector check on two fields",
    "superspace.SuperFunction.__sub__": "a failing super check on two superfunctions",
    # read by the benchmark, which no golden case runs
    "ring.Polynomial.terms": "perfbench/spans.py, which counts terms with it",
    "suites._record": "a failing check; perfbench/spans.py's PRIVATE wraps it",
}

_TRACE = """
import pathlib, sys, tempfile
calls = set()
def profile(frame, event, arg):
    if event == "call":
        calls.add(frame.f_code)
sys.setprofile(profile)
import test_golden
with tempfile.TemporaryDirectory() as tmp:
    for name in test_golden.CASES:
        test_golden.run_case(name, pathlib.Path(tmp))
sys.setprofile(None)
print(sorted({(code.co_filename, code.co_firstlineno, code.co_name) for code in calls}))
"""


PRINTING = {"__str__", "__repr__"}


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every function and
    method in the package but the printing dunders."""
    found: dict[tuple[str, int, str], str] = {}

    def walk(node: ast.AST, path: pathlib.Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in PRINTING:
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first, child.name] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path, f"{path.stem}.")
    return found


@functools.cache
def traced_calls() -> frozenset[tuple[str, int, str]]:
    """(file, first line, name) of every code that ran while the golden
    cases replayed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", _TRACE], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return frozenset(tuple(call) for call in ast.literal_eval(proc.stdout.splitlines()[-1]))


def unrun_definitions() -> list[str]:
    ran = traced_calls()
    return sorted(name for key, name in definitions().items() if key not in ran)


def test_every_definition_runs():
    assert sorted(set(unrun_definitions()) - UNRUN.keys()) == []


def test_unrun_list_is_current():
    assert sorted(UNRUN.keys() - set(definitions().values())) == [], "no longer defined"
    assert sorted(UNRUN.keys() - set(unrun_definitions())) == [], "now runs"


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_re_export_resolves():
    # a name left in __all__ after its definition went would only fail on import *
    import genform
    exported = _exported(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert exported == set(genform.__all__)
    assert [name for name in genform.__all__ if getattr(genform, name, None) is None] == []


def unused_imports() -> list[str]:
    unused: list[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}
        read = _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in sorted(imported.items(), key=lambda item: item[1])
                   if name not in read]
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def test_only_cli_reads_the_fixture_format():
    json_users = {path.stem for path in PACKAGE.rglob("*.py")
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Import) and "json" in [a.name for a in node.names]
                  or isinstance(node, ast.ImportFrom) and node.module == "json"}
    assert json_users == {"cli"}
    readers = [name for name in definitions().values() if name.endswith("_from_json")]
    assert readers and all(name.startswith("cli.") for name in readers), readers
