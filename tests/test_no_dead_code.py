"""Every function, method and class defined in the package must be reached
from the package, and every name a package module imports must be used.

A definition counts as reached when its name is referenced anywhere in
``src/`` other than its own ``def``/``class`` line: as a bare name, an
attribute, or an imported name.  A reference from ``tests/`` does not count,
since a definition that only tests call serves no command and no suite.  The
exceptions are the paper constructions in ``TEST_ONLY``, each waiting for the
suite or command that will reach it; a second test fails when one of them is
no longer defined or is now referenced from ``src/``, so the list cannot go
stale.  Dunder methods are exempt, since Python calls them implicitly.  The
match is by name only, so it can miss dead code that shares a name with live
code, but it never flags live code.

An imported name counts as used when its module reads it as a bare name
(an attribute access ``conn.x`` reads ``conn``), or when it is listed in the
module's ``__all__``, the package's re-exports.  ``from __future__`` imports
are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genform"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Paper constructions that only tests reach today, with what is to reach them
# (the numbered items of ROADMAP.md).  Their helpers are reached from them.
TEST_ONLY = {
    "recover_hamiltonian": "the hamiltonian identity suite (item 11)",
    "is_kernel_field": "the hamiltonian identity suite (item 11)",
    "embedded_consistency_check": "the hamiltonian identity suite (item 11)",
    "quaternion_triple": "a check of the gvector suite",
    "validate_quaternion_triple": "a check of the gvector suite",
    "general_gd": "the cover command",
    "rescaled_soul": "the cover command",
    "cov_deriv_vf_along": "the connection suite",
    "torsion_free_alpha": "the sympy.diffgeom torsion oracle (item 10)",
}


def _scan() -> tuple[list[tuple[str, int, str]], set[str]]:
    """The (path, line, name) of every non-dunder definition in the package,
    and every name that ``src/`` references."""
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, DEFINITIONS) and PACKAGE in path.parents:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((str(path.relative_to(ROOT)), node.lineno, node.name))
    return sorted(defined), used


def unreferenced_definitions() -> list[str]:
    defined, used = _scan()
    return [f"{where}:{line} {name}" for where, line, name in defined
            if name not in used and name not in TEST_ONLY]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_test_only_list_is_current():
    defined, used = _scan()
    names = {name for _, _, name in defined}
    assert sorted(TEST_ONLY.keys() - names) == [], "no longer defined"
    assert sorted(TEST_ONLY.keys() & used) == [], "now reached from src/"


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


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
