"""Every function, method and class defined in the package must be used.

A definition counts as used when its name is referenced anywhere in ``src/``
or ``tests/`` other than its own ``def``/``class`` line: as a bare name, an
attribute, or an imported name.  Dunder methods are exempt, since Python
calls them implicitly.  The match is by name only, so it can miss dead code
that shares a name with live code, but it never flags live code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genform"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _referenced(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def unreferenced_definitions() -> list[str]:
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            name = _referenced(node)
            if name is not None:
                used.add(name)
            elif isinstance(node, DEFINITIONS) and PACKAGE in path.parents:
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((str(path.relative_to(ROOT)), node.lineno, node.name))
    return [f"{where}:{line} {name}" for where, line, name in sorted(defined)
            if name not in used]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []
