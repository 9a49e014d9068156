"""Every function, method and class defined in the package must be used,
and every name a package module imports.

A definition counts as used when its name is referenced anywhere in ``src/``
or ``tests/`` other than its own ``def``/``class`` line: as a bare name, an
attribute, or an imported name.  Dunder methods are exempt, since Python
calls them implicitly.  The match is by name only, so it can miss dead code
that shares a name with live code, but it never flags live code.

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
