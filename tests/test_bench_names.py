"""The benchmark's per-layer metrics name genform functions by string.

``perfbench/run.py`` maps each metric group to span names such as
``connection.metric_inverse``; ``perfbench/spans.py`` wraps public functions
under those names and a few private suite helpers besides, and the workloads
hook ``suites._trial_setup`` to time each trial.  A rename in ``src/genform``
would silently zero such a metric instead of failing, so this test resolves
every name.  The benchmark files are read as text, never imported.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path: pathlib.Path, name: str):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def _resolve(dotted: str):
    module_name, *attrs = dotted.split(".")
    obj = importlib.import_module(f"genform.{module_name}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return module_name, attrs, obj


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__"))


def test_group_span_names_resolve_to_public_functions():
    groups = _literal(PERFBENCH / "run.py", "GROUPS")
    names = [name for members in groups.values() for name in members]
    assert names
    for name in names:
        module_name, attrs, obj = _resolve(name)
        assert inspect.isroutine(obj), name
        assert not any(_is_private(a) for a in attrs), name
        if len(attrs) == 1:  # a module-level function, wrapped where it is defined
            assert obj.__module__ == f"genform.{module_name}", name


def test_private_hooks_exist():
    private = _literal(PERFBENCH / "spans.py", "PRIVATE")
    hooks = [f"{module}.{name}" for module, names in private.items() for name in names]
    for name in hooks + ["suites._trial_setup"]:
        assert callable(_resolve(name)[2]), name
