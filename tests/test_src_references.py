"""Every top-level function and class of `src/motive_calc` has a user outside its own definition.

A name counts as used when code elsewhere in src refers to it (by name,
by attribute, or by import), when a module lists it in `__all__`, or when
`perfbench/tracer.py` binds it (read from the tracer's tables, never
changed, as `test_tracer_bindings.py` does).  A helper that only tests
call belongs under `tests/`, as the oracles in `support.py` do.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "motive_calc"
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _names_in(node) -> set:
    """The names node refers to: loaded names, attributes, imported names and the strings of an `__all__`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets):
            names.update(elt.value for elt in ast.walk(sub.value) if isinstance(elt, ast.Constant))
    return names


def _traced() -> set:
    """(module, name) of every top-level name the tracer binds; a method binds its class."""
    bound = [(span.module, f) for span in tracer.SPANS.values() for f in span.functions]
    bound += [(module, f) for module, f, _ in tracer.COUNTERS.values()]
    return {(module, f.split(".")[0]) for module, f in bound}


def _users(modules: dict) -> dict:
    """Each name referred to by a top-level statement of modules -> the ids of the statements that refer to it."""
    users: dict = {}
    for tree in modules.values():
        for stmt in tree.body:
            for name in _names_in(stmt):
                users.setdefault(name, set()).add(id(stmt))
    return users


def _unused() -> list:
    modules = _modules()
    users = _users(modules)
    traced = _traced()
    # a dunder such as a module's __getattr__ is called by the interpreter
    return [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and (module, node.name) not in traced
            and not users.get(node.name, set()) - {id(node)}]


def test_every_src_function_and_class_has_a_user_outside_its_definition():
    assert _unused() == []


def test_the_tracer_alone_holds_restrict_to_open():
    # no statement of src refers to surface.restrict_to_open; the tracer's span keeps it
    assert ("surface", "restrict_to_open") in _traced()
    assert "restrict_to_open" not in _users(_modules())


def test_a_helper_that_only_tests_call_is_found(tmp_path, monkeypatch):
    (tmp_path / "helpers.py").write_text("def used():\n    return 1\n\n\ndef only_tests():\n    return used()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _unused() == ["helpers.only_tests"]
