"""Every top-level function and class of `src/motive_calc`, and every method of such a class, has a user outside its own definition.

A name counts as used when code elsewhere in src refers to it (by name,
by attribute, or by import), when a module lists it in `__all__`, or when
`perfbench/tracer.py` binds it (read from the tracer's tables, never
changed, as `test_tracer_bindings.py` does).  A method is used when a
statement outside it refers to its name, in its class or elsewhere; a
dunder is called by the interpreter.  A helper that only tests call
belongs under `tests/`, as the oracles in `support.py` do.

Every module of src imports at its top: no import sits inside a function,
but for the lazy loads of the package's `__getattr__`, and no
`TYPE_CHECKING` block hides an import cycle.

No module of src imports `dataclasses`: a frozen dataclass costs about
0.6 ms to define and `dataclasses` imports `inspect`, which every
`motive-calc` process would pay at start-up; the records are NamedTuples.
"""

import ast
import os
import subprocess
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
    """(module, name) of every name the tracer binds; a method, written "Class.method", also binds its class."""
    bound = [(span.module, f) for span in tracer.SPANS.values() for f in span.functions]
    bound += [(module, f) for module, f, _ in tracer.COUNTERS.values()]
    return {(module, name) for module, f in bound for name in (f, f.split(".")[0])}


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
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    # a dunder such as a module's __getattr__ is called by the interpreter
    found = [f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
             if isinstance(node, (*functions, ast.ClassDef))
             and not node.name.startswith("__") and (module, node.name) not in traced
             and not users.get(node.name, set()) - {id(node)}]
    for module, tree in modules.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            found += [f"{module}.{cls.name}.{node.name}" for node in cls.body
                      if isinstance(node, functions) and not node.name.startswith("__")
                      and (module, f"{cls.name}.{node.name}") not in traced
                      and not users.get(node.name, set()) - {id(cls)}
                      and not any(node.name in _names_in(other) for other in cls.body if other is not node)]
    return found


def test_every_src_function_and_class_has_a_user_outside_its_definition():
    assert _unused() == []


def test_a_method_that_only_tests_call_is_found(tmp_path, monkeypatch):
    (tmp_path / "boxes.py").write_text(
        "class Box:\n    def get(self):\n        return self.peek()\n\n    def peek(self):\n        return 1\n\n"
        "    def only_tests(self):\n        return self.only_tests\n\n    def __len__(self):\n        return 0\n\n\n"
        "def make():\n    return Box().get()\n\n\nBOX = make()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _unused() == ["boxes.Box.only_tests"]


def test_the_tracer_alone_holds_restrict_to_open():
    # no statement of src refers to surface.restrict_to_open; the tracer's span keeps it
    assert ("surface", "restrict_to_open") in _traced()
    assert "restrict_to_open" not in _users(_modules())


def test_a_helper_that_only_tests_call_is_found(tmp_path, monkeypatch):
    (tmp_path / "helpers.py").write_text("def used():\n    return 1\n\n\ndef only_tests():\n    return used()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _unused() == ["helpers.only_tests"]


def _hidden_imports() -> list:
    """Each import inside a function, as module.function:line, and each use of TYPE_CHECKING, as module:line."""
    found = set()
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, node.name) != ("__init__", "__getattr__"):
                found.update(f"{module}.{node.name}:{sub.lineno}" for sub in ast.walk(node)
                             if isinstance(sub, (ast.Import, ast.ImportFrom)))
            elif (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"
                  or isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"):
                found.add(f"{module}:{node.lineno}")
    return sorted(found)


def test_every_src_module_imports_at_its_top():
    assert _hidden_imports() == []


def test_an_import_in_a_function_and_a_type_checking_block_are_found(tmp_path, monkeypatch):
    (tmp_path / "late.py").write_text(
        "import typing\n\nif typing.TYPE_CHECKING:\n    from .x import y\n\n\n"
        "def f():\n    def g():\n        import json\n    return g\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _hidden_imports() == ["late.f:9", "late.g:9", "late:3"]


def _imports(name: str) -> list:
    """module:line of each import, in src, of the top-level module name or of a name from it."""
    return sorted(f"{module}:{node.lineno}" for module, tree in _modules().items() for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == name for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == name)


def test_no_src_module_imports_dataclasses():
    assert _imports("dataclasses") == []


def test_an_import_of_dataclasses_is_found(tmp_path, monkeypatch):
    (tmp_path / "records.py").write_text(
        "import json\nfrom dataclasses import dataclass\nfrom .dataclasses import x\n\n\n"
        "def f():\n    import dataclasses as d, os\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert _imports("dataclasses") == ["records:2", "records:7"]


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    # motive_calc.cli imports report and dsl, and through them every module of src
    script = ("import sys, motive_calc.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'motive_calc.report', 'motive_calc.dsl'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['motive_calc.dsl', 'motive_calc.report']\n"
