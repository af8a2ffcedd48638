"""Every function the perfbench tracer wraps still exists where it looks.

`perfbench/tracer.py` binds its spans and counters by module and name, and
a method by its class's own `__dict__`.  A function moved or renamed in
`src/` would make `perfbench/run.py --trace 1` fail only when it is run;
this reads the tracer's tables, without changing them, and resolves each.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402

BINDINGS = sorted(
    [(span.module, f) for span in tracer.SPANS.values() for f in span.functions]
    + [(module, f) for module, f, _ in tracer.COUNTERS.values()]
)


@pytest.mark.parametrize("module, name", BINDINGS)
def test_every_traced_name_resolves(module, name):
    owner = importlib.import_module(f"motive_calc.{module}")
    if "." in name:
        cls_name, method = name.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method)), name
    else:
        assert callable(getattr(owner, name, None)), name
