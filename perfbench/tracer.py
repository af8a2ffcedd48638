"""Per-layer tracing for the traced benchmark pass.

The tracer wraps public functions of the program's modules from outside:
nothing under `src/` knows about it.  A wrapped function gets either a
span (call count, self time, and optional size counts computed from its
arguments and result) or, for the per-atom rewrite rules that run millions
of times, a bare counter.  Spans and counters live in memory until the
pass ends and `Tracer.metrics` reads them once.

A wrapper replaces every binding of the original function in every loaded
`motive_calc` module, because `threefold` and `dsl` import `compose`,
`transpose` and the rule functions by name from `surface`; patching only
`surface.compose` would miss their calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, NamedTuple, Optional

MODULES = ("exact", "levels", "groups", "endos", "surface", "threefold", "motives", "dsl", "report")


class Span(NamedTuple):
    """Functions traced as one span; it reports `.calls`, `.self_s` and its fields."""

    module: str
    functions: tuple  # a method is written "Class.method"
    fields: tuple = ()  # size counts summed over calls
    sizes: Optional[Callable] = None  # (args, result) -> one amount per field
    distinct: bool = False  # also report distinct operand pairs / calls as `.distinct_ratio`


def _pairs(x, y) -> int:
    return len(x.terms) * len(y.terms)


def _is_delta(x) -> bool:
    """Whether x is the diagonal: one identity graph with coefficient 1."""
    if len(x.terms) != 1:
        return False
    (atom, coeff), = x.terms.items()
    return atom[0] == "G" and tuple(atom[1]) == (x.level, 0, 0, 1, False) and coeff == 1


def _value_key(x) -> tuple:
    return x.level, frozenset(x.terms.items())


SPANS = {
    "surface.compose": Span(
        "surface", ("compose",), ("pairs", "atoms_out", "delta_operand_calls"),
        lambda a, r: (_pairs(*a), len(r.terms), _is_delta(a[0]) or _is_delta(a[1])), distinct=True),
    "surface.act_on_divisor": Span("surface", ("act_on_divisor",)),
    "surface.transpose": Span("surface", ("transpose",)),
    "surface.build_pi_cusp": Span("surface", ("build_pi_cusp",)),
    "surface.restrict_to_open": Span("surface", ("restrict_to_open",)),
    "groups.group_certificate": Span("groups", ("group_certificate",)),
    "groups.GroupRingElement.mul": Span(
        "groups", ("GroupRingElement.__mul__",), ("pairs",), lambda a, r: (_pairs(*a),)),
    "threefold.TensorExpr.compose": Span(
        "threefold", ("TensorExpr.compose",), ("parts_in", "parts_out"),
        lambda a, r: (len(a[0].parts) * len(a[1].parts), len(r.parts))),
    "threefold.TensorExpr.expand": Span(
        "threefold", ("TensorExpr.expand",), ("atoms_out",), lambda a, r: (len(r.terms),)),
    "threefold.act_on_threefold_divisor": Span(
        "threefold", ("act_on_threefold_divisor",), ("pairs",), lambda a, r: (_pairs(*a),)),
    "threefold.restrict_to_open_t": Span("threefold", ("restrict_to_open_t",)),
    "threefold.t_compose": Span("threefold", ("t_compose",), ("pairs",), lambda a, r: (_pairs(*a),)),
    "dsl.parse_expr": Span("dsl", ("parse_expr",)),
    "dsl.eval_expr": Span("dsl", ("eval_expr",)),
    # the motive, Betti and filtration tables are one layer
    "motives.tables": Span("motives", (
        "decompose_surface", "decompose_threefold", "surface_multiplicity", "realize_betti",
        "chow_kunneth_table", "filtration_table", "codim_one_checklist")),
    "report.run_report": Span("report", ("run_report",)),
    "report.render_json": Span("report", ("render_json",), ("bytes",), lambda a, r: (len(r.encode()),)),
}

# counter name -> (module, function, whether to report the share of non-empty results)
COUNTERS = {
    "surface.compose_atom_pair": ("surface", "compose_atom_pair", True),
    "endos.surf_compose": ("endos", "surf_compose", False),
    "threefold.compose_t_atom_pair": ("threefold", "compose_t_atom_pair", True),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".max"):
        return "bits"
    return "count"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.open_children: list[float] = []  # child time of each open span
        self.spans = {name: [0, 0.0] + [0] * len(s.fields) for name, s in SPANS.items()}  # calls, self_s, fields
        self.operands = {name: set() for name, s in SPANS.items() if s.distinct}
        self.counts = {name: [0, 0] for name in COUNTERS}  # calls, non-empty results
        self._originals: list[tuple] = []

    def span(self, name: str, fn):
        record = self.spans[name]
        sizes = SPANS[name].sizes
        operands = self.operands.get(name)
        stack = self.open_children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[0] += 1
                record[1] += clock() - start - stack.pop()
            if sizes is not None:
                for i, amount in enumerate(sizes(args, result), 2):
                    record[i] += amount
            if operands is not None:
                operands.add(tuple(map(_value_key, args)))
            if stack:
                # size counting is tracing cost: keep it out of the parent's self time
                stack[-1] += clock() - start
            return result

        return wrapper

    def counter(self, name: str, fn):
        record = self.counts[name]
        if not COUNTERS[name][2]:
            def wrapper(*args):
                record[0] += 1
                return fn(*args)

            return wrapper

        def wrapper(*args):
            result = fn(*args)
            record[0] += 1
            if result:
                record[1] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function under every name it is bound to."""
        for module in MODULES:
            importlib.import_module(f"motive_calc.{module}")
        targets = [(s.module, f, name, self.span) for name, s in SPANS.items() for f in s.functions]
        targets += [(module, f, name, self.counter) for name, (module, f, _) in COUNTERS.items()]
        loaded = [m for name, m in sys.modules.items() if name.startswith("motive_calc.")]
        for module, attr, name, wrap in targets:
            owner = sys.modules[f"motive_calc.{module}"]
            if "." in attr:  # a method: patch its class
                cls_name, method = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[method]
                self._originals.append((owner, method, original))
                setattr(owner, method, wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the pass; a layer not reached reads 0."""
        out: dict[str, float] = {}
        for name, span in SPANS.items():
            calls, self_s, *amounts = self.spans[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out.update((f"{name}.{field}", amount) for field, amount in zip(span.fields, amounts))
            if span.distinct:
                out[f"{name}.distinct_ratio"] = len(self.operands[name]) / calls if calls else 0.0
        for name, (_, _, count_hits) in COUNTERS.items():
            calls, hits = self.counts[name]
            out[f"{name}.calls"] = calls
            if count_hits:
                out[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
        return out

    def self_time_total(self) -> float:
        return sum(record[1] for record in self.spans.values())
