"""A traced pass in process: the tracer of `perfbench/run.py --trace 1` over two reports and two queries.

`test_tracer_bindings` only resolves the names the tracer wraps.  This
installs `perfbench/tracer.Tracer` and runs what a traced pass runs:
`run_report(3)` with and without the threefold, each rendered, one surface
and one threefold `dsl.evaluate`.  A wrapper that raises on a call, or a
size count that no longer reads its argument, fails here instead of
stopping the traced worker of `perfbench/run.py` (which then exits 3), and
a layer the tracer binds that the pass no longer reaches fails here
instead of reading 0 in the benchmark.  The tracer is read, not changed,
and uninstalled in a `finally`, so the tests after this one see the
original bindings.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402

from motive_calc import dsl, report, surface, threefold  # noqa: E402

# metrics that run.py computes from the pass and its plain twin, not from the tracer
RUN_METRICS = {"exact.coeff_bits.max", "trace.overhead_ratio", "trace.span_coverage_ratio"}


def test_a_traced_pass_reports_every_per_layer_metric():
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    originals = (surface.compose, threefold.compose_atom_pair, threefold.TensorExpr.__dict__["compose"])
    traced = tracer.Tracer()
    traced.install()
    try:
        assert surface.compose is not originals[0]
        for include_threefold in (False, True):
            payload = report.run_report(3, include_threefold=include_threefold)
            report.render_json(payload)
            assert all(e["status"] == "pass" for e in report.non_experimental_certificates(payload))
        assert dsl.evaluate("Delta . pi1 - pi1", 4).is_zero()
        assert not dsl.evaluate("T(pi0, pi2) . Delta", 4, "threefold").is_zero()
    finally:
        traced.uninstall()
    assert (surface.compose, threefold.compose_atom_pair, threefold.TensorExpr.__dict__["compose"]) == originals
    metrics = traced.metrics()
    assert sorted({m["name"] for m in per_layer} - RUN_METRICS - metrics.keys()) == []
    # the tracer finds Delta as one graph of (level, 0, 0, 1, False): SurfEnd's field layout
    assert metrics["surface.compose.delta_operand_calls"] > 0
    assert metrics["endos.surf_compose.calls"] > 0
    # layers that the tracer binds by name and only some rows reach: a cut that orphans one reads 0 here
    for layer in ("threefold.t_compose", "threefold.compose_t_atom_pair", "threefold.restrict_to_open_t",
                  "groups.GroupRingElement.mul"):
        assert metrics[f"{layer}.calls"] > 0, layer
