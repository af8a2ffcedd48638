"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import gc
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from motive_calc import dsl, report, surface, threefold  # noqa: E402
from motive_calc.levels import cusp_count  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
SEEDS = (1, 2, 3, 11, 12)


def test_generator_is_deterministic_per_seed():
    first = workloads.generate(7)
    assert first == workloads.generate(7)
    assert first != workloads.generate(8)
    assert len(first) == workloads.QUERIES_PER_PASS


def _atoms(node):
    """Every named atom in a parsed expression, with its arguments' atoms."""
    if isinstance(node, dsl.NamedAtom):
        yield node
        for arg in node.args:
            if not isinstance(arg, int):
                yield from _atoms(arg)
    elif isinstance(node, (dsl.Scale, dsl.Transpose)):
        yield from _atoms(node.node)
    elif isinstance(node, dsl.Compose):
        yield from _atoms(node.left)
        yield from _atoms(node.right)
    elif isinstance(node, dsl.Sum):
        for _, part in node.parts:
            yield from _atoms(part)


SURFACE_NAMES = {"Delta", "V", "mu0", "G", "pi0", "pi1", "pi2", "piF", "piInf", "piC", "CP"}
THREEFOLD_NAMES = {"Delta", "sigma", "ptilde", "T"}


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_emits_only_model_valid_queries(seed):
    queries = workloads.generate(seed)
    assert sum(q.mode == "threefold" for q in queries) >= 0.15 * len(queries)
    for q in queries:
        tree = dsl.parse_expr(q.source, q.mode)
        if q.mode == "surface":
            assert 3 <= q.level <= 10
            surface_atoms = list(_atoms(tree))
        else:
            assert q.level in (3, 4)
            top = [a for a in _atoms(tree) if a.name in THREEFOLD_NAMES]
            assert top
            surface_atoms = []
            for atom in top:
                if atom.name == "T":
                    assert len(atom.args) == 2
                    factors = [a for arg in atom.args for a in _atoms(arg)]
                    # cusp products are not tensor factors in the model
                    assert not {"CP", "piC"} & {a.name for a in factors}, q.source
                    surface_atoms += factors
        for atom in surface_atoms:
            assert atom.name in SURFACE_NAMES, q.source
            if atom.name == "G":
                assert atom.args[2] in (1, -1)
            if atom.name in ("CP", "piC"):
                assert 0 <= atom.args[0] < cusp_count(q.level)
        if q.law == "plain":
            assert q.key() in EXPECTED["eval-mix"]


def test_no_collection_runs_inside_the_reference_chunk():
    inside = []

    def note(phase, info):
        frame = sys._getframe(1)  # the code whose allocation set off the collection
        while frame is not None:
            if frame.f_code is speed.reference_chunk.__code__:
                inside.append((phase, info["generation"]))
            frame = frame.f_back

    thresholds = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)  # with the collector on, every allocation would collect
    try:
        for _ in range(3):
            speed.reference_chunk()
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(note)
    assert inside == []
    assert gc.isenabled()


def test_a_large_live_heap_hardly_moves_the_speed_factor():
    heap = {i: Fraction(i, 7) for i in range(300_000)}
    thresholds = gc.get_threshold()
    pressed, normal = [], []
    try:
        # interleaved, so that a change of machine speed hits both sides alike
        for _ in range(60):
            gc.set_threshold(1, 1, 1)
            pressed.append(speed.reference_chunk())
            gc.set_threshold(*thresholds)
            normal.append(speed.reference_chunk())
    finally:
        gc.set_threshold(*thresholds)
    assert len(heap) == 300_000
    assert abs(statistics.median(pressed) / statistics.median(normal) - 1) < 0.05


def test_a_stalled_chunk_hardly_moves_a_rescaled_time():
    probe = speed.SpeedProbe()
    probe.samples = [(i * speed.PROBE_PERIOD_S, 0.001) for i in range(200)]
    steady = probe.rescale(0.0, 10.0, 10.0)
    probe.samples[100] = (probe.samples[100][0], 0.1)
    assert steady == pytest.approx(10.0 * speed.REFERENCE_CHUNK_S / 0.001)
    assert abs(probe.rescale(0.0, 10.0, 10.0) / steady - 1) < 0.01


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(300) == 96
    assert run.tail_percentile(6) == 100
    samples = [float(i) for i in range(300)]
    cut = run.percentile(samples, run.tail_percentile(300))
    assert sum(s > cut for s in samples) >= 10
    assert sum(s > run.percentile(samples, 97) for s in samples) < 10


def test_metric_lists_match_benchmark_json():
    reported = list(tracer.Tracer().metrics())
    reported += ["exact.coeff_bits.max", "trace.overhead_ratio", "trace.span_coverage_ratio"]
    assert reported == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [m for row in layers["map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(reported)


@pytest.mark.parametrize("workload", ["surface-sweep", "threefold-report"])
def test_tracing_leaves_report_bytes_unchanged(workload):
    include = workloads.REPORTS[workload]["threefold"]
    plain = report.render_json(report.run_report(3, include_threefold=include))
    assert workloads.sha256(plain) == EXPECTED[workload]["3"]
    t = tracer.Tracer()
    t.install()
    try:
        # every caller's binding is replaced, not only the defining module's
        assert threefold.compose is surface.compose is dsl.compose
        assert threefold.compose_atom_pair is surface.compose_atom_pair
        traced = report.render_json(report.run_report(3, include_threefold=include))
    finally:
        t.uninstall()
    assert threefold.compose is surface.compose and surface.compose.__name__ == "compose"
    assert traced == plain
    metrics = t.metrics()
    assert metrics["report.render_json.bytes"] == len(plain.encode())
    assert metrics["surface.compose.calls"] > 0
    assert metrics["surface.compose_atom_pair.calls"] > metrics["surface.compose.pairs"] / 2
    assert (metrics["threefold.TensorExpr.compose.calls"] > 0) == include


def test_span_self_times_add_up_to_the_traced_time():
    import time

    t = tracer.Tracer()
    t.install()
    try:
        start = time.perf_counter()
        report.render_json(report.run_report(4, include_threefold=True))
        elapsed = time.perf_counter() - start
    finally:
        t.uninstall()
    assert 0.95 * elapsed <= t.self_time_total() <= elapsed
