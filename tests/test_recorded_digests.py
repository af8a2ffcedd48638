"""The report JSON and the rendered DSL results match the digests recorded
in `perfbench/expected.json`, so a refactor that changes one output byte
fails here.  The file is only read."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

from motive_calc.dsl import evaluate  # noqa: E402
from motive_calc.report import render_json, run_report  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize(
    "workload, n", [(workload, int(n)) for workload in workloads.REPORTS for n in EXPECTED[workload]])
def test_report_digest(workload, n):
    include = workloads.REPORTS[workload]["threefold"]
    text = render_json(run_report(n, include_threefold=include))
    assert workloads.sha256(text) == EXPECTED[workload][str(n)]


@pytest.mark.parametrize("query", workloads.plain_pool())
def test_plain_query_digest(query):
    rendered = evaluate(query.source, query.level, query.mode).render()
    assert workloads.sha256(rendered) == EXPECTED["eval-mix"][query.key()]
