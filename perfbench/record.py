"""Record the expected outputs that the benchmark checks against.

    python3 perfbench/record.py

writes `perfbench/expected.json`: the sha256 of `render_json` for every
level of the two report workloads, and of the rendered result of every
plain query in the eval-mix pool.  Record only at a commit whose reports
pass every certificate; the recorded digests are the correctness gate for
all later commits, since the report output must stay byte-identical.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from motive_calc import dsl, report  # noqa: E402

from run import git_revision  # noqa: E402
from workloads import REPORTS, plain_pool, sha256  # noqa: E402


def main() -> None:
    expected: dict = {"recorded_at": git_revision()}
    for name, spec in REPORTS.items():
        expected[name] = {}
        for n in spec["levels"]:
            payload = report.run_report(n, include_threefold=spec["threefold"])
            if not report.report_passed(payload):
                sys.exit(f"{name} level {n}: a certificate fails; not recording")
            expected[name][str(n)] = sha256(report.render_json(payload))
    expected["eval-mix"] = {q.key(): sha256(dsl.evaluate(q.source, q.level, q.mode).render()) for q in plain_pool()}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
