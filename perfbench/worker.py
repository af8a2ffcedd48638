"""One pass of one benchmark workload, in a fresh process.

`run.py` starts this script once per pass and writes the job to its
standard input as JSON; the result comes back as one JSON line on standard
output.  Set-up ends when `import motive_calc` returns: the script records
that moment before it reads its job, and the driver subtracts its own
spawn time from it.  A job of workload "setup" stops there.  Every
operation time the worker reports is rescaled to the reference speed of
`speed.py` by the probe that samples the machine's speed while the pass
runs.

Everything the pass reports is checked here: certificate entries must all
pass and each level's rendered report must match the digest recorded in
`expected.json`; an eval-mix query must not raise, and must evaluate to
zero (a law query) or to the recorded render (a plain query).
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import motive_calc  # noqa: E402  -- set-up ends when this import returns

IMPORTED = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Query, sha256  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"
_COEFF = re.compile(r"(-?\d+(?:/\d+)?)\*")


def coeff_bits(rationals) -> int:
    """Largest bit length of a numerator or denominator among the rationals."""
    bits = 0
    for text in rationals:
        q = Fraction(text)
        bits = max(bits, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return bits


def _report_level(report, n: int, threefold: bool) -> tuple[dict, str]:
    payload = report.run_report(n, include_threefold=threefold)
    return payload, report.render_json(payload)


def report_pass(job: dict, expected: dict, probe: SpeedProbe, tracer) -> dict:
    report = probe.call(importlib.import_module, "motive_calc.report")
    if tracer:
        tracer.install()
    checks = failed = 0
    failures, bits = [], 0
    for n in job["levels"]:
        payload, text = probe.call(_report_level, report, n, job["threefold"])
        entries = report.non_experimental_certificates(payload)
        bad = [e["name"] for e in entries if e["status"] != "pass"]
        if sha256(text) != expected[str(n)]:
            bad.append("render_json digest")
        checks += len(entries)
        failed += len(bad)
        failures += [f"level {n}: {name}" for name in bad]
        bits = max(bits, coeff_bits(x for row in payload["lattice"]["reduced_inverse"] for x in row))
    # one digest check per level besides the certificate entries
    return {"checks": checks, "attempted": checks + len(job["levels"]), "failed": failed,
            "failures": failures, "coeff_bits": bits}


def query_pass(job: dict, expected: dict, probe: SpeedProbe, tracer) -> dict:
    dsl = probe.call(importlib.import_module, "motive_calc.dsl")
    if tracer:
        tracer.install()
    failures, bits = [], 0
    for q in (Query(*row) for row in job["queries"]):
        try:
            value = probe.call(dsl.evaluate, q.source, q.level, q.mode)
        except Exception as exc:  # a query that raises is a failed operation
            failures.append(f"{q.mode} N={q.level} {q.source}: {type(exc).__name__}: {exc}")
            continue
        if q.law == "plain":
            rendered = value.render()
            ok = sha256(rendered) == expected.get(q.key())
            bits = max(bits, coeff_bits(_COEFF.findall(rendered)))
        else:
            ok = value.is_zero()
        if not ok:
            failures.append(f"{q.mode} N={q.level} [{q.law}] {q.source}")
    n = len(job["queries"])
    return {"checks": n, "attempted": n, "failed": len(failures), "failures": failures, "coeff_bits": bits}


def main() -> None:
    job = json.load(sys.stdin)
    if Path(motive_calc.__file__).resolve().parent != ROOT / "src" / "motive_calc":
        sys.exit(f"motive_calc was imported from {motive_calc.__file__}, not from the checkout")
    out: dict = {"imported": IMPORTED}
    if job["workload"] != "setup":
        expected = json.loads(EXPECTED.read_text())[job["workload"]]
        tracer = Tracer() if job["trace"] else None
        run = query_pass if job["workload"] == "eval-mix" else report_pass
        with SpeedProbe() as probe:
            out.update(run(job, expected, probe, tracer))
        times = probe.op_times()
        # the first operation imports the layers the workload uses
        out["op_times"] = times[1:]
        out["wall_s"] = sum(times)
        out["raw_wall_s"] = probe.raw_seconds()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["layers"] = tracer.metrics()
            out["span_self_s"] = tracer.self_time_total()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
