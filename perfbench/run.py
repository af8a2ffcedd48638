"""Benchmark driver for motive-calc.

    python3 perfbench/run.py --workload surface-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # all three workloads, every metric

Each pass of a workload runs in a fresh worker process (`worker.py`),
because every `motive-calc` invocation is a new process and pays its
per-process caches again.  Passes run one after another, never two at a
time, as many as fit in `--seconds`; at least one pass runs.  Then the
driver starts SETUP_SPAWNS workers that only import `motive_calc`, each
right after a reference interpreter start, and `setup_s` is the median of
their set-ups.  Times are rescaled to a reference machine speed as
`speed.py` describes.

With `--trace 0` the run reports the end-to-end metrics, each the median
over its passes.  With `--trace 1` it runs one plain pass and one traced
pass and reports the traced pass's per-layer metrics, plus the tracing
overhead measured against the plain pass.

Standard output holds a summary of every metric by name with its unit,
then one `{"detail": ...}` line per workload (environment, raw and
rescaled per-pass samples, set-up samples, failures), and last one JSON
object: with the keys `correct`, `attempted`, `failed` and `metrics` for
one workload, or one such object per workload for all three.  The exit
status is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_START_S, reference_start
from tracer import unit_of
from workloads import NAMES, job  # exits 2 when the checkout has no motive_calc sources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SPAWNS = 20
# a run must end within 180 s; leave room to report
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}


class BenchError(RuntimeError):
    """A worker crashed or ran out of time; the run has no result."""


def git_revision() -> str:
    """The checked-out commit, read from `.git`; "unknown" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of `count` samples beyond it; 100 when none has."""
    # the p-th percentile of n samples has n - floor(p (n + 1) / 100) samples beyond it
    p = math.ceil(100 * (count - 9) / (count + 1)) - 1
    return p if p >= 50 else 100


def percentile(samples: list[float], p: int) -> float:
    if p == 100:
        return max(samples)
    return statistics.quantiles(samples, n=100)[p - 1]


def spawn(payload: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result, with its raw set-up seconds."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(payload),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{payload['workload']} worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{payload['workload']} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result.pop("imported") - started
    return result


def setup_sample(deadline: float) -> float:
    """One set-up at the reference speed, measured against the reference start just before it."""
    try:
        reference = reference_start(timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.SubprocessError, ValueError) as exc:
        raise BenchError(f"the reference interpreter start failed: {exc}") from exc
    return spawn({"workload": "setup"}, deadline)["raw_setup_s"] * REFERENCE_START_S / reference


def pass_metrics(result: dict) -> dict[str, float]:
    ops = result["op_times"]
    return {
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "checks_per_s": result["checks"] / result["wall_s"],
        "query_p50_ms": statistics.median(ops) * 1e3,
        "query_tail_ms": percentile(ops, tail_percentile(len(ops))) * 1e3,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the per-run detail."""
    deadline = time.monotonic() + DEADLINE_S
    work = job(workload, seed)
    passes = []
    if trace:
        passes.append(spawn({**work, "trace": False}, deadline))
        passes.append(spawn({**work, "trace": True}, deadline))
    else:
        start = time.monotonic()
        # another pass only if it should end within the measuring time
        while not passes or (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
            passes.append(spawn({**work, "trace": False}, deadline))
    setups = [] if trace else [setup_sample(deadline) for _ in range(SETUP_SPAWNS)]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values["exact.coeff_bits.max"] = traced["coeff_bits"]
        values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        values["trace.span_coverage_ratio"] = traced["span_self_s"] / traced["raw_wall_s"]
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        samples = [pass_metrics(p) for p in passes]
        values = {name: statistics.median(s[name] for s in samples) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "passes": len(passes),
        "setup_samples": setups,
        "pass_samples": [{k: v for k, v in p.items() if k not in ("op_times", "layers")} for p in passes],
        "query_tail_percentile": tail_percentile(len(passes[0]["op_times"])),
        "failures": [f for p in passes for f in p["failures"]][:20],
    }
    return result, detail


def print_summary(workload: str, result: dict, detail: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"== {workload} (seed {detail['seed']}, {detail['passes']} passes, {len(detail['setup_samples'])} set-ups)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']} checks failed)")
    for failure in detail["failures"]:
        print(f"  FAILED {failure[:200]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_summary(name, result, detail)
            print(json.dumps({"detail": detail}))
            results[name] = result
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
