"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--out FILE]

For every workload, runs `run.py` once per seed (1..runs), one run at a
time, and prints for every end-to-end metric the median and the spread:
the distance between the first and third quartiles of the runs, as
`statistics.quantiles(values, n=4)` gives them, divided by the median.
A spread must stay within the metric's bound in `BENCHMARK.json`.
`--out` writes the environment and every run's result to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import git_revision
from workloads import NAMES

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=NAMES)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"git_revision": git_revision(), "runs": {}}
    steady = True
    for workload in args.workload or NAMES:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = BENCHMARK["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            detail = json.loads(lines[-2])["detail"]
            runs.append({"seed": seed, "result": json.loads(lines[-1]), "detail": detail})
        record["runs"][workload] = runs
        record.setdefault("environment", runs[0]["detail"]["environment"])
        print(f"== {workload}: {args.runs} runs")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = "" if s < bound / 3 else "  <-- not below bound/3" if s <= bound else "  <-- OVER BOUND"
            if s > bound:
                steady = False
            print(f"  {name:15s} median {statistics.median(values):12.6g}  spread {s:.4f}  bound {bound}{flag}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
