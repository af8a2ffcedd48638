"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared cloud VM the speed of single-threaded Python work changes by
up to a factor of two within seconds as other tenants come and go.  On a
2-vCPU Intel Xeon VM at 2.1 GHz a fixed piece of Fraction work took about
0.9 ms in the machine's fast state and about 1.5 ms in its slow state,
switching between them every few seconds, and a report level slowed in
step, its process CPU time rising with its wall time.  Raw wall times then
differ by 20-35% from run to run, far more than a change worth detecting.

So every timed operation is rescaled.  While a pass runs, a timer signal
runs `reference_chunk`, a fixed piece of Fraction and dict work like the
program's own, every PROBE_PERIOD_S.  An operation's time, with the
probe's own time left out, is multiplied by REFERENCE_CHUNK_S over a
robust mean of the chunk times sampled during it and within NEAR_S either
side: the mean of the middle 80%.  NEAR_S is short against the seconds
the machine stays in one state, and gives an operation of a millisecond
about ten samples; with one period either side, the median query time of
a repeated eval-mix pass moved by 8-10% from pass to pass.  A mean, because an operation's
time is the sum of its steps' times and so follows the mix of fast and
slow stretches over its span; trimmed, so that a rare stalled chunk does
not move it.  REFERENCE_CHUNK_S is the chunk's time in the fast state, so
the reported times are what the operations take when the whole pass runs
at that speed.  They came out at 0.55 to 0.85 of the raw wall seconds on
that VM, about 0.6 in most passes, as it spends most of its time in the
slow state; each run's detail line keeps the raw seconds.

The chunk runs with the cyclic garbage collector off.  Its allocations
still count towards the next collection, which then runs in the
program's code and is charged to the program: otherwise a collection,
whose pause grows with the program's live heap, could land in a chunk,
and a program that grows its heap would have part of that cost divided
out.  What the program can still move is the chunk's own speed, through
the caches it shares with the program; `test_perfbench.py` checks that a
large live heap moves it little.

Set-up is rescaled by another yardstick: interpreter start and module
import slow far less than Fraction work in the slow state (about as the
chunk speed to the power 0.33), so the chunk over-corrects them.  Each
set-up is timed right after `reference_start`, a fresh interpreter that
imports only standard modules the program uses, and multiplied by
REFERENCE_START_S over that start's time.  On that VM the ratio of the
two spread 5% (quartile distance over median) where the raw set-up time
spread 10% and the chunk-rescaled one 9%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.05
# how far either side of an operation its chunk samples are taken from
NEAR_S = 0.25
# the chunk's time on a 2.1 GHz Xeon VM in its fast state
REFERENCE_CHUNK_S = 0.0009
REFERENCE_START = "import dataclasses, fractions, time, typing; print(time.monotonic())"
# the reference start's time on that VM in its fast state
REFERENCE_START_S = 0.045


def reference_chunk() -> float:
    """Run a fixed piece of exact-arithmetic work, with no collection, and return its duration."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(250):
        key = (i % 17, i % 5)
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[key] = table.get(key, 0) + acc
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def robust_mean(values: list[float]) -> float:
    """Mean of the values without the lowest and highest tenth, and at least one each from three values on."""
    ordered = sorted(values)
    cut = max(len(ordered) // 10, 1) if len(ordered) >= 3 else 0
    return statistics.mean(ordered[cut:len(ordered) - cut])


def reference_start(timeout: float) -> float:
    """Seconds from spawning the reference interpreter until its imports have returned."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_START], capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(proc.stdout) - started


class SpeedProbe:
    """Samples the chunk time every PROBE_PERIOD_S while the probe is open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter time, chunk seconds)
        self.stolen = 0.0  # seconds the probe itself has taken
        self.ops: list[tuple[float, float, float]] = []  # (start, end, probe-free seconds)
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a late signal during a sample
            return
        self._busy = True
        was_enabled = gc.isenabled()
        gc.disable()  # in the probe's own bookkeeping too
        start = time.perf_counter()
        self.samples.append((start, reference_chunk()))
        self.stolen += time.perf_counter() - start
        if was_enabled:
            gc.enable()
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def call(self, fn, *args, **kwargs):
        """Call fn as one timed operation and return its result."""
        stolen, start = self.stolen, time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.ops.append((start, end, end - start - (self.stolen - stolen)))

    def op_times(self) -> list[float]:
        """Each operation's probe-free seconds, rescaled to the reference speed."""
        return [self.rescale(start, end, seconds) for start, end, seconds in self.ops]

    def raw_seconds(self) -> float:
        """Wall seconds of all operations as measured, probe time included."""
        return sum(end - start for start, end, _ in self.ops)

    def rescale(self, start: float, end: float, seconds: float) -> float:
        """Seconds measured between start and end, at the reference speed."""
        near = [d for t, d in self.samples if start - NEAR_S <= t <= end + NEAR_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return seconds * REFERENCE_CHUNK_S / robust_mean(near)
