"""Host speed probe, used to express every timing at one reference speed.

The benchmark runs on a few cores of a shared host. The host's speed drifts
by up to 50% over seconds to minutes, even for an op's fastest execution,
because other work on the same machine competes for cores, caches and memory;
no length of run averages that away. So the benchmark takes, between its
ops, probe points: a few runs of a probe, a fixed piece of pure-Python work
that does not touch `wpp` (integer loop, exact rational elimination, a dict
of big integers, JSON). The host's speed during an execution is the median
of the probes of the last point before it and the first point after it, and
an execution that took t seconds while those probes took p seconds reads as
t * REFERENCE_PROBE_S / p: the time it would have taken on a host where the
probe takes REFERENCE_PROBE_S. A change to the program moves t and not p, so
it shows in full; drift of the host moves both.

The probe runs with the garbage collector off, so that the size of the
program's heap does not change what a probe costs. This assumes the program
is idle between calls. A program that left threads or processes working
between ops would slow the probe and read faster than it is; `run.py`
reports the thread count at the end of a run for that reason.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

# the probe's median time on a 2 vCPU Xeon VM with Python 3.11.7, so that
# scaled times read close to the times measured there
REFERENCE_PROBE_S = 0.003
# probes per point: a single 3 ms probe is itself noisy
PROBES_PER_POINT = 3
# least time between two points: about 6% of a run goes to probing
PROBE_EVERY_S = 0.15


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for k in range(20_000):
            total += k * k
        n = 8
        rows = [
            [Fraction((3 * i + 5 * j) % 13 + 1, (i + 2 * j) % 7 + 1) for j in range(n)]
            for i in range(n)
        ]
        det = Fraction(1)
        for k in range(n):
            pivot = next(r for r in range(k, n) if rows[r][k])
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det *= rows[k][k]
            for r in range(k + 1, n):
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
        table = {(i, j): (i * 2654435761 + j) ** 3 for i in range(40) for j in range(20)}
        text = json.dumps([str(det), total, sorted(table.values())[:200]])
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    if not text:
        raise AssertionError("probe produced no output")
    return elapsed


class HostSpeed:
    """Probe points taken during a run, and the scale they give each
    execution."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter() when each point started
        self.took: list[list[float]] = []  # the probe times of each point
        self._last = float("-inf")

    def probe_point(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append([probe() for _ in range(PROBES_PER_POINT)])
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Take a probe point, unless the last one ended less than
        PROBE_EVERY_S ago."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe_point()

    def scale(self, start: float, end: float | None = None) -> float:
        """REFERENCE_PROBE_S over the median of the probes of the last point
        at or before `start` and the first point at or after `end`: the
        factor that takes a time measured between the two to the reference
        speed."""
        if not self.at:
            raise ValueError("no probe was taken")
        end = start if end is None else end
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        took = self.took[before] + (self.took[after] if after != before else [])
        return REFERENCE_PROBE_S / statistics.median(took)

    def median_ms(self) -> float:
        return 1000 * statistics.median(t for point in self.took for t in point)
