"""Host-speed normalisation of the benchmark's times.

On a shared host the speed of the same single-threaded code moves in level
shifts: a pure-Python loop measured every 0.3 s on a 2-CPU host took 0.22 s
for half a minute, then 0.25-0.29 s, then 0.33 s, within two minutes. Wall
times of one run therefore say as much about the host as about the program.

A `SpeedProbe` times a fixed reference kernel (`kernel`: small numpy
products, Python string and float work, and scattered reads over a few
megabytes, the mix the program runs) every INTERVAL_S seconds from a SIGALRM
handler, also while an op runs. Between two samples the host's speed is
taken as k, the running median of the 2 * SMOOTH + 1 kernel times around the
earlier sample. An op's normalised time is the integral over its wall time
of NOMINAL_KERNEL_S / k, leaving out the time the probe itself ran inside
the op. It reads as seconds on a host where one kernel call takes
NOMINAL_KERNEL_S. A change to the program moves it as it moves wall time; a
change of host speed, even in the middle of an op, moves both the op and the
kernel, and cancels.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time

import numpy as np

NOMINAL_KERNEL_S = 0.005   # about one kernel call on a 2-CPU Xeon host
INTERVAL_S = 0.25          # probe period; the probe costs about 2% of it
SMOOTH = 2                 # running median of 5 samples, 1.25 s of host time
WARMUP = 5                 # kernel calls before the first sample

_A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
_NORMALS = np.array([[0.6, 0.8], [-0.8, 0.6], [1.0, 0.0]])
_OFFSETS = np.array([0.1, -0.2, 0.3])


class _Tables:
    """Data larger than a core's private caches, so that the kernel slows
    down, as the program does, when neighbours on the host contend for
    the shared cache and memory: about 4 MB, built once per process."""

    def __init__(self):
        rng = random.Random(0)
        keys = [f"k{i:06d}" for i in range(20_000)]
        self.index = {k: i for i, k in enumerate(keys)}
        self.lookups = [keys[rng.randrange(len(keys))] for _ in range(4000)]
        self.records = [_Record(i) for i in range(12_000)]
        self.visits = [rng.randrange(len(self.records)) for _ in range(3000)]
        self.array = np.random.default_rng(0).standard_normal(131_072)
        self.gather = np.random.default_rng(1).permutation(len(self.array))[:20_000]


class _Record:
    __slots__ = ("i", "x", "name")

    def __init__(self, i):
        self.i, self.x, self.name = i, float(i), str(i)


_tables = None


def kernel() -> float:
    """Fixed reference work, about 5 ms on a 2-CPU Xeon host: tiny numpy
    products, sign strings, dict counts and exact sums, as the program's
    per-sample loops do, and scattered reads over `_Tables`. It calls
    nothing of the program, so a change to the program cannot change it."""
    global _tables
    if _tables is None:
        _tables = _Tables()
    tb = _tables
    s = float(sum(tb.index[k] for k in tb.lookups))
    for i in tb.visits:
        r = tb.records[i]
        s += r.x + len(r.name)
    s += float(tb.array[tb.gather].sum())
    x = np.ones(3)
    s = 0.0
    for _ in range(150):
        y = _A @ x
        s += float(np.abs(y).sum()) % 7.0
        x = np.sign(y - s) + 0.5
        s += sum(v * 1.5 for v in range(8)) * 1e-9
    seen: dict[str, int] = {}
    for i in range(40):
        p = np.array([math.sin(i), math.cos(i)])
        r = _NORMALS @ p - _OFFSETS
        sign = "".join("0" if abs(v) <= 1e-10 else ("+" if v > 0 else "-") for v in r)
        seen[sign] = seen.get(sign, 0) + 1
        s += math.fsum([float(v) * float(w) for v in r for w in p])
        s += float(np.linalg.det(np.outer(r[:2], p) + np.eye(2)))
    return s + len(seen)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def kernel_median(repeats: int) -> float:
    """Median kernel time over `repeats` calls, after a warm-up."""
    for _ in range(WARMUP):
        kernel()
    return statistics.median(time_kernel() for _ in range(repeats))


class SpeedProbe:
    """Kernel timings taken every INTERVAL_S seconds between start and stop."""

    def __init__(self):
        self.starts: list[float] = []      # sample start times, increasing
        self.durations: list[float] = []
        self._speeds: list[float] = []     # smoothed durations, see normalise
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        for _ in range(WARMUP):
            kernel()
        for _ in range(WARMUP):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def normalise(self, t0: float, t1: float) -> float:
        """Normalised seconds of the interval [t0, t1] (after stop)."""
        d = self.durations
        if len(self._speeds) != len(d):
            self._speeds = [statistics.median(d[max(0, i - SMOOTH):i + SMOOTH + 1])
                            for i in range(len(d))]
        k = self._speeds
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        # segments of [t0, t1] cut at the samples that started inside it;
        # the first segment runs at the speed of the last sample before t0
        edges = [t0, *self.starts[lo:hi], t1]
        total = (edges[1] - t0) / k[max(lo - 1, 0)]
        for i, a, b in zip(range(lo, hi), edges[1:], edges[2:]):
            total += (b - a - self.durations[i]) / k[i]
        return total * NOMINAL_KERNEL_S
