"""The main thread's CPU time rescaled to a reference machine speed.

On a shared host the speed of one virtual CPU swings by up to 2x within
seconds, independently of the other CPUs, and the CPU is also taken away
for stretches, so a raw wall time measures the neighbours as much as
revlab.  A SpeedMeter pins its process to one CPU and runs a fixed
interpreter loop (about half a millisecond) every PERIOD_S seconds on a
daemon thread of that process.  The main thread's CPU time leaves out the
stretches it did not run; each stretch of it between two calibration
samples is then scaled by REFERENCE_S over the local calibration time
(median of the nearest samples, each timed in the calibration thread's own
CPU time), and the calibration samples themselves are left out.  The
resulting clock reads the time the same single-threaded work takes when the
loop runs in REFERENCE_S: seconds on a steady, unshared machine.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

CALIBRATION_ITERS = 2000
# The loop's time in the fastest phases of a shared 2-vCPU Intel Xeon
# 2.0 GHz VM with CPython 3.11; slow phases take up to twice as long.
REFERENCE_S = 0.00055
PERIOD_S = 0.02
# A sample's speed is the median over itself and this many neighbours on
# each side (about 0.2 s either way).
SMOOTH = 4
# Untimed loops first, so the interpreter has specialised the loop's code.
WARMUP = 3


_TABLE: dict = {}


def calibration_loop(n: int = CALIBRATION_ITERS) -> int:
    """Fixed interpreter work: tuple building, hashing, dict reads and writes.

    The table persists between calls, so that once warm a call allocates no
    new memory and page faults of a fresh process do not read as slowness.
    """
    table = _TABLE
    acc = 0
    for i in range(n):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key)
    return acc


def reference_clock(samples, reference: float = REFERENCE_S,
                    smooth: int = SMOOTH):
    """A map from main-thread CPU time to reference-speed seconds.

    samples are (start, end, duration) triples of calibration loops in time
    order: the main thread's CPU time before and after the loop, and the
    loop's own CPU time.  The map is piecewise linear and non-decreasing.
    The gap before each sample runs at that sample's smoothed speed, the
    time after the last sample at the last one's; it stands still inside a
    sample, which is not program time.
    """
    durs = [dur for _, _, dur in samples]
    rate = [
        reference / statistics.median(durs[max(0, i - smooth) : i + smooth + 1])
        for i in range(len(durs))
    ]
    starts = [start for start, _, _ in samples]
    at_start = [0.0]  # clock reading at each sample's start
    for i in range(1, len(samples)):
        at_start.append(at_start[-1] + (starts[i] - samples[i - 1][1]) * rate[i])

    def clock(t: float) -> float:
        i = bisect.bisect_right(starts, t)
        if i == 0:
            return (t - starts[0]) * rate[0]
        end = samples[i - 1][1]
        if t <= end:
            return at_start[i - 1]
        return at_start[i - 1] + (t - end) * rate[min(i, len(rate) - 1)]

    return clock


class SpeedMeter:
    """Samples the CPU speed while the main thread works.

    Read the main thread's CPU time with time.thread_time() and turn it
    into reference-speed seconds with clock().
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._main = time.pthread_getcpuclockid(threading.get_ident())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        start = time.clock_gettime(self._main)
        began = time.thread_time()
        calibration_loop()
        duration = time.thread_time() - began
        self.samples.append((start, time.clock_gettime(self._main), duration))

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def start(self) -> "SpeedMeter":
        """Start sampling; call from the main thread."""
        # Both threads must run on the CPU being measured.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for _ in range(WARMUP):
            calibration_loop()
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def clock(self):
        """The reference clock of the samples taken so far."""
        return reference_clock(self.samples)
