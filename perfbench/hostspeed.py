"""Host-speed probe: scales wall times to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, which a median inside one run cannot cancel.  A fixed piece
of benchmark-owned work, the probe, is timed between jobs and between the
CLI invocations of a job.  The wall time of each timed part is multiplied
by ``REFERENCE_PROBE_S / probe``, with ``probe`` the mean of the probes
taken just before and just after it, so the reported time is the part's
time at the speed where the probe takes ``REFERENCE_PROBE_S``.  The probe calls no knotfield code, so a change to
knotfield moves the job times and never the probe.

The probe mixes the kinds of work knotfield's jobs are made of:
interpreted Python arithmetic, numpy elementwise arithmetic and cross
products on a cache-sized chunk, passes over an array larger than a core's
L2 cache as the kernel's temporaries are, and float-to-text formatting as
the writers do it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# Typical probe time on the reference host (2-vCPU Intel Xeon KVM guest,
# Python 3.11, numpy 2.4).  Reported times are in seconds at that speed.
REFERENCE_PROBE_S = 0.018

# Repeats per probe (its median is kept), the least spacing of probes
# between jobs, and between the CLI invocations a job is made of.
PROBE_REPEATS = 5
PROBE_EVERY_S = 1.0
PROBE_EVERY_INVOCATION_S = 0.2

_CHUNK = np.linspace(1.0, 2.0, 16384)
# Updated in place, so the probe adds this buffer and nothing else to the
# run's resident memory.
_LARGE = np.ones(1 << 19)     # 4 MiB, more than one core's share of L2


def probe_once() -> float:
    """Wall time of one fixed unit of mixed work.

    The garbage collector is paused, so that the probe never pays for
    scanning the heap the jobs left behind.
    """
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 12000):
        acc += (i * 0.5) ** 0.5 / i
    a = _CHUNK
    for _ in range(8):
        b = np.sqrt(a * a + 1.0)
        c = np.cross(np.stack([a, b, a], axis=1), np.stack([b, a, 1.0 / b], axis=1))
        a = 1.0 + 1.0 / (1.0 + np.sqrt((c * c).sum(axis=1)) + acc * 1e-9)
    for _ in range(12):
        np.multiply(_LARGE, 0.5, out=_LARGE)
        np.add(_LARGE, 1.0, out=_LARGE)
    text = "\n".join(f"{repr(float(x))},{repr(float(y))}" for x, y in zip(a[:2500], b[:2500]))
    if not text:
        raise AssertionError("probe produced no text")
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times taken during a run, and the scaling they give each job."""

    def __init__(self):
        self.times: list[float] = []      # when each probe ended
        self.probes: list[float] = []     # its median wall time

    def probe(self) -> None:
        self.probes.append(statistics.median(probe_once() for _ in range(PROBE_REPEATS)))
        self.times.append(time.perf_counter())

    def maybe_probe(self, every: float = PROBE_EVERY_S) -> None:
        """Probe unless one was taken in the last ``every`` seconds."""
        if not self.times or time.perf_counter() - self.times[-1] >= every:
            self.probe()

    def local_probe(self, start: float, end: float) -> float:
        """Mean of the last probe before ``start`` and the first after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.probes[i] for i in (before, after) if 0 <= i < len(self.probes)]
        return statistics.mean(near)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured in [start, end], at the reference speed."""
        return seconds * REFERENCE_PROBE_S / self.local_probe(start, end)

    def median_probe(self) -> float:
        return statistics.median(self.probes)
