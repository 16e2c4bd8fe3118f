"""Contention correction: how fast the host ran the worker, moment by moment.

The benchmark's host is a few cores of a shared machine. Other tenants slow
it by up to a factor of two, in phases from a fraction of a second to many
minutes, and CPU time slows with wall time, so neither clock is steady. A
`Probe` measures the slowdown where it happens: a timer signal every
PERIOD_S runs a small fixed pure-Python job (dict, tuple and list work, like
the library's) inside the worker, between the library's own bytecodes, and
records how long the job took. It runs the job twice and times the second
run, so that the library's data in the CPU caches does not slow it.

`Probe.corrected(a, b, t)` turns a time `t` measured over the span [a, b]
into the time it would have taken at the probe's reference speed: the
handler time inside the span is taken out, and the rest is scaled by
REFERENCE_S over the mean probe time near the span (at least WINDOW
samples). A sample over CLIP times the window's median counts as CLIP times
the median: such a job was stopped for a while (an interrupt, a preempted
vCPU), which delays the library by the same time and not by a factor. A
change to the library moves its own times and not the probe's, so it still
shows in full.

This module is imported before numpy and latticelab, so that set-up is
sampled too; it uses the standard library only.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
WINDOW = 9
CLIP = 3.0  # contention slows the job by up to about 2.2 times; stops are longer
# the job's uncontended time on the reference host (2-vCPU Xeon VM, Python
# 3.11): about the fastest of 10^4 samples; it sets the scale, not the shape
REFERENCE_S = 23e-6

_KEYS = tuple(range(64))


def job() -> int:
    d = {}
    for i in range(40):
        d[(_KEYS[i], i)] = [k for k in _KEYS[:8]]
    return len(d)


class Probe:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []  # when each timed job began
        self.job_s: list[float] = []  # how long it took
        self.handler_s: list[float] = []  # the whole handler, both jobs

    def _sample(self, *_) -> None:
        h0 = self.clock()
        job()
        t0 = self.clock()
        job()
        t1 = self.clock()
        self.starts.append(t0)
        self.job_s.append(t1 - t0)
        self.handler_s.append(self.clock() - h0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, a: float, b: float, t: float) -> float:
        """`t`, measured over [a, b], at the reference speed."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        inside = sum(self.handler_s[lo:hi])
        n = len(self.starts)
        if n == 0:
            raise ValueError("the probe took no samples")
        while hi - lo < min(WINDOW, n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        window = sorted(self.job_s[lo:hi])
        cap = CLIP * window[len(window) // 2]
        mean = sum(min(s, cap) for s in window) / len(window)
        return (t - inside) * REFERENCE_S / mean
