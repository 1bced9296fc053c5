"""Speed calibration against a fixed reference loop.

The vCPUs of the 2-vCPU virtual machine this benchmark was built on
change speed by up to a factor of two within seconds (see README.md),
so raw times of two runs are not comparable.  A timed call is therefore accompanied by
samples of a fixed reference loop: two just before it, one every
``INTERVAL`` seconds while it runs (from a SIGALRM handler, whose time
is taken out of the call's time), and two just after.  The call's time
is scaled by ``C0 / C``, with C the mean sample: the time the call would
have taken on a vCPU that runs the reference loop in ``C0`` seconds.
Sampling during the call matters: over six sets of 100-200 repeats of
one 50-200 ms invocation, loops before the call left 11-18 % variation
(coefficient of variation), before and after 8-13 %, and before, during
and after 5-9 % (raw: 13-24 %).
"""

from __future__ import annotations

import signal
import statistics
import time

#: Reference loop time, in seconds, that calibrated values are scaled to:
#: the loop's median over many processes on the 2-vCPU virtual machine
#: the benchmark was calibrated on.
C0 = 0.00042

#: Seconds between reference samples while a call runs.
INTERVAL = 0.01


def reference_loop():
    """Dict and int work shaped like persmod's column additions."""
    col = {}
    acc = 0
    for i in range(2000):
        k = (i * 7919) % 1009
        v = (col.get(k, 0) + i) % 65521
        if v & 1:
            col[k] = v
        else:
            col.pop(k, None)
        acc += v
    return acc


def reference_seconds(samples=2):
    """Mean wall time of ``samples`` reference loops."""
    start = time.perf_counter()
    for _ in range(samples):
        reference_loop()
    return (time.perf_counter() - start) / samples


def calibrated(raw_seconds, reference):
    """Raw seconds scaled to the reference speed ``C0``."""
    return raw_seconds * C0 / reference


class Sampler:
    """Times one call at a time with reference samples around and inside it.

    ``on_sample(start, end)``, if given, is told of every sample taken
    during a call, so a tracer can keep it out of self times.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self._during = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self._during.append((start, end))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def time(self, call):
        """(result of call(), raw seconds, calibrated seconds)."""
        before = reference_seconds()
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        during = [e - s for s, e in self._during]
        # a sample can fire between the end of the call and the timer stop
        inside = sum(min(e, end) - s for s, e in self._during if s < end)
        after = reference_seconds()
        raw = end - start - inside
        reference = statistics.mean([before, before, *during, after, after])
        return result, raw, calibrated(raw, reference)
