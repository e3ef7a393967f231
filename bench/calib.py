"""Timing in reference seconds: op times scaled by a calibration kernel.

On a shared 2-core host the interpreter's speed switches between a fast and
a slow regime every few to few hundred milliseconds, so a fixed loop timed
once before and once after an op says little about the op itself.  Here the
kernel also runs *during* the op: a SIGALRM interval timer fires every
``INTERVAL_S`` and the handler times one kernel run.  With the runs just
before and just after the op, these samples give the host's speed while the
op ran; the op's time is scaled by ``REF_KERNEL_S / sample speed``.  Time
spent inside the handler is subtracted from every clock reading, so neither
raw nor reference times include it.
"""

from __future__ import annotations

import signal
import time

# Median time of one `kernel()` run on the reference host in its usual
# (slow-regime) state: Intel Xeon, 2 vCPUs under KVM, CPython 3.11.7.
REF_KERNEL_S = 45.0e-6
INTERVAL_S = 0.002
ADJACENT = 3

_WEIGHTS = (3, -1, 2)


def kernel() -> int:
    """Fixed pure-Python work of the program's kind: small tuples, zips, a dict."""
    acc = 0
    seen = {}
    for i in range(30):
        t = (i % 7, i % 5, i % 3)
        seen[t] = seen.get(t, 0) + 1
        acc += sum(x * w for x, w in zip(t, _WEIGHTS) if x)
    return acc + len(seen)


def speed(samples) -> float:
    """Mean kernel time over the samples.

    The slow samples are kept on purpose: they are stretches the op was
    slowed down too.  Over four processes the summed time of four char ops
    ranged 3% with the mean, 4% with a mean without the slowest tenth and
    17% with the median.
    """
    return sum(samples) / len(samples)


class Clock:
    """Monotonic clock that hides the calibration samples taken inside ops.

    Installs its SIGALRM handler on entry and restores the previous one on
    exit; the interval timer is armed only while `measure` runs an op.
    """

    def __init__(self):
        self.stolen = 0.0
        self.samples = []
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def measure(self, fn, *args):
        """Run ``fn(*args)`` once; return ``(output, raw_s, ref_s)``."""
        self.samples = []
        for _ in range(ADJACENT):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = self.now()
            out = fn(*args)
            t1 = self.now()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        for _ in range(ADJACENT):
            self._sample()
        raw = t1 - t0
        return out, raw, raw * self.factor()

    def factor(self) -> float:
        """Reference seconds per measured second over the last `measure`."""
        return REF_KERNEL_S / speed(self.samples)
