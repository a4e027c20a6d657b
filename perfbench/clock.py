"""A CPU clock corrected for the host's momentary speed.

On a shared virtual machine the same single-threaded work takes up to
twice as much CPU time in one minute as in the next, because the host's
load changes the speed of the CPU under the process. A run-level
median cannot remove that: a whole run can fall into a slow minute.

``CalibratedClock`` samples the speed instead. Every ``PERIOD_S`` of wall
time a SIGALRM handler runs ``reference_slice``, a fixed piece of pure-Python
arithmetic that does not touch metriclie, and times it. The clock then
counts each stretch of process CPU time between two samples at the
speed those samples saw:

    calibrated seconds = CPU seconds * REF_SLICE_S / slice CPU seconds

where the slice time is the median of the last three samples. A stretch
run at the reference speed (one slice in REF_SLICE_S) counts as its CPU
time, and a stretch run at half that speed counts as half its CPU time.
The samples' own CPU time is excluded from both clocks.

The correction fits warm interpreted code, which is nearly all of the
ops' time. Cold-start work, such as an import, slows much less than the
slice when the host is slow, so run.py corrects the import against a
reference import instead.

The timer is ITIMER_REAL: ITIMER_PROF would arm a process CPU timer, and
with one armed Linux reads CLOCK_PROCESS_CPUTIME_ID only to the tick.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WARMUP_SLICES = 10
# CPU time of one reference_slice at the reference speed: the median slice on the
# 2-vCPU Intel Xeon virtual machine where the baseline was recorded.
REF_SLICE_S = 0.0018


def reference_slice() -> Fraction:
    """Exact rational arithmetic with tuple and dict churn, the mix of
    work the metriclie kernels do."""
    s = Fraction(0)
    d: dict = {}
    for _ in range(4):
        for i in range(1, 120):
            s += Fraction(i % 7 - 3, i % 11 + 1)
            key = (i % 13, i % 5)
            d[key] = d.get(key, ()) + (i,)
    return s


def time_slice() -> float:
    """CPU time of one reference_slice, with the garbage collector held off so
    that the heap of the measured program does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        reference_slice()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class CalibratedClock:
    """Calibrated and raw process CPU time, both without the samples."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        # (calibrated time, raw time, smoothed slice time, sampling time)
        # at the last sample, replaced as one tuple so that a reader the
        # handler interrupts never sees half an update
        self._state = (0.0, 0.0, REF_SLICE_S, 0.0)

    def start(self) -> None:
        # the interpreter specialises a function's bytecode over its
        # first calls; warm the slice up so that the first samples of a
        # fresh process read the host's speed, not that warm-up
        for _ in range(WARMUP_SLICES):
            reference_slice()
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_) -> None:
        t0 = time.process_time()
        self.slices.append(time_slice())
        # one slice reads within about 7% of the next; the median of the
        # last three, which straddle the stretch since the last sample,
        # within about 1.5%
        speed = statistics.median(self.slices[-3:])
        calibrated, last_raw, _, sampling = self._state
        raw = t0 - sampling
        if len(self.slices) > 1:
            calibrated += (raw - last_raw) * REF_SLICE_S / speed
        self._state = (calibrated, raw, speed, sampling + time.process_time() - t0)

    @property
    def sampling_s(self) -> float:
        """CPU time spent in the samples."""
        return self._state[3]

    def raw(self) -> float:
        return time.process_time() - self._state[3]

    def __call__(self) -> float:
        calibrated, last_raw, last_cal, sampling = self._state
        return calibrated + (time.process_time() - sampling - last_raw) * REF_SLICE_S / last_cal
