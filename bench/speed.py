"""Wall time rescaled to a fixed reference speed.

The benchmark shares its machine with other tenants, and the speed one CPU
gives a single thread changes by up to 1.7 times from one second to the
next and stays changed for seconds to minutes.  Raw wall and CPU times of
the same command therefore spread by a third across runs.  child.py times a
fixed kernel every 0.1 s in the command's own process, and the launcher
pins every child to one CPU, so the kernel sees the speed the command gets.
Each stretch of wall time between two samples is scaled by
REFERENCE_KERNEL_S over the kernel time measured at its start.  The result
is the time the command would have taken on a CPU on which the kernel takes
REFERENCE_KERNEL_S, about the uncontended speed of the 2-CPU x86-64 machine
the baseline was measured on.
"""

from __future__ import annotations

from bisect import bisect_right

#: Seconds the reference kernel takes at the speed results are scaled to.
REFERENCE_KERNEL_S = 1.25e-3


class Speed:
    """Scaled time between two instants of one child's run, from its kernel
    samples [(start, seconds), ...].  Before the first sample the first
    sample's speed holds; with no samples, times are not scaled."""

    def __init__(self, samples: list) -> None:
        self.times = [start for start, _ in samples]
        self.factors = [REFERENCE_KERNEL_S / seconds for _, seconds in samples]
        self.scaled_at = [0.0]
        for i in range(1, len(samples)):
            step = (self.times[i] - self.times[i - 1]) * self.factors[i - 1]
            self.scaled_at.append(self.scaled_at[-1] + step)

    def _clock(self, t: float) -> float:
        if not self.times:
            return t
        i = max(bisect_right(self.times, t) - 1, 0)
        return self.scaled_at[i] + (t - self.times[i]) * self.factors[i]

    def scaled(self, start: float, end: float) -> float:
        return self._clock(end) - self._clock(start)
