"""How fast the machine runs at the moment, from a fixed reference kernel.

On a shared machine the same work takes a varying amount of CPU time: the
core's speed shifts between a fast and a slow level for seconds at a time,
as other tenants load the caches and execution units it shares. A 30-s run
can spend most of its time at either level, so the raw times of identical
runs differ by up to 30%. The probe runs a fixed kernel of the same kinds
of work as the program (small numpy ops in an interpreter loop, one BLAS
matmul, a sort and dict updates) between the program's steps, so that it
samples the machine's speed in the same seconds. A time measured over a
span is then given at the reference speed:

    normalised = measured * REFERENCE_S / mean(probe samples around the span)

The probe is not part of the program, so a change to the program moves the
normalised time as it moves the measured one.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

import numpy as np

# the kernel's mean CPU time on a 2-vCPU Intel Xeon KVM guest; normalised
# times read as times at that speed
REFERENCE_S = 0.0037
# samples on each side of a span that give the speed of its seconds
WINDOW = 5


class SpeedProbe:
    """Samples the reference kernel; ``factor`` scales the times between."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((128, 128))
        self._v = rng.random(1 << 16)
        self.samples = []   # CPU time of each kernel run
        self.walls = []     # and its wall-clock time, for callers to exclude

    def _kernel(self):
        a = self._a[:48, :48]
        x = a
        for _ in range(100):
            x = np.tanh(x @ a * 0.01) + x.mean(axis=0)
        y = self._a @ self._a
        z = np.sort(self._v)
        d = {}
        for i in range(3000):
            d[i % 97] = d.get(i % 97, 0) + i
        return float(x.sum() + y[0, 0] + z[0] + d[0])

    def sample(self):
        # touch the data first: the timed run should not pay for the cache
        # misses that the program's last step left behind
        self._a.sum() + self._v.sum()
        wall, start = perf_counter(), process_time()
        self._kernel()
        self.samples.append(process_time() - start)
        self.walls.append(perf_counter() - wall)

    def factor(self, lo, hi):
        """For a time measured from when ``lo`` samples had been taken to
        when ``hi`` had: multiply it by this to get it at the reference
        speed. The speed is the mean of the samples inside that time and
        ``WINDOW`` on each side of it."""
        return REFERENCE_S / statistics.fmean(self.samples[max(0, lo - WINDOW):hi + WINDOW])
