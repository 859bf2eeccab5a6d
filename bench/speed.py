"""A fixed piece of reference work, timed between the benchmark's steps.

The speed of the vCPUs this benchmark runs on can change by a factor of
two within a minute, with process CPU time moving in step with wall time,
so neither timer alone gives repeatable numbers. The probe runs the same
work every time, so its duration tracks the machine's speed at that moment.
A step's wall time is scaled by ``REFERENCE_S / probe``, where ``probe`` is
the mean of the probes taken just before and just after it. The result
reads as the step's time on a machine where the probe takes
``REFERENCE_S``.

The work mixes per-point Python with small numpy calls and one BLAS
product, the same mix as the package's own hot paths. It uses no code
from the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The probe's duration on an idle 2-vCPU x86-64 sandbox (Python 3.11,
# numpy 2.4, OpenBLAS, one thread). It only sets the scale of the reported
# numbers, so it stays fixed.
REFERENCE_S = 0.010
REPEATS = 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._freqs = rng.integers(0, 6, (120, 2)).astype(float)
        self._points = rng.uniform(-1.0, 1.0, (400, 2))
        self._matrix = rng.standard_normal((400, 800))
        self.samples = []
        self.last = self.measure()

    def _work(self) -> float:
        acc = 0.0
        for x in self._points:
            acc += float(np.prod(np.cos(self._freqs * x), axis=1).sum())
        return acc + float((self._matrix @ self._matrix.T)[0, 0])

    def measure(self) -> float:
        """Median duration of REPEATS runs of the reference work."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        self.last = statistics.median(times)
        self.samples.append(self.last)
        return self.last

    def scale(self, wall: float) -> float:
        """Scale the wall time of the step that just ended; probes again."""
        before = self.last
        after = self.measure()
        return wall * REFERENCE_S / ((before + after) / 2.0)
