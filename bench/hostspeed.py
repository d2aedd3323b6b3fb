"""Host speed, from a fixed kernel that shares no code with pipefollow.

On a shared 2-core host the same pipefollow work ran anywhere from 0.7x to
1.8x its usual time for tens of seconds at a stretch, so raw run medians
spread by 20-30% between seeds.  A kernel with the workloads' mix (numpy
array arithmetic, an 8-connected scipy label, a Python loop), timed every
quarter second during a run, slows down with them: the ratio of a mission's
time to the kernel's stayed within 3% while raw times moved by 20%.  Timings
are reported scaled to a host on which the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

NOMINAL_S = 0.010       # the kernel's typical time on a 2-core Xeon
INTERVAL_S = 0.25       # least time between two kernel samples in a run


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random((240, 320))
        self._mask = rng.random((240, 320)) < 0.3
        self.samples = []
        self._last = -float("inf")

    def _kernel(self) -> None:
        for _ in range(4):
            x = np.sqrt(self._values * self._values + 1.0)
            np.minimum(x, self._values, out=x)
            np.where(x > 0.5, 1, 0).astype(np.int64)
            labels, _ = ndimage.label(self._mask, structure=np.ones((3, 3), dtype=int))
            np.bincount(labels.ravel())
            total = 0
            for i in range(5000):
                total += i * i

    def sample(self) -> None:
        """Time the kernel if INTERVAL_S has passed since the last sample."""
        start = time.perf_counter()
        if start - self._last < INTERVAL_S:
            return
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def slowdown(self) -> float:
        """How much slower than nominal the host ran: the median kernel time over NOMINAL_S."""
        return statistics.median(self.samples) / NOMINAL_S
