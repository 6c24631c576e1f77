"""Calibrated time: measured wall time scaled to a reference machine speed.

Small cloud machines share their cores with other tenants, and their speed
can drift by well over a factor of 1.5 within minutes (measured on a 2-core
x86-64 VM with Python 3.11).  So the benchmark times a fixed calibration
kernel between ops, a pure-Python loop plus in-place numpy arithmetic on a
cache-sized array, and reports each op time as

    measured seconds * REFERENCE_S / (median of the kernel samples nearest it)

that is, in seconds at the speed where the kernel takes REFERENCE_S, roughly
its time on that VM when idle.  The kernel never touches mharq and
allocates nothing, so no change to the program can move it.  Measured
seconds are kept in the result file next to the calibrated ones.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 1.4e-3


class Calibrator:
    """Times the fixed kernel; samples collect until taken."""

    def __init__(self) -> None:
        import numpy as np  # not at import time: setup probes time numpy's import

        self._np = np
        self._a = np.arange(32768, dtype=np.float64)
        self._b = np.empty_like(self._a)
        self.samples: list[float] = []

    def sample(self) -> float:
        np, a, b = self._np, self._a, self._b
        t0 = perf_counter()
        x = 0.0
        slots = {}
        for j in range(6000):
            x += j * 0.5
            slots[j & 63] = x
        for _ in range(16):
            np.multiply(a, 1.0001, out=b)
            np.sqrt(b, out=b)
            b.sum()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples
