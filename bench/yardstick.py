"""Host-speed yardstick: a fixed numpy/scipy job that never touches msgt.

On a shared 2-core guest the whole machine runs faster or slower for
minutes at a time. Process CPU time rises with wall time in the slow
phases, so the cause is the host, not scheduling in this process. Run to
run, the median step time of one workload moved by 25-50% between
phases. Workloads timed back to back moved together. The benchmark times
this job right after every step and scales the step to the reference
speed, ``REF_MS / yardstick_ms``. A change to msgt moves the step and not
the yardstick, so it shows in full. A change in host speed moves both,
and cancels.

The job mixes the three kinds of work a step does: BLAS GEMMs on the
pinned thread pool, transcendental ufuncs over a large array, and many
small numpy calls from Python.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import erf

# Median yardstick time on the machine the bounds were set on; a constant,
# so normalized times read as milliseconds at that speed.
REF_MS = 8.0


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.gemm = rng.standard_normal((384, 384)).astype(np.float32)
        self.wide = rng.standard_normal(1 << 17).astype(np.float32)
        self.small = [rng.standard_normal((16, 16)).astype(np.float32) for _ in range(8)]
        self()  # first touch of the buffers and the BLAS threads

    def __call__(self) -> float:
        """Run the job once; returns its wall time in ms."""
        t0 = time.perf_counter()
        for _ in range(4):
            self.gemm @ self.gemm
        erf(self.wide)
        np.exp(self.wide)
        acc = self.small[0]
        for _ in range(150):
            for s in self.small:
                acc = acc + s
        return (time.perf_counter() - t0) * 1e3
