"""Machine-speed calibration kernel.

On a shared host the speed of one core drifts by tens of percent over
minutes, so a raw wall time of the same job varies from run to run.
The worker times this fixed kernel next to every repetition of the job
and reports times scaled by REFERENCE_S / (the kernel's measured time),
in reference seconds: by definition the kernel takes REFERENCE_S of them
on any machine at any moment.  The kernel imitates one fdmimo trial loop
without calling fdmimo: a Philox generator per step, small complex
Gaussian draws, two small complex SVD pseudo-inverses, matrix products,
and a Python loop of small elementwise NumPy operations.  A change to the
program therefore never changes the kernel.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Close to the median time of Kernel.run() on the machine the baseline was
#: recorded on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7, NumPy
#: 2.4.6, scipy-openblas 0.3.31, one BLAS thread), so that reference
#: seconds there read about as wall seconds.
REFERENCE_S = 0.1

STEPS = 160
POINTS = 21


class Kernel:
    def __init__(self) -> None:
        self._scales = np.linspace(0.1, 10.0, POINTS)

    def _step(self, index: int) -> float:
        seq = np.random.SeedSequence(20150807, spawn_key=(index,))
        gen = np.random.Generator(np.random.Philox(seq))
        a = gen.standard_normal((10, 64)) + 1j * gen.standard_normal((10, 64))
        b = gen.standard_normal((20, 10)) + 1j * gen.standard_normal((20, 10))
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        f = (vh.conj().T / s) @ u.conj().T
        u, s, vh = np.linalg.svd(b, full_matrices=False)
        w = (vh.conj().T / s) @ u.conj().T
        p = np.abs(a @ f) ** 2
        sig = np.diagonal(p).copy()
        q = np.sum(np.abs(w) ** 2, axis=1)
        total = 0.0
        for scale in self._scales:
            total += float(np.sum(np.log2(1.0 + scale * sig / (scale + q))))
        return total

    def run(self) -> float:
        """One pass of the kernel; returns a checksum so no work is skipped."""
        return sum(self._step(i) for i in range(STEPS))

    def time(self) -> float:
        t0 = perf_counter()
        self.run()
        return perf_counter() - t0
