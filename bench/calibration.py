"""A fixed piece of work that measures how fast the machine runs right now.

On a shared virtual machine the same operation can take 20-30 % longer in
one minute than in the next, because other guests contend for the host.
Even two processes started a second apart can run at speeds a factor of
two apart, depending on the virtual CPU each lands on. Sampling this kernel
right before and right after each timed operation measures that speed, and
scaling the operation's time by it removes most of the drift from one run to
the next.
The kernel has the benchmark's instruction mix: a small-matmul recurrence
like an LSTM time loop, a scalar loop over small numpy arrays like the RK4
step, and repeated allocation of a 40 000-element array like the trajectory
export. It uses no ``fatiguemotion`` code, so a
change to the program never changes it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# CPU time of one kernel call on the machine the baseline was recorded on
# (bench/README.md); calibrated times read as times on that machine.
REFERENCE_S = 0.015


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((128, 32))
        self._x = rng.standard_normal((100, 32, 128))
        self._a = np.arange(40000.0)
        self.samples = []

    def _kernel(self) -> None:
        h = np.zeros((32, 32))
        for x in self._x:
            g = 1.0 / (1.0 + np.exp(-(x + h @ self._w.T)))
            h = g[:, :32] * np.tanh(g[:, 32:64])
        s = np.array([0.0, 0.0, 100.0])
        for _ in range(2000):
            s = s + 0.001 * np.array([1.0 - s[0], s[0] - s[1], s[1] - s[2]])
        for _ in range(200):
            100.0 - self._a

    def sample(self) -> float:
        """Times the kernel once and returns its CPU time in seconds."""
        start = time.process_time()
        self._kernel()
        self.samples.append(time.process_time() - start)
        return self.samples[-1]

    @staticmethod
    def factor(*kernel_s: float) -> float:
        """Turns a time measured between these kernel samples into the time at reference speed."""
        return REFERENCE_S * len(kernel_s) / sum(kernel_s)

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
