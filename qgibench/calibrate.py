"""Calibration kernels that track the machine's current speed.

On a shared machine the CPU speed of one process drifts by a quarter or
more over tens of seconds, and wall-clock timings of the workloads drift
with it.  Each workload therefore has a kernel of fixed work, independent
of ``qgi``, built from the same kinds of work that dominate the workload:
Python loops that tabulate a register map, iterate-and-FFT on small
vectors, index arithmetic and scatters over large vectors, and symmetric
eigenvalues.  The run times the kernel between ops; ``factor`` is the
kernel's time over its nominal time, and timings divided by the factor are
timings at the nominal machine speed.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240811)


def _table(bits: int) -> np.ndarray:
    """Tabulate a two-register XOR map in Python, as a dense oracle does."""
    half = bits // 2
    mask = (1 << half) - 1
    table = np.empty(1 << bits, dtype=np.int64)
    for local in range(1 << bits):
        values = []
        shift = 0
        for width in (half, bits - half):
            values.append((local >> shift) & ((1 << width) - 1))
            shift += width
        u, v = values
        table[local] = u | ((u ^ v) & mask) << half
    return table


class _Iterate:
    """Reflection iterate applied row by row, then an FFT over the rows."""

    def __init__(self, dim: int, steps: int):
        axis = _RNG.normal(size=dim) + 1j * _RNG.normal(size=dim)
        self.axis = axis / np.linalg.norm(axis)
        self.signs = np.where(_RNG.random(dim) < 0.1, -1.0, 1.0)
        self.steps = steps

    def __call__(self):
        rows = np.empty((self.steps, self.axis.size), dtype=np.complex128)
        v = self.axis
        for z in range(self.steps):
            rows[z] = v
            flipped = v * self.signs
            v = 2.0 * np.vdot(self.axis, flipped) * self.axis - flipped
        return np.sum(np.abs(np.fft.fft(rows, axis=0)) ** 2, axis=1)


class _Gather:
    """Register extraction, table lookup and amplitude scatter on a big vector."""

    def __init__(self, log_dim: int, table_bits: int):
        self.idx = np.arange(1 << log_dim, dtype=np.int64)
        self.amps = _RNG.normal(size=1 << log_dim) + 0j
        self.table = _RNG.permutation(1 << table_bits).astype(np.int64)
        self.mask = (1 << table_bits) - 1

    def __call__(self):
        local = self.idx & self.mask
        new_idx = (self.idx & ~self.mask) | self.table[local]
        out = np.zeros_like(self.amps)
        out[new_idx] = self.amps
        return np.bincount(local, weights=np.abs(out) ** 2)


class _Eig:
    def __init__(self, dim: int):
        m = _RNG.normal(size=(dim, dim))
        self.matrix = m + m.T

    def __call__(self):
        return np.linalg.eigvalsh(self.matrix)


def _kernel(*parts):
    def run():
        for part in parts:
            part()
    return run


# name -> (kernel, nominal seconds).  Nominal times are typical times of the
# kernels run between the workload's ops on a 2-core x86-64 machine (Python
# 3.11, numpy 2.4, one BLAS thread); they only set the scale of the
# calibrated numbers.
KERNELS = {
    "sweep-4x4": (lambda: _kernel(lambda: _table(8), _Iterate(4096, 64)), 6.7e-3),
    "ladder-dense": (lambda: _kernel(lambda: _table(12), _Gather(18, 12)), 8.6e-3),
    "adversary-analyze": (lambda: _kernel(lambda: _table(10), _Iterate(16384, 16),
                                          _Gather(16, 10), _Eig(128)), 7.7e-3),
}


class Calibrator:
    """Times one workload's kernel; ``factor`` is measured over nominal time."""

    def __init__(self, workload: str):
        make, self.nominal = KERNELS[workload]
        self.kernel = make()
        self.kernel()  # first touch of the kernel's arrays

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def factor(self, samples) -> float:
        return float(np.mean(samples)) / self.nominal
