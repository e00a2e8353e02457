"""Machine-speed reference: fixed kernels timed between the measured calls.

The benchmark shares a few virtual CPUs with other tenants.  They slow the
whole machine by up to about 60% for tens of seconds at a time, longer than
one run, so no statistic taken inside a run removes it.  The kernels below
slow with them, and they are independent of superq.  ``SpeedProbe`` times
them between calls.  A call's latency times its speed (nominal kernel time
over measured kernel time, taken as the mean of the samples just before and
just after the call) is what the call would have taken with the machine at
its usual speed.  A change to superq moves the call and leaves the kernels
alone.

There are two kernels, because a slow phase slows Python code and dense
linear algebra by different amounts.  The Python kernel does what superq's
Python layers do most: builds small dataclass instances, makes and reduces
dim-64 complex numpy arrays, and formats floats.  The LAPACK kernel
diagonalises a dim-96 Hermitian matrix, as superq's dense oracles do.  A
workload weighs the two by its ``lapack_share``.  The garbage collector is
off while they run, so objects superq leaves behind do not change their time.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# The kernels' usual times on the 2-vCPU Xeon virtual machine the bounds were
# set on.  They only set the scale of the reported figures.
NOMINAL_PYTHON_S = 2.0e-3
NOMINAL_LAPACK_S = 1.4e-3
# A sample is the median of this many runs of each kernel, so a millisecond
# burst in one run does not set it.
RUNS_PER_SAMPLE = 3
# Calls shorter than this share a sample, which keeps the probe's own cost to
# a few percent of the run.
SAMPLE_EVERY_S = 0.5

_VECTOR = np.exp(1j * np.arange(64))
_MATRIX = np.exp(1j * np.outer(np.arange(96.0), np.arange(96.0)) / 7.0)
_MATRIX = _MATRIX + _MATRIX.conj().T


@dataclass
class _Point:
    theta: float
    zeta: complex


def _python_kernel() -> str:
    rows = []
    for i in range(400):
        point = _Point(0.5 * i, complex(i, 1.0))
        vector = np.array(_VECTOR * point.zeta)
        norm = float(np.vdot(vector, vector).real)
        rows.append(f"{point.theta!r},{norm!r},{math.sqrt(norm)!r}")
    return ",".join(rows)


def _lapack_kernel() -> None:
    np.linalg.eigh(_MATRIX)


def _seconds(kernel) -> float:
    """Median wall time of RUNS_PER_SAMPLE runs of ``kernel``, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(RUNS_PER_SAMPLE):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Speed samples taken between calls, and the speed over any interval.

    ``lapack_share`` is the weight of the LAPACK kernel: the speed is nominal
    over measured time of a kernel made of that share of LAPACK work and the
    rest of Python work.
    """

    def __init__(self, lapack_share: float):
        self.lapack_share = lapack_share
        self.times: list[float] = []
        self.python_speeds: list[float] = []
        self.lapack_speeds: list[float] = []

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than SAMPLE_EVERY_S old."""
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        self.python_speeds.append(NOMINAL_PYTHON_S / _seconds(_python_kernel))
        self.lapack_speeds.append(NOMINAL_LAPACK_S / _seconds(_lapack_kernel))
        self.times.append(time.perf_counter())

    def speeds(self, started: float, ended: float) -> tuple[float, float]:
        """(Python, LAPACK) speed: the mean of the last sample taken before
        ``started`` and the first taken after ``ended``."""
        before = max(bisect.bisect_right(self.times, started) - 1, 0)
        after = min(bisect.bisect_left(self.times, ended), len(self.times) - 1)
        return (
            0.5 * (self.python_speeds[before] + self.python_speeds[after]),
            0.5 * (self.lapack_speeds[before] + self.lapack_speeds[after]),
        )

    def speed(self, started: float, ended: float) -> float:
        python_speed, lapack_speed = self.speeds(started, ended)
        return 1.0 / ((1.0 - self.lapack_share) / python_speed + self.lapack_share / lapack_speed)
