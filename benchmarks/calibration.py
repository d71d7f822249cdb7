"""Machine-speed calibration.

On a shared machine the speed of the same computation can shift by tens of
percent from one minute to the next, which would swamp the differences the
benchmark has to resolve.  Every pass of a run therefore times a fixed
kernel owned by the benchmark -- nothing in ipalm runs in it -- at regular
intervals between its solves, and scales each time it measures by
``REFERENCE_SECONDS / median time of the kernel runs nearest to it``.  The
reported times are thus seconds on a machine where the kernel takes
``REFERENCE_SECONDS``; the raw times go to the results file as well.  A
change to ipalm cannot move the kernel, so comparisons between two versions
of ipalm are unaffected by the scaling.

The kernel mixes what the workloads spend their time on: a Python loop over
3x3 matrix-vector products (the NMF moduli), 64x64 and 32x32 FFT
convolutions (BID and convlasso) and an elementwise log penalty (BID).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the reference machine: 2-core x86-64, numpy 2.4 with
# OpenBLAS 0.3.31
REFERENCE_SECONDS = 0.0125

_rng = np.random.default_rng(0)
_GRAM = _rng.random((3, 3))
_GRAM = _GRAM @ _GRAM.T
_IMAGE = _rng.random((64, 64))
_KERNEL = np.zeros((64, 64))
_KERNEL[:7, :7] = _rng.random((7, 7))
_SMALL = _rng.random((32, 32))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        v = np.full(3, 1.0 / np.sqrt(3.0))
        for _ in range(20):
            w = _GRAM @ v
            v = w / float(np.linalg.norm(w))
        out = np.fft.irfft2(np.fft.rfft2(_IMAGE) * np.fft.rfft2(_KERNEL), s=_IMAGE.shape)
        for _ in range(4):
            back = np.fft.irfft2(np.fft.rfft2(_SMALL), s=_SMALL.shape)
            acc += float(np.vdot(back, _SMALL))
        acc += float(np.log1p(out * out).sum()) + float(v[0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


class SpeedProbe:
    """Samples the kernel at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.times = []  # midpoint of each kernel run
        self.samples = []  # its wall time
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or start - self._last >= self.interval:
            seconds = kernel_seconds()
            self.times.append(start + seconds / 2)
            self.samples.append(seconds)
            self._last = time.perf_counter()

    def factor_at(self, t: float, nearest: int = 4) -> float:
        """Multiplier from raw to reference-machine seconds for a measurement
        made around ``t``, from the kernel runs nearest to it in time."""
        order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
        return REFERENCE_SECONDS / statistics.median(self.samples[i] for i in order[:nearest])
