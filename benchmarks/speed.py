"""CPU-speed sampler: rescales measured times to a fixed reference speed.

On a few vCPUs of a shared host the speed of one vCPU drifts by tens of
percent within seconds and between minutes, and the vCPUs drift
independently. A calibration kernel run beside the workload on another CPU,
or before and after it, therefore does not see the speed the workload ran
at. ``SpeedSampler`` runs calibration kernels *inside* the measured process,
from a ``SIGALRM`` interval timer every ``INTERVAL_S`` of wall time, so every
sample is taken on the CPU and in the moment of the work around it.

The kernels take turns. Each stands for one kind of work rovella does: an
interpreted loop, a ufunc pass over a 32 K-element array (cache-resident), a
chain of ufunc calls on a 64-element array (call overhead, as in the
pullback bisections) and a ufunc pass over a 4 MB array (memory traffic, as
in the ensemble stepping). Kernels of one kind alone follow the speed of
workloads of that kind best and of the others worst; the four together keep
the per-pass spread of every workload low.

Kernel ``k`` takes ``NOMINAL_S[k]`` at the reference speed. A span of
``wall`` seconds that contains calibration samples (their own time included
in ``wall``) did the work of

    (wall - sum of sample times) * mean over k of mean(NOMINAL_S[k] / r_k,i)

seconds at the reference speed. The samples are spread uniformly in time (up
to Python deferring a handler until a long C call returns), so each mean is
the time average of that kernel's speed ratio over the span. The kernels
touch nothing of rovella, so a change to rovella moves the rescaled time as
it moves the raw one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# The numpy kernels write into preallocated buffers: an allocation at a
# random moment of the workload would move its heap layout and peak RSS.
_VECTOR = np.linspace(0.0, 1.0, 32_768)
_VECTOR_OUT = np.empty_like(_VECTOR)
_SMALL = np.linspace(0.0, 1.0, 64)
_SMALL_OUT = np.empty_like(_SMALL)
_LARGE = np.linspace(0.0, 1.0, 1 << 19)
_LARGE_OUT = np.empty_like(_LARGE)


def _interpreted() -> None:
    total = 0
    for i in range(5_000):
        total += i * i


def _vector() -> None:
    np.sin(_VECTOR, out=_VECTOR_OUT).sum()
    np.sqrt(_VECTOR, out=_VECTOR_OUT).sum()


def _small_calls() -> None:
    np.copyto(_SMALL_OUT, _SMALL)
    for _ in range(175):
        np.multiply(_SMALL_OUT, 0.5, out=_SMALL_OUT)
        np.add(_SMALL_OUT, 0.1, out=_SMALL_OUT)


def _memory() -> None:
    np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)


KERNELS = (_interpreted, _vector, _small_calls, _memory)
# Median time of each kernel at the reference speed: a 2-vCPU Intel Xeon VM
# with CPython 3.11 and numpy 2.4, over a few seconds.
NOMINAL_S = (4.2e-4, 4.2e-4, 4.2e-4, 6.0e-4)


class SpeedSampler:
    """Calibration samples ``(kernel, seconds)`` taken from a SIGALRM timer.

    Sample ``n`` runs kernel ``n % len(KERNELS)``. The durations go to a
    preallocated array, so that taking a sample allocates nothing on the
    heap: a list growing at random moments of the workload moved its heap
    layout and its peak RSS by several MB from run to run.
    """

    CAPACITY = 1 << 16  # 11 minutes of samples; a benchmark run ends within 3

    def __init__(self) -> None:
        self._seconds = np.zeros(self.CAPACITY)
        self.count = 0
        self._previous = None
        for kernel in KERNELS:
            kernel()  # first calls allocate; keep them out of the samples

    def sample(self, *_signal_args) -> None:
        n = self.count
        if n == self.CAPACITY:
            return  # a span without samples fails in speed_ratio
        start = time.perf_counter()
        KERNELS[n % len(KERNELS)]()
        self._seconds[n] = time.perf_counter() - start
        self.count = n + 1

    def start(self) -> int:
        """Start sampling, with one sample at once; returns the start mark."""
        mark = self.count
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return mark

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, mark: int) -> list[tuple[int, float]]:
        """The samples taken since ``mark``."""
        return [(n % len(KERNELS), float(self._seconds[n])) for n in range(mark, self.count)]

    @property
    def samples(self) -> list[tuple[int, float]]:
        return self.window(0)


def speed_ratio(samples: list[tuple[int, float]]) -> float:
    """Mean speed over the samples, relative to the reference speed."""
    ratios = []
    for k, nominal in enumerate(NOMINAL_S):
        own = [nominal / seconds for kernel, seconds in samples if kernel == k]
        if own:
            ratios.append(sum(own) / len(own))
    if not ratios:
        raise ValueError("no calibration samples in the span")
    return sum(ratios) / len(ratios)


def reference_seconds(wall: float, samples: list[tuple[int, float]]) -> float:
    """``wall`` seconds that contain ``samples``, as seconds of work at the
    reference speed (see the module docstring)."""
    return (wall - sum(seconds for _, seconds in samples)) * speed_ratio(samples)
