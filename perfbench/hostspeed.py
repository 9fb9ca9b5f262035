"""Host speed probe: puts the timed passes on a fixed scale of host speed.

On a shared host a vCPU can run the same code up to twice as slowly for
seconds or minutes at a time (CPU time follows wall time, so it is not
steal; a busy sibling hyperthread or a lower clock would do it).  A probe
that runs fixed kernels at short, regular intervals during a pass sees the
same slowdown.  ``SpeedProbe`` runs two kernels from a SIGALRM handler every
``PROBE_INTERVAL_S`` seconds of wall time and records how long each took:
``py_kernel`` is interpreter work (dict, int and str operations, as in the
descent and the exact group law), ``np_kernel`` a numpy gather-and-sum over
a 32k array (as in the point counting).  The two slow down by different
amounts, so each workload states the share of its time that behaves like
the interpreter kernel (``interpreter_share``), and a sample's slowdown is

    s_i = w * py_i / REF_PY_S + (1 - w) * np_i / REF_NP_S.

A pass of wall time ``W``, of which the probes took ``P``, did the work of
``(W - P) * mean(1 / s_i)`` seconds at the reference speed: each sample
stands for an equal slice of wall time, and ``1 / s_i`` is the host's speed
in that slice.  ``REF_PY_S`` and ``REF_NP_S`` are constants (the kernels'
times on a 2-vCPU Intel Xeon VM), so the scale is the same in every run and
for every version of the program: a faster program gives a smaller adjusted
time, a slower host does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
REF_PY_S = 0.40e-3  # py_kernel() on a 2-vCPU Intel Xeon VM
REF_NP_S = 0.45e-3  # np_kernel() on the same VM

_X = np.arange(32768, dtype=np.int64)
_T = np.ones(32771, dtype=np.int8)


def py_kernel() -> int:
    """Fixed interpreter work, independent of the package under test."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(600):
        k = (i * 2654435761) % 1000003
        d[k & 255] = d.get(k & 255, 0) + k
        acc += pow(k, 3, 1000003) + len(str(k))
    return acc


def np_kernel() -> int:
    """Fixed numpy work, independent of the package under test."""
    f = (_X * _X + 7 * _X) % 32771
    return int(_T[f].sum(dtype=np.int64))


def time_kernels() -> tuple[float, float]:
    t0 = time.perf_counter()
    py_kernel()
    t1 = time.perf_counter()
    np_kernel()
    return t1 - t0, time.perf_counter() - t1


def speed(samples: list[tuple[float, float]], interpreter_share: float) -> float:
    """Mean host speed relative to the reference over equal wall-time slices."""
    w = interpreter_share
    return statistics.fmean(1.0 / (w * py / REF_PY_S + (1 - w) * npt / REF_NP_S) for py, npt in samples)


class SpeedProbe:
    """Context manager: samples both kernels every ``interval`` seconds while
    open.  ``samples`` holds (py, np) kernel times, ``spent`` the wall time
    the handler took in all, which ``adjust`` takes out again.
    """

    def __init__(self, interpreter_share: float, interval: float = PROBE_INTERVAL_S):
        self.interpreter_share = interpreter_share
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_kernels())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, wall_s: float) -> float:
        """``wall_s`` (which includes the probes) at the reference host speed."""
        if not self.samples:
            raise RuntimeError("no speed samples: the pass was shorter than the probe interval")
        return (wall_s - self.spent) * speed(self.samples, self.interpreter_share)
