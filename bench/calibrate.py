"""Machine-speed calibration for the end-to-end times.

On a shared host the same pass can run 1.7 times slower for minutes at a
time (another tenant contending for the core), which is far wider than any
regression bound, and the speed also wanders by about 10% from one second
to the next.  ``measure()`` times a fixed pure-Python kernel of the same
kind of work as the program (fraction-free big-integer elimination and
``Fraction`` sums).  ``SpeedClock`` runs it about once a second, also in
the middle of a long job, and rescales each stretch of job time in between
to reference speed: the speed at which the kernel takes ``REFERENCE_S``
seconds, about its time on the host's fast periods.  The kernel is
benchmark code, so no change to the program moves it.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.1
_rng = random.Random(0)
_MATRICES = [[[_rng.randint(-(2**40), 2**40) for _ in range(5)] for _ in range(5)] for _ in range(40)]
_FRACTIONS = [Fraction(_rng.randint(1, 10**6), _rng.randint(1, 10**6)) for _ in range(200)]
_REPEATS = 40


def _det(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            ai, ak, f = a[i], a[k], a[i][k]
            for j in range(k + 1, n):
                ai[j] = (pivot * ai[j] - f * ak[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def measure() -> tuple[float, float]:
    """(wall, CPU) seconds of one run of the calibration kernel."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(_REPEATS):
        for m in _MATRICES:
            _det(m)
        total = Fraction(0)
        for q in _FRACTIONS:
            total += q * q
    return time.perf_counter() - w0, time.process_time() - c0


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Seconds at reference speed, from the kernel times on either side."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)


class SpeedClock:
    """Job time of one pass, raw and rescaled to reference speed.

    While open, a ``SIGALRM`` interval timer runs the kernel every
    ``interval`` seconds.  Time spent in the kernel is not job time.  Call
    ``job_started()`` and ``job_finished()`` around each job.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.wall = self.cpu = 0.0  # raw job seconds
        self.ref_wall = self.ref_cpu = 0.0  # job seconds at reference speed
        self._stretch_wall = self._stretch_cpu = 0.0
        self._mark = None  # (wall, cpu) clock readings while a job runs
        self._kernel = None
        self._previous_handler = None

    def __enter__(self) -> "SpeedClock":
        self._kernel = measure()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._close_stretch()

    def job_started(self) -> None:
        with _alarm_blocked():
            self._mark = (time.perf_counter(), time.process_time())

    def job_finished(self) -> None:
        with _alarm_blocked():
            self._add_job_time()
            self._mark = None

    def _add_job_time(self) -> None:
        if self._mark is not None:
            self._stretch_wall += time.perf_counter() - self._mark[0]
            self._stretch_cpu += time.process_time() - self._mark[1]

    def _close_stretch(self) -> None:
        kernel = measure()
        self.wall += self._stretch_wall
        self.cpu += self._stretch_cpu
        self.ref_wall += rescale(self._stretch_wall, self._kernel[0], kernel[0])
        self.ref_cpu += rescale(self._stretch_cpu, self._kernel[1], kernel[1])
        self._stretch_wall = self._stretch_cpu = 0.0
        self._kernel = kernel

    def _tick(self, signum, frame) -> None:
        in_job = self._mark is not None
        self._add_job_time()
        self._close_stretch()
        if in_job:
            self._mark = (time.perf_counter(), time.process_time())


class _alarm_blocked:
    """Defers SIGALRM while the clock's bookkeeping runs."""

    def __enter__(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})

    def __exit__(self, *exc):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
