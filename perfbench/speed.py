"""Machine-speed samples, for times that do not swing with the machine.

On a shared machine the same campaign's wall time swings by a factor of up
to 1.7 within minutes, with no change in the work done.  A fixed kernel of
the same kind of work (the small-array Sturm recurrence of hitemp's
bisection loops) slows down with it.  So each campaign process samples
the kernel's CPU time every 100 ms, in every process the campaign forks, and
its times are scaled by REF_KERNEL_S / (mean kernel time).
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 5e-4  # each kernel's time at the reference speed; a fixed convention
PERIOD_S = 0.1
SETUP_SAMPLES = 20

_LANES = np.linspace(-1.0, 1.0, 8)
_B2 = np.full(8, 0.25)
_X = np.linspace(-1.0, 1.0, 64)


def kernel_time() -> float:
    """CPU time of a fixed piece of work, about 0.5 ms: 40 steps of a
    Sturm-count recurrence on 8 lanes, the pattern of hitemp's bisection loops."""
    t0 = time.thread_time()
    d = _LANES + 3.0
    count = np.zeros(8, dtype=np.int64)
    for _ in range(40):
        am = _LANES - 0.1
        t = am - _B2 / d
        eps = 1e-16 * (1.0 + np.abs(am) + _B2)
        d = np.where(np.abs(t) < eps, -eps, t)
        count += d < 0
    return time.thread_time() - t0


def setup_kernel_time() -> float:
    """CPU time of about 0.5 ms of mostly plain Python work.  Set-up (the
    imports) tracks the machine's swings like this, not like kernel_time()."""
    t0 = time.thread_time()
    d = _X.copy()
    for _ in range(60):
        d = _X - 0.5 / (d + 3.0)
    acc = 0
    for i in range(6000):
        acc += i * i
    return time.thread_time() - t0


def setup_kernel_s() -> float:
    """Median set-up kernel time over a short burst, taken now."""
    return statistics.median(setup_kernel_time() for _ in range(SETUP_SAMPLES))


class Sampler:
    """Samples kernel_time() on SIGALRM in this process and in every process
    it forks later, appending "pid seconds" lines to one O_APPEND file."""

    def __init__(self, path):
        self._path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        signal.signal(signal.SIGALRM, self._sample)
        os.register_at_fork(after_in_child=self._arm)

    def _sample(self, signum, frame):
        os.write(self._fd, f"{os.getpid()} {kernel_time()!r}\n".encode())

    @staticmethod
    def _arm():
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def start(self) -> None:
        self._arm()

    def stop(self) -> float:
        """Stop sampling; return the mean kernel time of the forked workers,
        which do a pooled campaign's work, or else of this process."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a signal still pending
        os.close(self._fd)
        with open(self._path, encoding="ascii") as fh:
            samples = [line.split() for line in fh.read().splitlines()]
        me = str(os.getpid())
        workers = [float(t) for pid, t in samples if pid != me]
        own = [float(t) for pid, t in samples if pid == me]
        return statistics.fmean(workers or own or [kernel_time()])
