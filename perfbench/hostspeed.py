"""Host-speed calibration for the benchmark's timings.

On a shared host the speed a single-threaded Python process gets swings
by up to 60%, switching between faster and slower stretches of a second
or more, as other tenants load the same cores and caches.  Process CPU
time swings with wall time, so this is not time taken from the process
but slower execution, and a wall time alone then measures the host as
much as the program.

A *block* is a fixed piece of work that does not touch flocksim: a few
steps of scipy's RK45 on a small alignment system and a pure-Python pair
loop, the kinds of work the solver does.  :func:`probe` times a few blocks between
operations, and a :class:`Sampler` times one block every
:data:`PERIOD_S` seconds during an operation, from a ``SIGALRM`` handler
in the benchmark's own thread; the handler's time is taken off the
operation's.  :func:`scaled` turns an operation's wall time into seconds
at the reference speed, the speed at which a block takes
:data:`REF_BLOCK_S`, using the mean block time over the operation.  A
change to flocksim moves the scaled times as it moves the wall times; the
host's swings move the blocks as well and cancel.

Blocks are timed in the thread's CPU time, which on an idle process
equals wall time but leaves out any time the benchmark's thread waits
for a core, so that a program that keeps the cores busy with workers of
its own does not make the host look slow.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np
from scipy.integrate import RK45

# Seconds one block takes at the reference speed, a typical speed of a
# 2-vCPU x86-64 VM.  It fixes the scale of the reported times only.
REF_BLOCK_S = 2.5e-3
BLOCKS_PER_PROBE = 5
PERIOD_S = 0.2

_rng = np.random.default_rng(20130218)
_Y0 = _rng.random(4 * 16)
_PTS = [tuple(row) for row in _rng.random((56, 2))]


def _alignment(t, y):
    x = y[:32].reshape(16, 2)
    v = y[32:].reshape(16, 2)
    dx = x[:, None, :] - x[None, :, :]
    w = (1.0 + (dx * dx).sum(-1)) ** -0.25
    a = (w[:, :, None] * (v[None, :, :] - v[:, None, :])).sum(1) / 16
    return np.concatenate([v.ravel(), a.ravel()])


def block() -> float:
    """One block of fixed work: six scipy RK45 steps of a 16-body
    alignment system and a pure-Python pair loop over 56 points.  Returns
    a value so none of it is dead."""
    solver = RK45(_alignment, 0.0, _Y0, 1.0, rtol=1e-9, atol=1e-12,
                  first_step=0.05, max_step=0.05)
    for _ in range(6):
        solver.step()
    s = 0.0
    n = len(_PTS)
    for i in range(n):
        xi, yi = _PTS[i]
        for j in range(i + 1, n):
            xj, yj = _PTS[j]
            d2 = (xi - xj) ** 2 + (yi - yj) ** 2
            if d2 < 0.5:
                s += d2**0.5
    return s + float(solver.y[0])


def timed_block() -> float:
    t0 = thread_time()
    block()
    return thread_time() - t0


def probe(blocks: int = BLOCKS_PER_PROBE) -> float:
    """Median block time over ``blocks`` blocks, run now."""
    return statistics.median(timed_block() for _ in range(blocks))


def scaled(seconds: float, block_times) -> float:
    """``seconds`` of wall time over which blocks took ``block_times``, in
    seconds at the reference speed."""
    return seconds * REF_BLOCK_S / statistics.fmean(block_times)


class Sampler:
    """Times one block every PERIOD_S seconds while active.

    ``samples`` holds the block times of the last activation and ``spent``
    the wall time the handler took, which the caller takes off its own
    measurement.  Only the main thread can run it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(timed_block())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


block()  # first-call costs (ufunc loops, caches) stay out of every probe
