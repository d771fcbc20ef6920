"""Wall time scaled to a fixed reference speed of the machine.

On a shared virtual machine the speed available to one process changes
from second to second, with the load on the host: identical passes of
the ``controllers`` workload took 24 to 35 ms per operation in runs a
minute apart on a 2-vCPU VM, while a reference loop measured alongside
them slowed in step.  :class:`Clock` samples that loop every
``INTERVAL`` seconds from a ``SIGALRM`` handler, in the measured thread,
and scales each measured interval by ``REF_LOOP_S`` over the loop's mean
duration within the interval.  A scaled time approximates the time the
work would take at the loop's nominal speed, so scaled times can be
compared across changing load; the loop and the workloads do not slow
down by exactly the same factor, so the correction is partial.  The
handler's own time is subtracted from the interval first.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL = 0.02

#: Nominal duration of :func:`reference_loop`: its typical duration on the
#: 2-vCPU machine (CPython 3.11) where the benchmark was written.
REF_LOOP_S = 9.0e-5


def reference_loop() -> float:
    """Fixed pure-Python work: dict stores, tuple packing, float arithmetic."""
    d = {}
    x = 0.0
    for i in range(500):
        d[i % 97] = (i, x)
        x += d[i % 97][0] * 0.5
    return x


class Clock:
    """Measures intervals in wall seconds and in reference-speed seconds.

    Use as a context manager; it owns ``SIGALRM`` while open.
    """

    def __init__(self):
        self.loops = 0
        self.loop_s = 0.0
        self.handler_s = 0.0

    def sample(self, *_) -> None:
        start = perf_counter()
        reference_loop()
        took = perf_counter() - start
        self.loops += 1
        self.loop_s += took
        self.handler_s += perf_counter() - start

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple:
        """Mark the start of an interval.

        One sample is taken first, so that an interval shorter than
        ``INTERVAL`` still has one close to it.
        """
        (loops, loop_s) = (self.loops, self.loop_s)
        self.sample()
        return (loops, loop_s, self.handler_s, perf_counter())

    def stop(self, mark: tuple) -> tuple:
        """(wall seconds, reference-speed seconds) since ``mark``."""
        end = perf_counter()
        (loops, loop_s, handler_s, start) = mark
        wall = end - start - (self.handler_s - handler_s)
        speed = (self.loop_s - loop_s) / (self.loops - loops)
        return (wall, wall * REF_LOOP_S / speed)
