"""Host-speed calibration: a fixed pure-Python kernel timed before, during
and after each program, so that program times can be stated at one
reference speed.

On a shared host the speed at which this process executes drifts by up to
a third, in phases of about 10-20 s, with the load other tenants put on
the same cores; CPU time drifts with wall time, so it does not help.  The
phases are shorter than the longest programs, so samples taken only
between programs miss a phase change inside one; a timer therefore also
samples the kernel every :data:`INTERVAL` seconds while a pass runs.

The kernel does not touch ``repro``, so a change to the program under test
cannot change the kernel's speed, only the program's.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List


class _Node:
    __slots__ = ("key", "tag", "succ")

    def __init__(self, key: int, tag: int):
        self.key = key
        self.tag = tag
        self.succ = []


def _kernel() -> int:
    """Object allocation, attribute access, hashing, sorting and string
    formatting: the mix the compiler's Python code spends its time on."""
    nodes = [_Node(i, i * 7 % 13) for i in range(1500)]
    index = {}
    for node in nodes:
        index[(node.key % 97, node.tag)] = node
        node.succ.append(nodes[(node.key * 31) % len(nodes)])
    total = 0
    for node in nodes:
        for succ in node.succ:
            total += succ.key ^ node.tag
        total += len(str(node.key))
    nodes.sort(key=lambda node: (node.tag, -node.key))
    return total + len(index)


#: Seconds per :func:`_kernel` call that define the unit: the time first
#: measured on the 2-core x86 container (Python 3.11) this benchmark was
#: built on.  A time divided by :func:`slowdown` is in "reference
#: seconds": what the work would have taken with the kernel at this speed.
REFERENCE_S = 0.0015

#: Seconds between timer samples while a pass runs; each costs about two
#: kernel calls, under 2% of the time.
INTERVAL = 0.1


def sample(rounds: int = 8) -> float:
    """How much slower than the reference the kernel runs now.

    The collector is off meanwhile, so that the sample does not include
    traversing whatever else the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            _kernel()
        return (time.perf_counter() - start) / (rounds * REFERENCE_S)
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: List[float]) -> float:
    """Mean slowdown over samples taken at even intervals during some
    work, and just before and after it."""
    return sum(samples) / len(samples)


class Sampler:
    """Takes a short :func:`sample` every :data:`INTERVAL` seconds on a
    ``SIGALRM`` timer while the ``with`` block runs."""

    def __init__(self):
        self._samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self._samples.append(sample(rounds=2))

    def take(self) -> List[float]:
        """The timer samples since the last call."""
        taken, self._samples = self._samples, []
        return taken

    def quiet_sample(self) -> float:
        """A full :func:`sample` between two programs: after collecting
        the last program's garbage, with the timer held off so that no
        tick lands inside it; ticks meanwhile are dropped."""
        gc.collect()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            value = sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self.take()
        return value

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
