"""The host-speed reference: a fixed pure-Python loop timed next to every measurement.

On a shared machine the speed of the same CPU-bound code drifts by tens of
percent from one second to the next, and by up to 1.5x from one minute to
the next; on top of that, the machine takes the CPU away from the process
now and then.  Raw wall times then spread more between runs than any bound
could allow.  So the benchmark measures two things differently:

- It times each operation in CPU time of this process (``time.process_time``,
  every thread).  The kernel leaves out of it the time the process waited
  for a CPU, and the time the hypervisor gave the CPU to another machine.
- It times :func:`reference_work`, a fixed loop that does not touch the
  program under test, right after every operation it measures, and reports
  each time at a fixed machine speed:

      reported = CPU time * REFERENCE_NOMINAL_S / (reference CPU time near it)

"Near it" is the mean over the neighbouring operations
(:func:`perfbench.metrics.window_means`).  Both commits of a comparison run
the same loop, so a change to the program moves only the numerator.
Garbage collection is off while the loop runs, so it never collects the
program's garbage and the program's cost stays with the program.

CPU time of this process does not count work done in other processes, so
every run also checks that the analyses' CPU time is at least
:data:`MIN_CPU_SHARE` of their wall time (:mod:`perfbench.report`).
"""

from __future__ import annotations

import gc
import time
from typing import List

#: the CPU time :func:`reference_work` takes on the machine the baseline was
#: set on (shared 2-CPU x86_64 VM, Python 3.11); reported times are at this speed.
REFERENCE_NOMINAL_S = 0.004
#: the least share of the analyses' wall time that must be CPU time of this
#: process for the run to stand.
MIN_CPU_SHARE = 0.5

_EDGES = [((i * 7919) % 211, (i * 104729 + 17) % 211, "abcdef"[i % 6]) for i in range(900)]


class _Node:
    __slots__ = ("name", "succ")

    def __init__(self, name: str) -> None:
        self.name = name
        self.succ: List[tuple] = []


def reference_work() -> int:
    """A fixed mix of what the analysis does most: small objects, dicts and
    sets keyed by tuples, a worklist closure, string building and a sort."""
    return sum(_reference_round() for _ in range(5))


def _reference_round() -> int:
    nodes = {}
    for src, dst, label in _EDGES:
        node = nodes.get(src)
        if node is None:
            node = nodes[src] = _Node(f"v{src}")
        node.succ.append((dst, label))
    reached = set()
    for start in range(0, 211, 23):
        work = [(start, "")]
        while work:
            at, last = work.pop()
            key = (at, last)
            if key in reached:
                continue
            reached.add(key)
            node = nodes.get(at)
            if node is not None:
                for dst, label in node.succ:
                    if label >= last:
                        work.append((dst, label))
    ordered = sorted(reached, key=lambda k: (k[1], -k[0]))
    return len(ordered) + len("".join(nodes[k].name for k in sorted(nodes)[:50]))


class Clock:
    """Wall and CPU time of the ``with`` block it times."""

    __slots__ = ("wall", "cpu", "_wall", "_cpu")

    def __enter__(self) -> "Clock":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self._cpu
        self.wall = time.perf_counter() - self._wall


class SpeedProbe:
    """The reference times taken during one measured phase, in order."""

    def __init__(self) -> None:
        #: CPU seconds of each reference loop.
        self.samples: List[float] = []
        #: wall seconds of all of them.
        self.wall = 0.0

    def sample(self) -> float:
        """Time one :func:`reference_work`, with garbage collection off;
        returns its CPU time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Clock() as clock:
                reference_work()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(clock.cpu)
        self.wall += clock.wall
        return clock.cpu
