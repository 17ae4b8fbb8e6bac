"""SCC-wave scheduling: solve independent SCCs of one wave concurrently.

The call-graph condensation is levelled into waves (:meth:`CallGraph.scc_waves
<repro.ir.callgraph.CallGraph.scc_waves>`): every SCC only depends on strictly
earlier waves, so all SCCs within one wave are data-independent and can be
solved in parallel.  The scheduler walks waves bottom-up; within a wave it
dispatches per-SCC work through a pluggable **executor strategy** and always
merges results in the wave's listed SCC order, so the outcome is deterministic
regardless of completion order.

Executor strategies (``executor=``):

``"serial"``
    One SCC at a time on the calling thread.  Zero overhead; the right choice
    for small programs and the default.
``"processes"``
    The :mod:`~repro.service.procpool` backend: chunks of a wave are shipped
    to warm worker processes as JSON (pickle-free), solved in true parallel,
    and the summaries shipped back.  A crashed worker requeues its SCCs on
    the in-process path (typed ``worker_failed`` stat).  The solver is pure
    Python, so this is the only strategy that can scale with cores; it needs
    a ``remote`` runner supplied by the analysis service.
``"auto"``
    Resolved per workload by :meth:`WaveScheduler.resolve` (through
    :func:`choose_executor`): wide waves on a multi-core host pick
    ``"processes"``, everything else ``"serial"``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..obs.trace import get_tracer

T = TypeVar("T")

#: the executor strategies the scheduler accepts.
EXECUTORS = ("serial", "processes", "auto")

#: ``auto`` picks processes only when at least this many SCCs could overlap
#: (sum over waves of ``width - 1``): below it, chunk codec + IPC overhead on
#: millisecond-sized SCC solves eats the multi-core win.
AUTO_PROCESS_THRESHOLD = 16


def choose_executor(
    waves: Sequence[Sequence[Sequence[str]]],
    cpu_count: Optional[int] = None,
) -> str:
    """Resolve the ``"auto"`` strategy for one workload.

    The decision is workload-sized: ``processes`` when the condensation has
    enough same-wave SCCs to keep several cores busy (and the host has
    several), ``serial`` otherwise.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cpus < 2:
        return "serial"
    overlap = sum(max(0, len(wave) - 1) for wave in waves)
    return "processes" if overlap >= AUTO_PROCESS_THRESHOLD else "serial"


@dataclass
class ScheduleStats:
    """What the scheduler observed while draining the waves."""

    wave_widths: List[int] = dc_field(default_factory=list)
    scc_seconds: List[Tuple[str, float]] = dc_field(default_factory=list)
    #: the executor strategy actually used (post-``auto`` resolution).
    executor: str = "serial"
    #: SCCs requeued in-process after their worker died or misbehaved.
    worker_failed: int = 0
    requeued_sccs: List[str] = dc_field(default_factory=list)

    @property
    def wave_count(self) -> int:
        return len(self.wave_widths)

    @property
    def max_wave_width(self) -> int:
        return max(self.wave_widths, default=0)

    def as_stats(self) -> Dict[str, object]:
        widths = self.wave_widths
        return {
            "wave_count": self.wave_count,
            "wave_widths": list(widths),
            "max_wave_width": self.max_wave_width,
            "mean_wave_width": (sum(widths) / len(widths)) if widths else 0.0,
            "scc_seconds": list(self.scc_seconds),
            "executor": self.executor,
            "worker_failed": self.worker_failed,
            "requeued_sccs": list(self.requeued_sccs),
        }


class WaveScheduler:
    """Run a per-SCC function over levelled waves under an executor strategy.

    ``executor`` picks the strategy (see the module docstring) and is
    validated here; :meth:`resolve` turns it into the concrete strategy for
    one workload.  Waves go to worker processes only through a ``remote``
    runner passed to :meth:`run` (the service builds a
    :class:`~repro.service.procpool.ProcessWaveRunner` per analysis); without
    one every wave is solved in-process.
    """

    def __init__(self, executor: str = "serial") -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r} (expected one of {EXECUTORS})"
            )
        self.executor = executor

    def resolve(self, waves: Sequence[Sequence[Sequence[str]]]) -> str:
        """The concrete strategy for these waves: ``"auto"`` is decided here."""
        return choose_executor(waves) if self.executor == "auto" else self.executor

    def run(
        self,
        waves: Sequence[Sequence[Sequence[str]]],
        solve: Callable[[Sequence[str]], T],
        after_wave: Optional[Callable[[List[Tuple[Sequence[str], T]]], None]] = None,
        remote: Optional[object] = None,
    ) -> Tuple[List[Tuple[Sequence[str], T]], ScheduleStats]:
        """Drain the waves bottom-up.

        ``solve`` is called once per SCC (and is the in-process fallback for
        requeued SCCs under the process strategy); ``after_wave`` (if given)
        receives the wave's ``(scc, result)`` pairs -- in listed order -- once
        the whole wave has completed, which is where the driver publishes
        callee summaries before the next wave starts.  ``remote`` is the
        process-backend runner: when given, every wave wider than one SCC is
        handed to it.  Returns all ``(scc, result)`` pairs in deterministic
        bottom-up order plus scheduling statistics.
        """
        mode = "serial" if remote is None else "processes"
        stats = ScheduleStats(executor=mode)
        all_results: List[Tuple[Sequence[str], T]] = []
        tracer = get_tracer()
        for index, wave in enumerate(waves):
            stats.wave_widths.append(len(wave))
            timed: List[Tuple[Sequence[str], T, float]]
            with tracer.span(
                "scheduler.wave", index=index, width=len(wave), executor=mode
            ):
                if remote is not None and len(wave) > 1:
                    # Single-SCC waves stay in-process: IPC without overlap
                    # is pure overhead.
                    timed = remote.solve_wave(wave, solve)
                else:
                    timed = [(scc, *_timed_call(solve, scc)) for scc in wave]
            wave_results: List[Tuple[Sequence[str], T]] = []
            for scc, result, seconds in timed:
                stats.scc_seconds.append((",".join(scc), seconds))
                wave_results.append((scc, result))
            if after_wave is not None:
                after_wave(wave_results)
            all_results.extend(wave_results)
        if remote is not None:
            stats.worker_failed = getattr(remote, "worker_failed", 0)
            stats.requeued_sccs = list(getattr(remote, "requeued_sccs", ()))
        return all_results, stats


def _timed_call(solve: Callable[[Sequence[str]], T], scc: Sequence[str]) -> Tuple[T, float]:
    start = time.perf_counter()
    result = solve(scc)
    return result, time.perf_counter() - start
