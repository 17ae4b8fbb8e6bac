"""Collected samples and the end-to-end metrics every workload reports.

Every reported time is CPU time at the reference machine speed of
:mod:`perfbench.speed`: the measured CPU time, scaled by the reference
loop's nominal time over its CPU time measured next to it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Optional, Tuple

from .metrics import Tally, checked_percentile, window_means
from .speed import MIN_CPU_SHARE, REFERENCE_NOMINAL_S, Clock, SpeedProbe

#: how many times each run sets up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: reference times on each side of an operation that set its speed.
SPEED_HALF_WINDOW = 8


def settle() -> None:
    """Collect, then freeze what survives: the benchmark's own inputs and
    set-up state stay out of the garbage collector's scans while the
    program under test runs."""
    gc.collect()
    gc.freeze()


def timed_setups(setup):
    """Set up :data:`SETUP_REPEATS` times; keep the last.

    ``setup(tick)`` calls ``tick`` after each program it prepares; each tick
    times the reference loop, whose time is taken out of the set-up's.
    Returns (state, median set-up seconds at reference speed, median wall
    seconds).
    """
    durations, walls = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        probe = SpeedProbe()
        with Clock() as clock:
            state = setup(probe.sample)
        walls.append(clock.wall - probe.wall)
        cpu = clock.cpu - sum(probe.samples)
        durations.append(cpu * REFERENCE_NOMINAL_S / statistics.fmean(probe.samples))
    settle()
    return state, statistics.median(durations), statistics.median(walls)


#: end-to-end metric -> unit, as listed in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "kinstr_per_s": "kinstr/s",
    "analyze_p50_ms": "ms",
    "analyze_p90_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ok_frac": "ratio",
    "conservative_frac": "ratio",
    "pointer_acc": "ratio",
    "const_recall": "ratio",
    "peak_rss_mb": "MB",
}


class Samples:
    """Per-operation latencies (seconds) of one measured phase: each analysis
    and the whole-program answer built after it.

    ``analyze`` and ``query`` hold CPU times, ``*_wall`` the wall times.
    With a probe, the reference loop is timed after every operation, and
    :meth:`at_reference_speed` scales each CPU time by the mean reference
    time around it.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.analyze: List[float] = []
        self.query: List[float] = []
        self.analyze_wall: List[float] = []
        self.query_wall: List[float] = []
        #: input instructions behind the ``analyze`` samples.
        self.instructions = 0
        self.probe = probe
        #: running busy time at reference speed, from each operation's own
        #: reference time: the stopping rule of a measured phase.
        self.reference_busy = 0.0

    def add(self, analyzing: Clock, answering: Clock, instructions: int) -> None:
        self.analyze.append(analyzing.cpu)
        self.query.append(answering.cpu)
        self.analyze_wall.append(analyzing.wall)
        self.query_wall.append(answering.wall)
        self.instructions += instructions
        if self.probe is not None:
            scale = REFERENCE_NOMINAL_S / self.probe.sample()
            self.reference_busy += (analyzing.cpu + answering.cpu) * scale

    def busy_seconds(self) -> float:
        """Wall seconds of every analysis and answer."""
        return sum(self.analyze_wall) + sum(self.query_wall)

    def cpu_share(self) -> float:
        """CPU time of this process over wall time, across the analyses."""
        return sum(self.analyze) / sum(self.analyze_wall)

    def at_reference_speed(self) -> Tuple[List[float], List[float]]:
        """(analyze, query) CPU times at reference speed."""
        speeds = window_means(self.probe.samples, SPEED_HALF_WINDOW)
        scales = [REFERENCE_NOMINAL_S / speed for speed in speeds]
        return (
            [value * scale for value, scale in zip(self.analyze, scales)],
            [value * scale for value, scale in zip(self.query, scales)],
        )


class Accuracy:
    """Pooled comparisons against the generator's answer keys."""

    def __init__(self) -> None:
        self.variables = 0
        self.conservative = 0
        self.pointer_scores: List[float] = []
        self.const_params = 0
        self.const_found = 0

    def add(self, program_metrics) -> None:
        for comparison in program_metrics.comparisons:
            self.variables += 1
            self.conservative += bool(comparison.conservative)
            if comparison.pointer_score is not None:
                self.pointer_scores.append(comparison.pointer_score)
            if comparison.const_truth:
                self.const_params += 1
                self.const_found += bool(comparison.const_inferred)

    def metrics(self) -> Dict[str, float]:
        if not self.variables or not self.pointer_scores or not self.const_params:
            raise ValueError("too few scored variables for the accuracy metrics")
        return {
            "conservative_frac": self.conservative / self.variables,
            "pointer_acc": sum(self.pointer_scores) / len(self.pointer_scores),
            "const_recall": self.const_found / self.const_params,
        }


def end_to_end(
    setup_s: float, samples: Samples, tally: Tally, accuracy: Accuracy, rss_mb: float
) -> Dict[str, float]:
    """Every end-to-end metric from one measured phase.

    Raises if the analyses ran mostly outside this process, where CPU time
    of this process no longer measures them.
    """
    if samples.cpu_share() < MIN_CPU_SHARE:
        raise RuntimeError(
            f"the analyses used {samples.cpu_share():.2f} of their wall time as CPU time "
            f"of this process (at least {MIN_CPU_SHARE} needed): did work move to other processes?"
        )
    ms = 1000.0
    analyze, query = samples.at_reference_speed()
    out = {
        "setup_s": setup_s,
        "kinstr_per_s": samples.instructions / 1000.0 / sum(analyze),
        "analyze_p50_ms": checked_percentile(analyze, 50) * ms,
        "analyze_p90_ms": checked_percentile(analyze, 90) * ms,
        "query_p50_ms": checked_percentile(query, 50) * ms,
        "query_p90_ms": checked_percentile(query, 90) * ms,
        "ok_frac": 1.0 - tally.failed_frac,
        "peak_rss_mb": rss_mb,
    }
    out.update(accuracy.metrics())
    return {name: out[name] for name in END_TO_END_UNITS}


def wall_clock(setup_wall_s: float, samples: Samples) -> Dict[str, float]:
    """Timings as a wall clock reads them, before any scaling, for the record."""
    ms = 1000.0
    return {
        "setup_s": setup_wall_s,
        "kinstr_per_s": samples.instructions / 1000.0 / sum(samples.analyze_wall),
        "analyze_p50_ms": checked_percentile(samples.analyze_wall, 50) * ms,
        "query_p50_ms": checked_percentile(samples.query_wall, 50) * ms,
        "reference_mean_ms": statistics.fmean(samples.probe.samples) * ms,
        "cpu_share": samples.cpu_share(),
    }
