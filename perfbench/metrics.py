"""Pure helpers shared by every workload: percentiles, self time, the check tally.

Nothing here imports ``repro``; the helpers are unit-tested on their own in
``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def checked_percentile(samples: Sequence[float], pct: float) -> float:
    """:func:`percentile`, refusing a tail with fewer than ten samples beyond it.

    A timing is reported at its median and at a tail percentile that keeps
    at least :data:`MIN_BEYOND` samples beyond it (p90 needs 100 samples);
    each run makes at least that many.
    """
    if pct > 50.0 and samples_beyond(len(samples), pct) < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{pct:g} needs {math.ceil(MIN_BEYOND * 100 / (100 - pct))} samples, "
            f"got {len(samples)}"
        )
    return percentile(samples, pct)


def window_means(values: Sequence[float], half_window: int) -> List[float]:
    """For each position, the mean of the values at most ``half_window`` away."""
    return [
        statistics.fmean(values[max(0, i - half_window) : i + half_window + 1])
        for i in range(len(values))
    ]


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median, as ``statistics.quantiles`` gives it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ---------------------------------------------------------------------------
# Outcome accounting
# ---------------------------------------------------------------------------


class Tally:
    """Checked outputs and how many were wrong; any wrong one fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str) -> None:
        """Record one checked output; ``note`` says what differed if not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failed


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """Each span's duration minus the part of its interval its children cover.

    Spans are dicts with ``span_id``, ``parent_id``, ``ts`` (start, seconds)
    and ``dur`` (seconds), the layout :mod:`repro.obs.trace` records.
    Children may overlap one another (they can run on other threads); the
    covered part is their union, clipped to the parent's interval.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            start = float(span["ts"])
            children[parent].append((start, start + float(span["dur"])))
    out: Dict[str, float] = {}
    for span in spans:
        start = float(span["ts"])
        end = start + float(span["dur"])
        clipped = [
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(span["span_id"], ())
            if c_end > start and c_start < end
        ]
        out[span["span_id"]] = max(0.0, (end - start) - union_length(clipped))
    return out
