"""Unit tests for the benchmark's own helpers (no workload is run)."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    Tally,
    checked_percentile,
    percentile,
    self_times,
    union_length,
    window_means,
)


# -- the percentile rule ------------------------------------------------------


def test_nearest_rank_leaves_ten_samples_beyond_p90_of_100():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90
    assert sum(1 for s in samples if s > percentile(samples, 90)) == 10
    assert percentile(samples, 50) == 50
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize("pct, needed", [(90, 100), (99, 1000), (99.9, 10000)])
def test_a_tail_percentile_needs_ten_samples_beyond_it(pct, needed):
    samples = list(range(needed))
    value = checked_percentile(samples, pct)
    assert sum(1 for s in samples if s > value) == 10
    with pytest.raises(ValueError):
        checked_percentile(samples[:-1], pct)


def test_the_median_needs_no_tail():
    assert checked_percentile([5.0, 1.0, 3.0], 50) == 3.0


# -- reference speed ------------------------------------------------------------


def test_window_means_take_the_window_around_each_position():
    assert window_means([6.0, 0.0, 9.0, 3.0], 1) == pytest.approx([3.0, 5.0, 4.0, 6.0])
    assert window_means([2.0], 4) == [2.0]


def _clock(cpu, wall=None):
    from types import SimpleNamespace

    return SimpleNamespace(cpu=cpu, wall=cpu if wall is None else wall)


def test_latencies_are_scaled_by_the_reference_time_around_them():
    from perfbench.report import Samples
    from perfbench.speed import REFERENCE_NOMINAL_S

    class SlowThenFast:
        samples = []

        def sample(self):
            speed = 2 * REFERENCE_NOMINAL_S if len(self.samples) < 20 else REFERENCE_NOMINAL_S
            self.samples.append(speed)
            return speed

    samples = Samples(SlowThenFast())
    for index in range(40):
        # the machine runs at half speed for the first 20 operations
        slow = 2 if index < 20 else 1
        samples.add(_clock(0.01 * slow), _clock(0.001 * slow), 100)
    analyze, query = samples.at_reference_speed()
    # away from the change of speed, every window sees one speed only
    steady = list(range(0, 12)) + list(range(28, 40))
    assert [analyze[i] for i in steady] == pytest.approx([0.01] * len(steady))
    assert [query[i] for i in steady] == pytest.approx([0.001] * len(steady))
    assert samples.reference_busy == pytest.approx(40 * 0.011)


def test_a_run_whose_analyses_ran_elsewhere_is_refused():
    from perfbench.report import Accuracy, Samples, end_to_end
    from perfbench.speed import SpeedProbe

    samples = Samples(SpeedProbe())
    for _ in range(100):
        # most of each analysis's wall time is not CPU time of this process
        samples.add(_clock(0.004, wall=0.01), _clock(0.001), 100)
    with pytest.raises(RuntimeError, match="other processes"):
        end_to_end(1.0, samples, Tally(), Accuracy(), 50.0)


# -- self time ------------------------------------------------------------------


def _span(span_id, parent, start, dur, name="x"):
    return {"span_id": span_id, "parent_id": parent, "ts": start, "dur": dur, "name": name}


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("a1", "a", 2.0, 1.0),
        _span("b", "root", 6.0, 2.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(4.0)
    assert own["a"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("t1", "root", 2.0, 4.0),  # two threads, overlapping
        _span("t2", "root", 3.0, 4.0),
        _span("late", "root", 9.0, 3.0),  # runs past its parent's end
    ]
    assert self_times(spans)["root"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_layer_metrics_sum_self_time_by_layer_and_report_unattributed():
    spans = [
        _span("op", None, 0.0, 10.0, "bench.analyze"),
        _span("gen", "op", 0.0, 4.0, "typegen.generate"),
        _span("rd", "gen", 0.0, 1.0, "ir.reaching_defs"),
        _span("per-fn", "gen", 1.0, 2.0, "typegen.constraints"),
        _span("sh", "op", 5.0, 4.0, "solver.shapes"),
        _span("inf", "sh", 5.0, 3.0, "core.shapes"),
    ]
    analyses = [
        {"procedures": 1, "stage_seconds": {"graph_nodes": 5}},
        {"procedures": 1, "stage_seconds": {"graph_nodes": 7}},
    ]
    out = layers.layer_metrics(spans, {"ir.reaching_defs": 4}, {}, ("bench.analyze",), analyses)
    assert out["ir.reaching_defs_s"] == pytest.approx(1.0)
    assert out["typegen.constraints_s"] == pytest.approx(3.0)
    assert out["core.shapes_s"] == pytest.approx(4.0)
    assert out["core.total_s"] == pytest.approx(4.0)
    assert out["typegen.total_s"] == pytest.approx(3.0)
    assert out["ir.total_s"] == pytest.approx(1.0)
    assert out["trace.unattributed_frac"] == pytest.approx(0.2)
    assert out["ir.reaching_defs_calls"] == 4
    assert out["ir.reaching_defs_per_proc"] == 2.0
    assert out["core.graph_nodes"] == 12


# -- failure accounting -------------------------------------------------------


def test_a_mismatch_counts_as_failed_and_fails_the_run():
    tally = Tally()
    for _ in range(3):
        tally.check(True, "fine")
    tally.check(False, "bad")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_frac == pytest.approx(0.25)
    assert not tally.correct
    assert tally.notes == ["bad"]


def test_a_run_with_no_checks_is_not_correct():
    tally = Tally()
    assert not tally.correct
    tally.check(True, "fine")
    assert tally.correct and tally.failed_frac == 0.0


def test_served_payload_fingerprint_matches_result_fingerprint():
    import json

    from repro import analyze_program
    from repro.gen import GenProfile, generate_program, result_fingerprint
    from repro.server import protocol

    from perfbench.inprocess import payload_fingerprint

    types = analyze_program(str(generate_program(3, GenProfile.smoke()).compile().program))
    wire = protocol.encode({"result": protocol.program_payload(types, "id")})
    assert payload_fingerprint(json.loads(wire)["result"]) == result_fingerprint(types)
