"""The in-process workloads: ``cold_batch`` and ``edit_stream``.

Both time each analysis call from outside and, after it, build and encode
the whole-program answer a client's ``query`` would get (through
:mod:`repro.server.protocol`), timed apart as query latency.  The decoded
answer must fingerprint like the analysis it was built from.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import time
from typing import Callable, Dict, List, Optional

from repro import AnalysisService, IncrementalSession, analyze_program
from repro.eval.metrics import evaluate_program
from repro.gen import result_fingerprint
from repro.obs.trace import Tracer, set_tracer
from repro.server import protocol

from . import inputs, layers
from .metrics import Tally
from .report import Accuracy, Samples, end_to_end, settle, timed_setups, wall_clock
from .speed import Clock, SpeedProbe

#: cold_batch corpus: programs per seed, and one stress program in every N.
CORPUS_SIZE = 240
STRESS_EVERY = 6
#: edit_stream: base programs, each with its own session on one store.
EDIT_BASES = 80
#: analyses every run makes at least, so that the p90 of analyses and of
#: their answers has ten samples beyond it.
MIN_OPS = 100
#: edits in one traced pass.
TRACE_EDITS = 120
#: a measured phase stops after this many times ``--seconds`` of wall time,
#: even short of ``--seconds`` at reference speed, so that a run on a very
#: slow machine still ends in time.
WALL_LIMIT_FACTOR = 2.5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def payload_fingerprint(program_payload: Dict[str, object]) -> str:
    """:func:`repro.gen.result_fingerprint` of a decoded whole-program answer."""
    payload = {k: v for k, v in program_payload.items() if k not in ("stats", "program_id")}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _root(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _timed(item: inputs.Input, analyze, samples: Samples, tally: Tally, tracer=None):
    """``analyze(item.asm)``, then its encoded whole-program answer, each timed.

    Traced, each sits in a ``bench.*`` root span.  Outside the timed regions,
    the decoded answer is checked against the analysis.  Returns the
    analysis and its fingerprint.
    """
    with _root(tracer, "bench.analyze"), Clock() as analyzing:
        types = analyze(item.asm)
    with _root(tracer, "bench.query"), Clock() as answering:
        reply = {"v": protocol.PROTOCOL_VERSION, "id": 0, "ok": True,
                 "result": protocol.program_payload(types, item.name)}
        wire = protocol.encode(reply)
    samples.add(analyzing, answering, item.instructions)
    fingerprint = result_fingerprint(types)
    tally.check(
        payload_fingerprint(json.loads(wire)["result"]) == fingerprint,
        f"{item.name}: served answer differs from its analysis",
    )
    return types, fingerprint


# ---------------------------------------------------------------------------
# cold_batch
# ---------------------------------------------------------------------------


def measuring(samples: Samples, seconds: float, started: float) -> bool:
    """Whether a phase started at ``started`` has more to measure."""
    if time.perf_counter() - started > WALL_LIMIT_FACTOR * seconds:
        return False
    return samples.reference_busy < seconds


def cold_setup(seed: int, tick=None) -> List[inputs.Input]:
    items = inputs.corpus(seed, CORPUS_SIZE, STRESS_EVERY, tick=tick)
    analyze_program(items[0].asm)  # warm-up: lazy imports and tables
    return items


def cold_run(items, seconds: float, tally: Tally, accuracy: Accuracy, samples: Samples) -> None:
    """Analyze the corpus round-robin, cold, until ``seconds`` of analysis
    and answers at reference speed.

    The first pass over the corpus is scored against the answer keys and
    fingerprinted; every later analysis of the same asm must reproduce the
    fingerprint.
    """
    fingerprints: Dict[str, str] = {}
    index = 0
    started = time.perf_counter()
    while index < max(len(items), MIN_OPS) or measuring(samples, seconds, started):
        item = items[index % len(items)]
        types, fingerprint = _timed(item, analyze_program, samples, tally)
        if index < len(items):
            fingerprints[item.name] = fingerprint
            accuracy.add(evaluate_program(item.name, types, item.generated.ground_truth))
        else:
            tally.check(fingerprints[item.name] == fingerprint, f"{item.name}: cold re-analysis differs")
        index += 1


def cold_trace(items, tally: Tally, tracer: Optional[Tracer]) -> tuple:
    samples = Samples()
    results = [_timed(item, analyze_program, samples, tally, tracer) for item in items]
    return samples, results


# ---------------------------------------------------------------------------
# edit_stream
# ---------------------------------------------------------------------------


class EditState:
    """Base programs, their edit streams and open sessions on one store."""

    def __init__(self, seed: int, tick=None) -> None:
        self.bases = inputs.corpus(seed, EDIT_BASES, tag="e", tick=tick)
        self.streams = [inputs.EditStream(base, seed) for base in self.bases]
        self.service = AnalysisService()
        self.sessions = [IncrementalSession(self.service) for _ in self.bases]
        for session, base in zip(self.sessions, self.bases):
            session.analyze(base.asm)  # warm-up: open the session
            if tick is not None:
                tick()
        self.last: Dict[int, object] = {}
        self.cursor = 0

    def next_edit(self) -> tuple:
        """(slot, next edited input, that slot's session analyze)."""
        slot = self.cursor % len(self.bases)
        self.cursor += 1
        return slot, self.streams[slot].next_asm(), self.sessions[slot].analyze


def edit_run(state: EditState, seconds: float, tally: Tally, accuracy: Accuracy, samples: Samples) -> None:
    """Re-analyze round-robin edits until ``seconds`` of analysis and
    answers at reference speed.

    The first round of edits, one per base, is scored against each base's
    answer key (an edit adds a dead local, so declared types are unchanged).
    Each session's final version must fingerprint like a cold analysis of
    the same asm.
    """
    started = time.perf_counter()
    while len(samples.analyze) < MIN_OPS or measuring(samples, seconds, started):
        slot, item, analyze = state.next_edit()
        types, fingerprint = _timed(item, analyze, samples, tally)
        state.last[slot] = (item, fingerprint)
        if len(samples.analyze) <= len(state.bases):
            accuracy.add(evaluate_program(item.name, types, item.generated.ground_truth))
    for item, fingerprint in state.last.values():
        cold = result_fingerprint(analyze_program(item.asm))
        tally.check(cold == fingerprint, f"{item.name}: session result differs from cold")


def edit_trace(state: EditState, tally: Tally, tracer: Optional[Tracer]) -> tuple:
    samples = Samples()
    results = []
    for _ in range(TRACE_EDITS):
        _, item, analyze = state.next_edit()
        results.append(_timed(item, analyze, samples, tally, tracer))
    return samples, results


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def traced_split(
    make_state: Callable[[], object], run_pass: Callable, run_id: str, tally: Tally
) -> tuple:
    """Untraced, traced, untraced passes, each over identical fresh state.

    Returns (per-layer metrics, spans).  The traced pass installs the layer
    wrappers and the program's tracer.  The mean of the two untraced passes
    around it is the baseline of ``obs.trace_overhead_frac``, which cancels a
    machine that drifts steadily faster or slower.  Every traced result must
    fingerprint like its untraced twin.
    """

    def fresh():
        state = make_state()
        settle()
        return state

    before, plain_results = run_pass(fresh(), tally, None)
    state = fresh()
    tracer = Tracer(trace_id=run_id)
    recorder = layers.Recorder()
    uninstall = layers.install(tracer, recorder)
    previous = set_tracer(tracer)
    try:
        traced, results = run_pass(state, tally, tracer)
    finally:
        set_tracer(previous)
        uninstall()
    after, _ = run_pass(fresh(), tally, None)
    for (_, plain), (_, traced_fingerprint) in zip(plain_results, results):
        tally.check(plain == traced_fingerprint, "traced result differs from untraced")
    spans = tracer.spans()
    out = layers.layer_metrics(
        spans,
        recorder.calls,
        recorder.counters,
        ("bench.analyze", "bench.query"),
        [types.stats for types, _ in results],
    )
    untraced = (before.busy_seconds() + after.busy_seconds()) / 2
    out["obs.trace_overhead_frac"] = traced.busy_seconds() / untraced - 1.0
    return out, spans


def run_cold_batch(args, tally: Tally, run_id: str):
    if args.trace:
        items = cold_setup(args.seed)
        out, spans = traced_split(lambda: items, cold_trace, run_id, tally)
        return out, dict(inputs.describe(items), analyses=len(items)), spans
    items, setup_s, setup_wall_s = timed_setups(lambda tick: cold_setup(args.seed, tick))
    record = inputs.describe(items)
    samples, accuracy = Samples(SpeedProbe()), Accuracy()
    cold_run(items, args.seconds, tally, accuracy, samples)
    record["analyses"] = len(samples.analyze)
    record["wall_clock"] = wall_clock(setup_wall_s, samples)
    return end_to_end(setup_s, samples, tally, accuracy, peak_rss_mb()), record, None


def run_edit_stream(args, tally: Tally, run_id: str):
    if args.trace:
        bases: List[inputs.Input] = []

        def make_state():
            state = EditState(args.seed)
            bases[:] = state.bases
            return state

        out, spans = traced_split(make_state, edit_trace, run_id, tally)
        record = dict(inputs.describe(bases), edits=TRACE_EDITS)
        return out, record, spans
    state, setup_s, setup_wall_s = timed_setups(lambda tick: EditState(args.seed, tick))
    record = inputs.describe(state.bases)
    samples, accuracy = Samples(SpeedProbe()), Accuracy()
    edit_run(state, args.seconds, tally, accuracy, samples)
    record["edits"] = len(samples.analyze)
    record["edit_instructions"] = samples.instructions
    record["wall_clock"] = wall_clock(setup_wall_s, samples)
    return end_to_end(setup_s, samples, tally, accuracy, peak_rss_mb()), record, None
