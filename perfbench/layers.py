"""Traced runs: wrap each layer's public functions and split time by layer.

:func:`install` replaces the functions below at the module (or class)
attributes their callers look up, so no file under ``src/`` changes.  Each
wrapper opens a span on the program's own :mod:`repro.obs.trace` tracer --
so the spans the program already records (``service.*``, ``solver.*``,
``typegen.constraints``) join the same tree -- and bumps a call count.  :func:`layer_metrics` turns the finished spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

from .metrics import self_times

#: (span name, module, attribute path) -- the calls timed from outside.
#: Module-level functions are patched in every module that imported them by
#: name; methods are patched on their class.
WRAPPED = [
    ("ir.parse", "repro.service.incremental", "parse_program"),
    ("ir.parse", "repro.ir.asmparser", "parse_program"),
    ("ir.stack", "repro.ir.dataflow", "analyze_stack"),
    ("ir.reaching_defs", "repro.ir.locators", "analyze_reaching_definitions"),
    ("ir.reaching_defs", "repro.typegen.abstract_interp", "analyze_reaching_definitions"),
    ("ir.interface", "repro.typegen.abstract_interp", "discover_interface"),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.from_typing_inputs"),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.from_program"),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.scc_waves"),
    ("typegen.generate", "repro.service.incremental", "generate_program_constraints"),
    ("typegen.extern_schemes", "repro.service.incremental", "extern_schemes"),
    ("core.shapes", "repro.core.solver", "infer_shapes"),
    ("core.graph", "repro.core.solver", "ConstraintGraph"),
    ("core.saturate", "repro.core.solver", "saturate"),
    ("core.simplify", "repro.core.solver", "derive_constant_bounds"),
    ("core.sketch", "repro.core.solver", "scheme_from_shapes"),
    ("core.display", "repro.core.display", "TypeDisplay.function_type"),
    ("service.solve_inputs", "repro.service.incremental", "AnalysisService.solve_inputs"),
    ("service.key", "repro.service.incremental", "program_fingerprints"),
    ("service.key", "repro.service.incremental", "environment_fingerprint"),
    ("service.key", "repro.service.incremental", "scc_summary_keys"),
    ("service.store_get", "repro.service.store", "SummaryStore.get"),
    ("service.store_put", "repro.service.store", "SummaryStore.put"),
    ("server.payload", "repro.server.protocol", "program_payload"),
    ("server.encode", "repro.server.protocol", "encode"),
]

#: per-layer self-time metrics: the span names whose self time each sums.
#: The program's own spans that merely enclose a wrapped call (for example
#: ``solver.shapes`` around ``infer_shapes``) are counted with it.
SELF_TIME_METRICS = {
    "ir.parse_s": ("ir.parse", "service.parse"),
    "ir.stack_s": ("ir.stack",),
    "ir.reaching_defs_s": ("ir.reaching_defs",),
    "ir.interface_s": ("ir.interface",),
    "ir.callgraph_s": ("ir.callgraph",),
    "typegen.constraints_s": ("typegen.generate", "typegen.constraints", "service.constraint_gen"),
    "typegen.extern_schemes_s": ("typegen.extern_schemes",),
    "core.shapes_s": ("core.shapes", "solver.shapes"),
    "core.graph_s": ("core.graph", "solver.graph"),
    "core.saturate_s": ("core.saturate", "solver.saturate"),
    "core.simplify_s": ("core.simplify", "solver.simplify"),
    "core.sketch_s": ("core.sketch", "solver.sketch"),
    "core.instantiate_s": ("solver.solve_scc",),
    "core.display_s": ("core.display",),
    "service.analyze_s": ("service.analyze", "service.invalidate"),
    "service.solve_s": ("service.solve_inputs", "service.solve", "scheduler.wave"),
    "service.key_s": ("service.key",),
    "service.store_get_s": ("service.store_get",),
    "service.store_put_s": ("service.store_put",),
    "server.payload_s": ("server.payload",),
    "server.encode_s": ("server.encode",),
}

#: each layer's total self time: the sum of its ``<layer>.*_s`` metrics.
LAYERS = ("ir", "typegen", "core", "service", "server")

#: every per-layer metric of every workload, in report order, with its unit.
#: A layer a workload never calls reads 0 there (``cold_batch`` has no store;
#: ``edit_stream`` builds its extern schemes once, at set-up).
PER_LAYER_UNITS = {
    **{f"{layer}.total_s": "s" for layer in LAYERS},
    **{name: "s" for name in SELF_TIME_METRICS},
    "ir.stack_calls": "count",
    "ir.reaching_defs_calls": "count",
    "ir.reaching_defs_per_proc": "ratio",
    "typegen.constraints": "count",
    "typegen.extern_schemes_calls": "count",
    "core.graph_nodes": "count",
    "core.graph_edges": "count",
    "core.saturation_edges": "count",
    "core.constant_bounds": "count",
    "service.store_hit_rate": "ratio",
    "service.sccs_solved_frac": "ratio",
    "server.reply_bytes": "B",
    "obs.trace_overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Recorder:
    """Call counts and result-derived counters gathered by the wrappers."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)


#: result observers: span name -> fn(recorder, result).
def _count_constraints(recorder: Recorder, inputs) -> None:
    recorder.counters["typegen.constraints"] += sum(
        len(proc.constraints) for proc in inputs.values()
    )


def _count_store_hit(recorder: Recorder, summary) -> None:
    if summary is not None:
        recorder.counters["service.store_hits"] += 1


def _count_reply_bytes(recorder: Recorder, data: bytes) -> None:
    recorder.counters["server.reply_bytes"] += len(data)


OBSERVERS = {
    "typegen.generate": _count_constraints,
    "service.store_get": _count_store_hit,
    "server.encode": _count_reply_bytes,
}


def _make_wrapper(fn: Callable, name: str, tracer, recorder: Recorder) -> Callable:
    observe = OBSERVERS.get(name)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        recorder.calls[name] += 1
        if observe is not None:
            observe(recorder, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer, recorder: Recorder) -> Callable[[], None]:
    """Install every wrapper in :data:`WRAPPED`; returns an uninstaller."""
    undo: List[Callable[[], None]] = []
    for name, module_name, path in WRAPPED:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(module, attr)
        if isinstance(original, classmethod):
            patched = classmethod(
                _make_wrapper(original.__func__, name, tracer, recorder)
            )
        else:
            patched = _make_wrapper(original, name, tracer, recorder)
        setattr(owner, attr, patched)
        undo.append(lambda owner=owner, attr=attr, original=original: setattr(owner, attr, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


#: solver counters summed from each analysis's ``stage_seconds`` record.
STAGE_COUNTS = ("graph_nodes", "graph_edges", "saturation_edges", "constant_bounds")


def layer_metrics(
    spans: Sequence[Mapping[str, object]],
    recorder_calls: Mapping[str, int],
    recorder_counters: Mapping[str, int],
    roots: Sequence[str],
    analyses: Iterable[Mapping[str, object]],
) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans and wrapper counts.

    ``roots`` names the spans that delimit one operation (the benchmark's
    own ``bench.analyze``/``bench.query``); the part of their time no child
    span covers is ``trace.unattributed_frac``.  ``analyses`` are the
    ``ProgramTypes.stats`` records of every analysis in the pass: their
    procedures and solver counters.
    """
    own = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span["name"]] += own[span["span_id"]]
    out: Dict[str, float] = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    for layer in LAYERS:
        out[f"{layer}.total_s"] = sum(
            value for metric, value in list(out.items()) if metric.startswith(layer + ".")
        )
    root_names = set(roots)
    root_total = sum(float(s["dur"]) for s in spans if s["name"] in root_names)
    root_self = sum(by_name.get(name, 0.0) for name in root_names)
    out["trace.unattributed_frac"] = root_self / root_total if root_total else 0.0

    calls = recorder_calls
    out["ir.stack_calls"] = calls.get("ir.stack", 0)
    out["ir.reaching_defs_calls"] = calls.get("ir.reaching_defs", 0)
    out["typegen.constraints"] = recorder_counters.get("typegen.constraints", 0)
    out["typegen.extern_schemes_calls"] = calls.get("typegen.extern_schemes", 0)
    gets = calls.get("service.store_get", 0)
    out["service.store_hit_rate"] = (
        recorder_counters.get("service.store_hits", 0) / gets if gets else 0.0
    )
    # Every probed SCC that missed is solved and put once.
    out["service.sccs_solved_frac"] = calls.get("service.store_put", 0) / gets if gets else 0.0
    procedures = 0
    for metric in STAGE_COUNTS:
        out[f"core.{metric}"] = 0
    for record in analyses:
        procedures += int(record.get("procedures", 0))
        for metric in STAGE_COUNTS:
            out[f"core.{metric}"] += int(record.get("stage_seconds", {}).get(metric, 0))
    out["ir.procedures"] = procedures
    out["ir.reaching_defs_per_proc"] = out["ir.reaching_defs_calls"] / procedures if procedures else 0.0
    encodes = calls.get("server.encode", 0)
    out["server.reply_bytes"] = (
        recorder_counters.get("server.reply_bytes", 0) / encodes if encodes else 0.0
    )
    return out
