"""The analysis service layer: caching, incremental and multi-process drivers.

This package turns the one-shot pipeline into a service suited to corpus-scale
workloads, without changing a single inferred type:

``repro.service.store``
    Content-addressed :class:`SummaryStore` of per-SCC type summaries
    (in-memory LRU + optional on-disk JSON tier).
``repro.service.incremental``
    :class:`AnalysisService` -- the driver the pipeline routes through -- and
    :class:`IncrementalSession` for re-analysis after edits.
``repro.service.scheduler``
    :class:`WaveScheduler` -- dispatches independent SCCs of one topological
    wave of the call-graph condensation through an executor strategy
    (``"serial"`` | ``"processes"`` | ``"auto"``).
``repro.service.procpool``
    :class:`ProcPool` -- the process-parallel solve backend: warm worker
    processes, a pickle-free JSON codec for per-SCC solver inputs/outputs,
    shared-disk-tier reuse, and in-process requeue on worker crash.
``repro.service.batch``
    :func:`analyze_corpus` -- many programs against one shared store.

See ``docs/operations.md`` for how to choose and tune an executor.
"""

from .batch import CorpusReport, ProgramReport, analyze_corpus
from .incremental import AnalysisService, IncrementalSession, ServiceConfig
from .procpool import ProcPool, ProcessWaveRunner
from .scheduler import ScheduleStats, WaveScheduler, choose_executor
from .store import (
    DiskStoreBackend,
    ProcedureSummary,
    SCCSummary,
    SocketStoreBackend,
    StoreBackend,
    StoreStats,
    SummaryStore,
    make_backend,
    procedure_fingerprint,
    program_fingerprints,
    scc_summary_keys,
)

__all__ = [
    "AnalysisService",
    "CorpusReport",
    "DiskStoreBackend",
    "IncrementalSession",
    "ProcPool",
    "ProcedureSummary",
    "ProcessWaveRunner",
    "ProgramReport",
    "SCCSummary",
    "ScheduleStats",
    "ServiceConfig",
    "SocketStoreBackend",
    "StoreBackend",
    "StoreStats",
    "SummaryStore",
    "WaveScheduler",
    "analyze_corpus",
    "choose_executor",
    "make_backend",
    "procedure_fingerprint",
    "program_fingerprints",
    "scc_summary_keys",
]
