"""The analysis service layer: corpus batching, warm caches, SCC waves.

Three demonstrations on a synthetic cluster of binaries that statically link
the same library code (the shape of the paper's coreutils/vpx clusters,
Figure 10):

1. ``repro.analyze_corpus`` -- analyze the whole cluster against one shared
   summary store; after the first member, every shared SCC is a cache hit;
2. warm-cache re-analysis -- re-analyzing an unmodified program performs zero
   SCC solves, and editing one procedure re-solves only its SCC and the
   transitive callers (``IncrementalSession`` reports the invalidation cone);
3. the process backend -- independent SCCs of one topological wave of the
   call-graph condensation are solved concurrently on worker processes.

Run with::

    python examples/corpus_service.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import AnalysisService, IncrementalSession, ServiceConfig, analyze_corpus
from repro.eval.workloads import make_cluster


def main() -> None:
    print("generating a cluster of binaries sharing a statically-linked library ...")
    workloads = make_cluster(
        "democluster", members=4, shared_functions=18, member_functions=5, seed=2016
    )
    corpus = {workload.name: workload.program for workload in workloads}

    # -- 1. batched corpus analysis over one shared store ----------------------
    print("\n=== analyze_corpus: one shared summary store ===")
    service = AnalysisService()
    report = analyze_corpus(corpus, service=service)
    print(report.summary())
    print(
        f"shared-library reuse: {report.total_cache_hits} SCC summaries served "
        f"from cache ({report.hit_rate:.0%} of lookups)"
    )

    # -- 2. warm-cache and incremental re-analysis -----------------------------
    print("\n=== warm-cache re-analysis ===")
    session = IncrementalSession(service)
    target = workloads[0].program

    start = time.perf_counter()
    first = session.analyze(target)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    second = session.analyze(target)
    warm_seconds = time.perf_counter() - start
    assert second.report() == first.report(), "warm results must be identical"
    print(f"unmodified program:  {second.stats['sccs_solved']} SCCs solved "
          f"(was {first.stats['sccs_solved'] + first.stats['sccs_cached']}), "
          f"{cold_seconds * 1000:.1f} ms -> {warm_seconds * 1000:.1f} ms")

    # Edit one procedure: append a harmless instruction, changing its content
    # hash without changing its meaning.
    from repro.ir.instructions import Nop

    edited = workloads[0].program
    name = sorted(edited.procedures)[0]
    edited.procedures[name].instructions.append(Nop())
    third = session.analyze(edited)
    print(f"after editing {name!r}: invalidation cone = "
          f"{third.stats.get('invalidated_procedures', [])}")
    print(f"re-solved procedures  = {third.stats['solved_procedures']}")

    # -- 3. serial vs. process-backed wave scheduling --------------------------
    print("\n=== SCC-wave scheduling ===")
    big = workloads[-1].program
    serial = AnalysisService(ServiceConfig(use_cache=False))

    start = time.perf_counter()
    serial_types = serial.analyze(big)
    serial_seconds = time.perf_counter() - start

    # The process backend keeps warm worker processes until the service closes.
    with AnalysisService(ServiceConfig(use_cache=False, executor="processes")) as processes:
        start = time.perf_counter()
        processes_types = processes.analyze(big)
        processes_seconds = time.perf_counter() - start

    assert processes_types.report() == serial_types.report()
    widths = serial_types.stats["dag_wave_widths"]
    print(f"wave widths: {widths} (max {max(widths)} SCCs solvable concurrently)")
    print(f"serial {serial_seconds * 1000:.1f} ms, "
          f"processes {processes_seconds * 1000:.1f} ms -- identical results")


if __name__ == "__main__":
    main()
