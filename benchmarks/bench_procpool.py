"""Process backend scaling: serial vs. processes on the fig7 suite.

The solver is pure Python, so only worker processes can put more than one
core to work on the independent SCCs of a wave.  This benchmark analyzes the
Figure 7 standalone programs (scaled up so per-SCC solves amortize the chunk
codec + IPC) serially and on the process backend, and reports wall-clock
totals and the processes-vs-serial speedup.

Run modes:

* script (what CI's perf-smoke uses)::

      PYTHONPATH=src python benchmarks/bench_procpool.py --workers 2 --gate 1.35

* pytest (the acceptance gate, skipped on hosts with < 4 CPUs)::

      PYTHONPATH=src python -m pytest benchmarks/bench_procpool.py -q

Numbers land in ``benchmarks/results/procpool_scaling.txt``.
"""

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: the Figure 7 standalone entries (name, base function count); scaled below.
FIG7_ENTRIES = [
    ("libidn", 10),
    ("zlib", 14),
    ("ogg", 18),
    ("libbz2", 24),
    ("mcf", 8),
    ("bzip2", 16),
    ("sjeng", 22),
    ("hmmer", 30),
]

DEFAULT_SCALE = float(os.environ.get("REPRO_PROCPOOL_SCALE", "4.0"))


def _suite(scale):
    from repro.eval.workloads import make_workload

    return [
        make_workload(name, max(4, int(count * scale)), 20160613 + index)
        for index, (name, count) in enumerate(FIG7_ENTRIES)
    ]


def _run_backend(workloads, executor, workers):
    """Total wall-clock of analyzing every workload under one executor."""
    from repro.service import AnalysisService, ServiceConfig

    service = AnalysisService(
        ServiceConfig(use_cache=False, executor=executor, max_workers=workers)
    )
    try:
        # Warm-up on the smallest program: builds (and amortizes) the process
        # pool, touches every code path once for every backend alike.
        service.analyze(min(workloads, key=lambda w: w.instructions).program)
        per_program = []
        start = time.perf_counter()
        for workload in workloads:
            program_start = time.perf_counter()
            types = service.analyze(workload.program)
            per_program.append(
                (workload.name, time.perf_counter() - program_start, types)
            )
        total = time.perf_counter() - start
    finally:
        service.close()
    return total, per_program


def run(workers, scale, gate=None, write=True):
    cpus = os.cpu_count() or 1
    if gate is not None and cpus < max(2, workers):
        # Multi-core scaling is unmeasurable here; report, don't fail the CI
        # job for a hardware shortfall (mirrors the pytest gate's skip).
        print(
            f"SKIP: speedup gate needs >= {max(2, workers)} CPUs to be "
            f"meaningful, host has {cpus}; running report-only"
        )
        gate = None
    workloads = _suite(scale)
    totals = {}
    results_by_backend = {}
    for executor in ("serial", "processes"):
        total, per_program = _run_backend(workloads, executor, workers)
        totals[executor] = total
        results_by_backend[executor] = per_program

    # Identical outputs across backends -- a benchmark that changed answers
    # would be measuring a bug.
    for (_, _, serial_types), (_, _, process_types) in zip(
        results_by_backend["serial"], results_by_backend["processes"]
    ):
        assert process_types.report() == serial_types.report(), "backend results diverge"

    header = f"{'program':<12} {'procs':>6} {'serial_s':>9} {'processes_s':>12}"
    lines = [
        f"Process backend scaling: fig7 suite (scale {scale:g}), {workers} workers, "
        f"{os.cpu_count()} cpus",
        "",
        header,
        "-" * len(header),
    ]
    for index, workload in enumerate(workloads):
        serial_s = results_by_backend["serial"][index][1]
        processes_s = results_by_backend["processes"][index][1]
        procs = results_by_backend["serial"][index][2].stats["procedures"]
        lines.append(
            f"{workload.name:<12} {procs:>6} {serial_s:>9.3f} {processes_s:>12.3f}"
        )
    speedup_serial = totals["serial"] / max(totals["processes"], 1e-9)
    lines += [
        "-" * len(header),
        f"totals: serial {totals['serial']:.3f}s, processes {totals['processes']:.3f}s",
        f"speedup processes vs serial: {speedup_serial:.2f}x",
    ]
    report = "\n".join(lines)
    print(report)
    if write:
        from conftest import write_result

        write_result("procpool_scaling.txt", report)
    if gate is not None:
        assert speedup_serial >= gate, (
            f"process backend speedup {speedup_serial:.2f}x over serial is below "
            f"the {gate:.2f}x gate at {workers} workers"
        )
    return speedup_serial


def test_procpool_speedup_gate():
    """The acceptance bar: >= 1.8x over serial at 4 workers.

    Needs real cores; on smaller hosts the multi-core claim is untestable and
    the gate skips (CI's perf-smoke still runs the 2-worker script gate).
    """
    import pytest

    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 CPUs to measure 4-worker scaling")
    run(workers=4, scale=DEFAULT_SCALE, gate=1.8)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="worker count (default 4)")
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="suite scale factor"
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail unless processes beat serial by this factor",
    )
    parser.add_argument("--quick", action="store_true", help="half-scale quick run")
    args = parser.parse_args(argv)
    scale = args.scale / 2 if args.quick else args.scale
    run(workers=args.workers, scale=scale, gate=args.gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
