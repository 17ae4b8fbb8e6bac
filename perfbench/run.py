"""The benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer split instead (see README.md).  The last
line of standard output is the result object; the exit code is non-zero
when any output check failed, or when the run crashed (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: workload -> the one-line reason it exists (recorded with its inputs).
WHY = {
    "cold_batch": "every in-process layer does its full work: parse, IR dataflow, "
    "constraint generation, solver stages, display",
    "edit_stream": "the summary store's read and write paths under one-function edits; "
    "the solver re-solves only the edited cone",
}


def write_out(name: str, data) -> None:
    """Write ``data`` under ``.perfbench_out``: a list as JSON lines, else one document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        if isinstance(data, list):
            for row in data:
                handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")
        else:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[0:0] = [ROOT, src]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import inprocess
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.metrics import Tally
    from perfbench.report import END_TO_END_UNITS

    runners = {
        "cold_batch": inprocess.run_cold_batch,
        "edit_stream": inprocess.run_edit_stream,
    }
    tally = Tally()
    run_id = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    try:
        metrics, record, spans = runners[args.workload](args, tally, run_id)
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 4

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, why=WHY[args.workload])
    extra = {name: value for name, value in metrics.items() if name not in units}
    if extra:
        record["extra_metrics"] = extra
    write_out(f"{args.workload}.inputs.json", record)
    if spans is not None:
        write_out(f"{args.workload}.trace.jsonl", spans)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 4
    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"inputs": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
