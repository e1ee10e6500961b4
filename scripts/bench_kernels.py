"""Microbenchmark: compiled batch ingest vs the per-edge Python twins.

Replays the quick-mode Fig. 9 update workload -- the RMAT stream cut
into batches, ingested into every data structure and re-scheduled over
the core-scaling ladder -- through both implementations of the update
plane:

- the twins path (``SAGA_BENCH_NO_CINGEST=all``): the stores' per-edge
  Python twins, the reference and no-compiler fallback;
- the compiled path (default): one fused C ingest call per batch.

Both paths are checked bit-identical while being timed, then the
throughputs (scheduled tasks per second of emission + scheduling) and
the speedup are written to ``BENCH_kernels.json``.  Each path runs
``--repeat`` cold repetitions (fresh structure and address space every
time) and the minimum per path is reported, the standard way to keep
background-load noise out of a single-process comparison.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py
    PYTHONPATH=src python scripts/bench_kernels.py --min-speedup 3.0

``--min-speedup`` makes the script exit non-zero below the threshold
(the repo's acceptance bar is 3x on this workload); by default the
script only reports.  A developer tool, not part of the library.
"""

import argparse
import json
import os
import platform
import sys
import time

from repro.bench.harness import (
    DEFAULT_HISTORY,
    alternating_runs,
    append_history,
    batches_of,
    min_run,
    record_from_bench_json,
)
from repro.datasets import load_dataset
from repro.graph import ExecutionContext, make_structure
from repro.compute import ckernels
from repro.sim import ckernel, cingest
from repro.obs import METRICS
from repro.sim.machine import SCALED_SKYLAKE_GOLD_6142

#: The quick-mode Fig. 9 hardware-profile workload (see repro.cli).
DATASET = "RMAT"
SIZE_FACTOR = 0.5
BATCH_SIZE = 1250
CORE_LADDER = (4, 8, 16)
STRUCTURE_NAMES = ("AS", "AC", "Stinger", "DAH", "BA")
MACHINE = SCALED_SKYLAKE_GOLD_6142


def select_path(twins):
    """Route structures built from now on to the twins or the kernel."""
    if twins:
        os.environ[cingest.DISABLE_ENV] = "all"
    else:
        os.environ.pop(cingest.DISABLE_ENV, None)
    cingest.reset()


def run_path(name, batches, max_nodes, directed, twins):
    """Ingest + reschedule the workload on one path; return timing/fidelity."""
    select_path(twins)
    structure = make_structure(name, max_nodes, directed=directed)
    makespans = []
    ladder = []
    tasks_scheduled = 0
    started = time.perf_counter()
    for batch in batches:
        ctx = ExecutionContext(machine=MACHINE, keep_tasks=True)
        result = structure.update(batch, ctx)
        makespans.append(result.schedule.makespan_cycles)
        tasks_scheduled += result.schedule.task_count
        tasks = result.extra["tasks"]
        for cores in CORE_LADDER:
            rescheduled = structure.schedule_tasks(
                tasks,
                ExecutionContext(machine=MACHINE.with_cores(cores)),
            )
            ladder.append(rescheduled.makespan_cycles)
            tasks_scheduled += rescheduled.task_count
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "tasks_scheduled": tasks_scheduled,
        "tasks_per_second": tasks_scheduled / elapsed if elapsed else 0.0,
        "makespans": makespans,
        "ladder": ladder,
    }


def bench_structure(name, batches, max_nodes, directed, repeat=3):
    """Benchmark one structure on both paths; min-of-``repeat`` timing.

    Every repetition is a fully cold run -- a fresh structure and
    address space, no caching between runs -- and the two paths
    alternate so background load hits both equally.  Taking the minimum
    per path filters OS scheduling noise out of the comparison.
    """
    runs = alternating_runs(
        {
            "twins": lambda: run_path(name, batches, max_nodes, directed, twins=True),
            "compiled": lambda: run_path(
                name, batches, max_nodes, directed, twins=False
            ),
        },
        repeat,
    )
    twins_runs, compiled_runs = runs["twins"], runs["compiled"]
    twins = min_run(twins_runs)
    compiled = min_run(compiled_runs)
    for runs, ref in ((twins_runs, twins), (compiled_runs, compiled)):
        for run in runs:
            if run["makespans"] != ref["makespans"] or run["ladder"] != ref["ladder"]:
                raise SystemExit(f"{name}: repetitions diverge (non-deterministic)")
    if twins["makespans"] != compiled["makespans"]:
        raise SystemExit(f"{name}: compiled makespans diverge from the twins")
    if twins["ladder"] != compiled["ladder"]:
        raise SystemExit(f"{name}: compiled core-ladder makespans diverge")
    speedup = twins["seconds"] / compiled["seconds"]
    row = {
        "structure": name,
        "batches": len(batches),
        "tasks_scheduled": compiled["tasks_scheduled"],
        "twins_seconds": round(twins["seconds"], 4),
        "compiled_seconds": round(compiled["seconds"], 4),
        "twins_tasks_per_second": round(twins["tasks_per_second"]),
        "compiled_tasks_per_second": round(compiled["tasks_per_second"]),
        "speedup": round(speedup, 2),
    }
    print(
        f"{name:8s} {row['batches']:3d} batches  "
        f"twins {twins['seconds']:6.2f}s  "
        f"compiled {compiled['seconds']:6.2f}s  "
        f"speedup {speedup:5.2f}x  bit-identical"
    )
    return row


def collect_metrics(batches, max_nodes, directed):
    """Metrics snapshot of one compiled pass over the workload.

    Runs separately from the timed repetitions -- those execute with
    observability disabled so the reported numbers measure the kernels,
    not the instrumentation.  The snapshot (tasks emitted, schedules,
    lock contention per structure) is embedded in the output JSON so a
    benchmark record also documents what the workload actually did.
    """
    select_path(twins=False)
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enable()
    try:
        for name in STRUCTURE_NAMES:
            structure = make_structure(name, max_nodes, directed=directed)
            for batch in batches:
                structure.update(batch, ExecutionContext(machine=MACHINE))
        return METRICS.snapshot()
    finally:
        METRICS.enabled = was_enabled
        METRICS.reset()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_kernels.json", help="result file path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) if the overall speedup is below this factor",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="cold repetitions per path; the minimum time is reported",
    )
    parser.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        help="append a history record here ('' disables)",
    )
    args = parser.parse_args(argv)

    dataset = load_dataset(DATASET, seed=0, size_factor=SIZE_FACTOR)
    batches = batches_of(dataset, BATCH_SIZE)
    print(
        f"{DATASET} x{SIZE_FACTOR}: {len(dataset.edges)} edges, "
        f"{len(batches)} batches of {BATCH_SIZE}, "
        f"core ladder {CORE_LADDER}"
    )
    rows = [
        bench_structure(
            name, batches, dataset.max_nodes, dataset.directed, repeat=args.repeat
        )
        for name in STRUCTURE_NAMES
    ]
    select_path(twins=False)
    twins_total = sum(r["twins_seconds"] for r in rows)
    compiled_total = sum(r["compiled_seconds"] for r in rows)
    overall = twins_total / compiled_total
    print(
        f"overall  twins {twins_total:.2f}s  compiled {compiled_total:.2f}s  "
        f"speedup {overall:.2f}x"
    )
    payload = {
        "workload": {
            "dataset": DATASET,
            "size_factor": SIZE_FACTOR,
            "batch_size": BATCH_SIZE,
            "core_ladder": list(CORE_LADDER),
            "edges": len(dataset.edges),
            "repeat": args.repeat,
        },
        "python": platform.python_version(),
        "ckernel_loaded": ckernel.get_kernel() is not None,
        "cingest_loaded": cingest.loaded(),
        "compute_threads": ckernels.compute_threads(),
        "structures": rows,
        "metrics": collect_metrics(batches, dataset.max_nodes, dataset.directed),
        "twins_seconds": round(twins_total, 4),
        "compiled_seconds": round(compiled_total, 4),
        "speedup": round(overall, 2),
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if args.history:
        record = record_from_bench_json(payload, bench="kernels")
        append_history(record, args.history)
        print(f"appended history record to {args.history}")
    if args.min_speedup and overall < args.min_speedup:
        print(
            f"FAIL: speedup {overall:.2f}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
