"""Simulator host-throughput benchmark with per-layer attribution.

Runs one named workload (see README.md) in this fresh process and
prints every metric by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

    python3 perfbench/run.py --workload scale-as-pr --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

``--trace 0`` times untraced passes and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced passes, reports
the per-layer metrics and writes the traced spans as Chrome
``trace_event`` JSON under ``.bench_build/perfbench/``.
``--record-digests`` stores the run's output digests for its seed in
``perfbench/digests.json``; do that only for a commit whose outputs
are known to be right.

Run it from the root of a source checkout: it imports the program from
``src/`` and compiles the C kernels into ``.bench_build/`` there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Batches beyond the tail percentile (choosing-metrics: >= 10).
TAIL_BEYOND = 10
#: A run times at least this many batches, so that a tail exists.
MIN_BATCHES = 2 * TAIL_BEYOND

END_TO_END = {
    "edges_per_s": "edges/s",
    "batch_ms.p50": "ms",
    "batch_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Self time (``_s``) is per traced pass, averaged over the traced passes.
PER_LAYER = {
    "graph.reference.ingest_s": "s",
    "graph.reference.churn_s": "s",
    "graph.update_s": "s",
    "graph.update_calls": "count",
    "graph.insert_yield": "fraction",
    "graph.delete_s": "s",
    "graph.delete_calls": "count",
    "compute.csrstore.apply_s": "s",
    "compute.csrstore.apply_calls": "count",
    "algorithms.frontier_s": "s",
    "algorithms.fs_s": "s",
    "algorithms.inc_s": "s",
    "algorithms.inc_delete_s": "s",
    "compute.pricing_s": "s",
    "compute.pricing_calls": "count",
    "datasets.generate_s": "s",
    "streaming.batching_s": "s",
    "streaming.driver.self_s": "s",
    "streaming.driver.unattributed_frac": "fraction",
    "analysis.hardware_profile.cell_s": "s",
    "analysis.hardware_profile.self_s": "s",
    "sim.cache.replay_s": "s",
    "sim.cache.replay_calls": "count",
    "sim.cache.accesses": "count",
    "trace.overhead_frac": "fraction",
}


def isolate_environment() -> None:
    """Clear every ``SAGA_BENCH_*`` gate; keep build files in the checkout.

    No ``LEGACY_*`` or ``NO_C*`` gate survives, and the compute kernels
    keep their default of one thread. The C build cache and the
    compiler's temporary files go under ``.bench_build/``.
    """
    for key in [k for k in os.environ if k.startswith("SAGA_BENCH_")]:
        del os.environ[key]
    os.environ["SAGA_BENCH_CKERNEL_DIR"] = str(BUILD_DIR / "ckernel")
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def load_kernels() -> dict:
    """Build (first time in a checkout) and load every compiled kernel."""
    from repro.compute import ckernels
    from repro.sim import cingest, ckernel

    return {
        "cingest": cingest.loaded(),
        "ckernels": ckernels.loaded(),
        "sim.ckernel": ckernel.get_kernel() is not None,
    }


def environment_facts(kernels: dict) -> dict:
    import numpy

    def first_line(command):
        try:
            probe = subprocess.run(
                command, capture_output=True, text=True, timeout=30, cwd=ROOT,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        lines = probe.stdout.splitlines()
        return lines[0].strip() if probe.returncode == 0 and lines else "unavailable"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": first_line(["cc", "--version"]),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "kernels_loaded": kernels,
        "cpus": os.cpu_count(),
    }


def tail(values_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(values_ms)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        raise ValueError(f"{len(ordered)} batches are too few for a tail")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end_metrics(passes, edges, setup_times):
    batch_ms = [1e3 * s for p in passes for s in p.batch_seconds]
    tail_ms, tail_pct = tail(batch_ms)
    notes = {
        "edges_per_s": f"{len(passes)} passes of {edges:,} edges: "
        + " ".join(f"{p.wall:.3f}" for p in passes) + " s",
        "batch_ms.p50": f"{len(batch_ms)} batches",
        "batch_ms.tail": f"p{tail_pct:.1f} of {len(batch_ms)} batches",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "this process",
    }
    values = {
        # Sustained throughput: all edges over all pass time. On a noisy
        # 2-vCPU VM it varied less from run to run than the median pass.
        "edges_per_s": edges * len(passes) / sum(p.wall for p in passes),
        "batch_ms.p50": statistics.median(batch_ms),
        "batch_ms.tail": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, notes


#: Span layers reported as ``<name>_s`` self time.
SPAN_LAYERS = (
    "graph.reference.ingest",
    "graph.reference.churn",
    "graph.update",
    "graph.delete",
    "compute.csrstore.apply",
    "algorithms.frontier",
    "algorithms.fs",
    "algorithms.inc",
    "algorithms.inc_delete",
    "compute.pricing",
    "streaming.batching",
    "sim.cache.replay",
)
#: Span layers that also report ``<name>_calls``.
COUNTED_LAYERS = (
    "graph.update",
    "graph.delete",
    "compute.csrstore.apply",
    "compute.pricing",
    "sim.cache.replay",
)
_CELL = "analysis.hardware_profile.cell"
#: The self-time metrics that together add up to the traced pass wall.
WALL_PARTITION = tuple(f"{name}_s" for name in SPAN_LAYERS) + (
    "analysis.hardware_profile.self_s",
    "streaming.driver.self_s",
)


def layer_metrics(recorder, traced, untraced, generate_times):
    """Per-layer self times and counts, per traced pass.

    ``streaming.driver.self_s`` is the traced wall minus every wrapped
    layer's self time: the driver's own code plus anything unwrapped.
    """
    n = len(traced)
    wall = sum(p.wall for p in traced) / n
    self_times = {k: v / n for k, v in recorder.self_times().items()}
    unknown = set(self_times) - set(SPAN_LAYERS) - {_CELL}
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    attributed = sum(self_times.values())
    values = {f"{name}_s": self_times.get(name, 0.0) for name in SPAN_LAYERS}
    for name in COUNTED_LAYERS:
        values[f"{name}_calls"] = recorder.calls.get(name, 0) / n
    counts = recorder.counts
    attempted = counts.get("graph.update.attempted", 0.0)
    values["graph.insert_yield"] = (
        counts.get("graph.update.inserted", 0.0) / attempted if attempted else 0.0
    )
    values["sim.cache.accesses"] = counts.get("sim.cache.accesses", 0.0) / n
    values["analysis.hardware_profile.cell_s"] = (
        recorder.inclusive_times().get(_CELL, 0.0) / n
    )
    values["analysis.hardware_profile.self_s"] = self_times.get(_CELL, 0.0)
    values["datasets.generate_s"] = statistics.median(generate_times)
    values["streaming.driver.self_s"] = wall - attributed
    values["streaming.driver.unattributed_frac"] = (wall - attributed) / wall
    untraced_wall = sum(p.wall for p in untraced) / len(untraced)
    values["trace.overhead_frac"] = wall / untraced_wall - 1.0
    notes = {
        "streaming.driver.self_s": f"traced wall {wall:.4f} s per pass, "
        f"{n} traced / {len(untraced)} untraced passes",
    }
    return values, notes


def run_workload(workload, seed, seconds, trace, record=False):
    """Time one workload; returns (result dict, printable lines)."""
    from perfbench import gate
    from perfbench.spans import Instrumentation, SpanRecorder
    from perfbench.workloads import BatchClock, layer_targets

    kernels = load_kernels()  # warms the build cache before any timing
    if not all(kernels.values()):
        raise SystemExit(f"compiled kernels not loaded: {kernels}")

    clock = BatchClock()
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPS):
        prepared = None  # let the previous set-up's inputs go first
        started = time.perf_counter()
        inputs = workload.generate(seed)
        generated = time.perf_counter()
        load_kernels()
        prepared = workload.build(inputs, seed, clock)
        setup_times.append(time.perf_counter() - started)
        generate_times.append(generated - started)
    del inputs
    expected = workload.expected(prepared)
    edges = workload.stream_edges(prepared)
    min_passes = math.ceil(MIN_BATCHES / workload.batch_count(prepared))

    untraced, traced = [], []
    recorder = SpanRecorder()
    targets = layer_targets(workload.hardware) if trace else []
    started = time.perf_counter()
    rounds = 0
    # A round is one untraced pass, plus one traced pass when tracing.
    # Rounds continue while the next one is expected to end within
    # ``seconds``; an untraced run times at least MIN_BATCHES batches.
    while True:
        untraced.append(workload.run_pass(prepared, clock, expected))
        if trace:
            clock.recorder = recorder
            with Instrumentation(recorder, targets):
                traced.append(workload.run_pass(prepared, clock, expected))
            clock.recorder = None
        rounds += 1
        elapsed = time.perf_counter() - started
        enough = trace or len(untraced) >= min_passes
        if enough and elapsed * (rounds + 1) / rounds > seconds:
            break

    passes = untraced + traced
    committed = None
    if not record:
        committed = gate.load_committed().get(workload.name, {}).get(str(seed))
    verdict = gate.check_passes(
        [p.digests for p in passes], committed, [p.counts_ok for p in passes]
    )
    if record and verdict.correct:
        store = gate.load_committed()
        store.setdefault(workload.name, {})[str(seed)] = passes[0].digests
        with open(gate.DIGEST_FILE, "w") as handle:
            json.dump(store, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if trace:
        values, notes = layer_metrics(recorder, traced, untraced, generate_times)
        units = PER_LAYER
        trace_dir = BUILD_DIR / "perfbench"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{workload.name}-seed{seed}.trace.json"
        recorder.write_chrome_trace(trace_path, origin=started)
    else:
        values, notes = end_to_end_metrics(untraced, edges, setup_times)
        units = END_TO_END

    lines = [
        f"workload {workload.name} seed {seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced passes, digests {verdict.digest_status}, "
        f"{verdict.failed}/{verdict.attempted} units failed "
        f"(failed_frac {verdict.failed_frac:.4f})",
    ]
    lines += [f"  problem: {problem}" for problem in verdict.problems]
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<38} {values[name]:>16.6f} {unit}{note}")
    if trace:
        lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    lines.append("env " + json.dumps(environment_facts(kernels), sort_keys=True))
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return result, lines


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program source under {ROOT / 'src'}; run from a checkout\n")
        return 2
    isolate_environment()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result, lines = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
        record=args.record_digests,
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
