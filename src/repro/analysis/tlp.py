"""Thread-level-parallelism diagnosis: contention vs imbalance.

Section VI-B's insight: the update phase's low TLP has *two distinct
causes*, visible only inside the scheduler --

- **thread contention** for short-tailed graphs on AS (threads wait on
  the hot vertices' coarse locks), and
- **workload imbalance** for heavy-tailed graphs on DAH (the chunk
  holding the hot vertex does most of the work while other chunks'
  threads idle).

The paper infers this indirectly from PCM counters; the simulator can
measure it directly.  Two per-batch metrics:

- ``lock_wait_share`` -- lock-wait cycles over total busy cycles
  (nonzero only for lock-based structures);
- ``imbalance`` -- max over mean per-thread *insert* work (the fixed
  per-batch routing overhead is excluded so the skew of the real work
  is visible; 1.0 is perfectly balanced, ``threads`` is one thread
  doing everything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.datasets.catalog import DEFAULT_BATCH_SIZE, load_dataset
from repro.graph import ExecutionContext, make_structure
from repro.streaming.batching import make_batches


@dataclass(frozen=True)
class TLPSample:
    """Parallelism diagnostics of one batch update."""

    batch_index: int
    speedup: float
    utilization: float
    lock_wait_share: float
    contended_acquires: int
    imbalance: float


@dataclass
class TLPReport:
    """Per-batch TLP diagnostics of one (dataset, structure) stream."""

    dataset: str
    structure: str
    threads: int
    samples: List[TLPSample]

    def mean(self, attribute: str) -> float:
        return float(np.mean([getattr(s, attribute) for s in self.samples]))


def run_tlp_report(
    dataset_name: str,
    structure_name: str,
    batch_size: int = DEFAULT_BATCH_SIZE,
    seed: int = 0,
    size_factor: float = 1.0,
    ctx: ExecutionContext = None,
) -> TLPReport:
    """Stream one dataset through one structure, diagnosing each batch."""
    dataset = load_dataset(dataset_name, seed=seed, size_factor=size_factor)
    if ctx is None:
        ctx = ExecutionContext()
    structure = make_structure(
        structure_name, dataset.max_nodes, directed=dataset.directed,
        cost_model=ctx.cost_model,
    )
    from dataclasses import replace as dc_replace

    keep_ctx = dc_replace(ctx, keep_tasks=True)
    threads = keep_ctx.threads
    samples: List[TLPSample] = []
    for index, batch in enumerate(
        make_batches(dataset.edges, batch_size, shuffle_seed=seed)
    ):
        result = structure.update(batch, keep_ctx)
        schedule = result.schedule
        busy = schedule.thread_busy_cycles
        busy_total = float(busy.sum())
        # Per-thread *insert* work, overhead tasks excluded.
        tasks = result.extra["tasks"]
        keep = ~tasks.overhead
        thread = np.where(
            tasks.chunk >= 0,
            tasks.chunk % threads,
            np.asarray(schedule.task_thread, dtype=np.int64),
        )
        work = np.bincount(
            thread[keep], weights=tasks.total_work[keep], minlength=threads
        )
        mean_work = float(work.mean()) if work.size else 0.0
        samples.append(
            TLPSample(
                batch_index=index,
                speedup=schedule.speedup,
                utilization=schedule.utilization,
                lock_wait_share=(
                    schedule.lock_wait_cycles / busy_total if busy_total else 0.0
                ),
                contended_acquires=schedule.contended_acquires,
                imbalance=(float(work.max()) / mean_work) if mean_work else 1.0,
            )
        )
    return TLPReport(
        dataset=dataset_name,
        structure=structure_name,
        threads=ctx.threads,
        samples=samples,
    )


def render_tlp(reports: Sequence[TLPReport]) -> str:
    """Plain-text table of the TLP diagnosis per stream."""
    lines = [
        "Update-phase TLP diagnosis: contention vs imbalance (Section VI-B)",
        "-" * 78,
        f"  {'dataset':8s} {'struct':8s} {'speedup':>8s} {'util':>6s} "
        f"{'lock-wait':>10s} {'imbalance':>10s}",
    ]
    for report in reports:
        lines.append(
            f"  {report.dataset:8s} {report.structure:8s} "
            f"{report.mean('speedup'):>8.2f} "
            f"{100 * report.mean('utilization'):>5.1f}% "
            f"{100 * report.mean('lock_wait_share'):>9.1f}% "
            f"{report.mean('imbalance'):>10.2f}"
        )
    return "\n".join(lines)
