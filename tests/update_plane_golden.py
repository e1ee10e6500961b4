"""Golden digests of the update plane: the oracle for its two paths.

Every data structure, directed and undirected, at 1, 6 and 16 threads
(16 exceeds the small test machine's 8 physical cores, so the SMT work
scale applies) runs one fixed script: fresh inserts, growth, duplicate
churn, a self-loop batch, empty batches, deletions of present and
absent edges, a re-insert, and a traced insert and delete at the end.
A second section runs hand-built task streams straight through the
dynamic scheduler (lock-free uniform and irregular streams, zero-cost
ties, mixed and all-locked streams, more threads than the compiled
event loop supports), with and without the simulated timeline.

Each case hashes, batch by batch:

- ``edges_inserted`` and ``duplicates``;
- every :class:`~repro.sim.scheduler.ScheduleResult` field, arrays as
  raw bytes (timelines included when captured);
- the kept :class:`~repro.sim.tasks.TaskArray` columns;
- the traced addresses, write flags and task ids;

plus the final graph contents, into one sha256 digest.  The digests in
``tests/data/update_plane_golden.json`` were recorded before the
update plane was cut down to the compiled ingest kernel and the native
stores' per-edge twins; ``tests/test_update_plane_golden.py`` checks
both surviving paths against them.

Re-record (only when a change to simulated outputs is intended)::

    PYTHONPATH=src python -m tests.update_plane_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.graph import EdgeBatch, ExecutionContext, make_structure
from repro.obs.tracer import TRACER
from repro.sim.scheduler import DynamicScheduler, ScheduleResult
from repro.sim.tasks import NO_LOCK, TaskArray
from repro.sim.trace import TraceRecorder
from tests.conftest import SMALL_MACHINE, random_batch

GOLDEN_PATH = Path(__file__).parent / "data" / "update_plane_golden.json"

STRUCTURES = ("AS", "AC", "BA", "Stinger", "DAH")
THREADS = (1, 6, SMALL_MACHINE.hardware_threads)
NODES = 48

#: Scalar and array fields of ScheduleResult, in digest order.
_SCHEDULE_FIELDS = (
    "makespan_cycles",
    "total_work_cycles",
    "threads",
    "task_count",
    "thread_busy_cycles",
    "task_thread",
    "lock_wait_cycles",
    "contended_acquires",
    "active_threads",
)


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def value(self, label: str, value) -> None:
        self._h.update(label.encode())
        if isinstance(value, np.ndarray):
            self._h.update(str(value.dtype).encode())
            self._h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            self._h.update(np.float64(value).tobytes())
        else:
            self._h.update(repr(value).encode())

    def schedule(self, schedule: ScheduleResult) -> None:
        for name in _SCHEDULE_FIELDS:
            value = getattr(schedule, name)
            if isinstance(value, (np.floating, np.integer)):
                value = value.item()
            self.value(name, value)
        self.value("extra", sorted(schedule.extra))
        timeline = schedule.extra.get("timeline")
        if timeline is not None:
            starts, ends = timeline
            self.value("starts", np.asarray(starts, dtype=np.float64))
            self.value("ends", np.asarray(ends, dtype=np.float64))

    def tasks(self, tasks: TaskArray) -> None:
        for name in TaskArray.__slots__:
            self.value(name, getattr(tasks, name))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _empty_batch() -> EdgeBatch:
    return EdgeBatch(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        weight=np.empty(0, dtype=np.float64),
    )


def _self_loop_batch() -> EdgeBatch:
    src = np.array([3, 3, 5, 7, 3, 11], dtype=np.int64)
    dst = np.array([3, 4, 5, 3, 3, 2], dtype=np.int64)
    return EdgeBatch(src=src, dst=dst, weight=np.arange(1.0, 7.0))


def structure_digest(name: str, directed: bool, threads: int) -> str:
    """Digest of one structure's scripted update/delete stream."""
    structure = make_structure(name, NODES, directed=directed)
    digest = _Digest()

    def ctx(**kwargs) -> ExecutionContext:
        return ExecutionContext(
            machine=SMALL_MACHINE, threads=threads, keep_tasks=True, **kwargs
        )

    first = random_batch(NODES, 260, seed=7)
    growth = random_batch(NODES, 260, seed=8)
    script = (
        ("update", first),
        ("update", growth),
        ("update", first),  # duplicate churn
        ("update", _self_loop_batch()),
        ("update", _empty_batch()),
        ("delete", first),
        ("delete", first),  # all misses now
        ("delete", _empty_batch()),
        ("update", first),  # reinsert after delete
    )
    for op, batch in script:
        result = getattr(structure, op)(batch, ctx())
        digest.value("op", op)
        digest.value("positive", result.edges_inserted)
        digest.value("negative", result.duplicates)
        digest.schedule(result.schedule)
        digest.tasks(result.extra["tasks"])
    for op, batch in (
        ("update", random_batch(NODES, 120, seed=9)),
        ("delete", random_batch(NODES, 90, seed=10)),
    ):
        result = getattr(structure, op)(batch, ctx(recorder=TraceRecorder()))
        digest.value("traced", op)
        digest.value("positive", result.edges_inserted)
        digest.value("negative", result.duplicates)
        digest.schedule(result.schedule)
        digest.tasks(result.extra["tasks"])
        digest.value("addresses", result.trace.addresses)
        digest.value("is_write", result.trace.is_write)
        digest.value("task_ids", result.trace.task_ids)
    digest.value("num_edges", structure.num_edges)
    digest.value("num_nodes", structure.num_nodes)
    for v in range(NODES):
        digest.value("out", [(int(u), float(w)) for u, w in structure.out_neigh(v)])
        digest.value("in", [(int(u), float(w)) for u, w in structure.in_neigh(v)])
    return digest.hexdigest()


def scheduler_streams() -> Dict[str, TaskArray]:
    """Hand-built dynamic-scheduler streams covering every loop shape."""
    rng = np.random.default_rng(29)
    n = 700
    irregular = rng.uniform(0.5, 40.0, size=n)
    locked = rng.uniform(0.0, 20.0, size=n)
    locks = rng.integers(0, 9, size=n)
    return {
        "uniform_lockfree": TaskArray.build(n, unlocked_work=12.5, locked_work=3.0),
        "few_lockfree": TaskArray.build(5, unlocked_work=irregular[:5]),
        "zero_cost": TaskArray.build(40, unlocked_work=0.0),
        "irregular_lockfree": TaskArray.build(
            n, unlocked_work=irregular, locked_work=locked
        ),
        "all_locked": TaskArray.build(
            n,
            unlocked_work=irregular,
            locked_work=locked,
            lock=locks,
            fine_lock=rng.random(n) < 0.3,
        ),
        "mixed_locks": TaskArray.build(
            n,
            unlocked_work=irregular,
            locked_work=locked,
            lock=np.where(rng.random(n) < 0.5, locks * 1000, NO_LOCK),
            fine_lock=rng.random(n) < 0.5,
        ),
    }


#: Thread counts for the direct scheduler cases; 80 exceeds the
#: compiled event loop's fixed heap and forces the Python loop.
SCHEDULER_THREADS = (1, 6, 16, 80)


def scheduler_digest(stream: str, threads: int, timeline: bool) -> str:
    tasks = scheduler_streams()[stream]
    saved = (TRACER.enabled, TRACER.keep_events, TRACER.sim_timeline)
    if timeline:
        TRACER.enable(sim_timeline=True)
    try:
        schedule = DynamicScheduler(threads, physical_cores=8).run(tasks)
    finally:
        TRACER.enabled, TRACER.keep_events, TRACER.sim_timeline = saved
    digest = _Digest()
    digest.schedule(schedule)
    return digest.hexdigest()


def all_digests() -> Dict[str, str]:
    digests: Dict[str, str] = {}
    for name in STRUCTURES:
        for directed in (True, False):
            for threads in THREADS:
                key = f"{name}/{'directed' if directed else 'undirected'}/t{threads}"
                digests[key] = structure_digest(name, directed, threads)
    for stream in scheduler_streams():
        for threads in SCHEDULER_THREADS:
            for timeline in (False, True):
                key = f"scheduler/{stream}/t{threads}" + ("/timeline" if timeline else "")
                digests[key] = scheduler_digest(stream, threads, timeline)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"overwrite {GOLDEN_PATH.name}"
    )
    args = parser.parse_args(argv)
    digests = all_digests()
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text())
    bad = sorted(key for key in golden if digests.get(key) != golden[key])
    for key in bad:
        print(f"MISMATCH {key}")
    print(f"{len(golden) - len(bad)}/{len(golden)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
