"""Differential tests: the update plane's two implementations.

Every structure's update plane has a compiled fast path (the batch
ingest kernels of ``repro.sim.cingest``) and a reference (the stores'
per-edge Python twins, selected with ``SAGA_BENCH_NO_CINGEST=all``).
The dynamic scheduler likewise has the compiled event loop of
``repro.sim.ckernel`` and the Python loop.  The two must be
**bit-identical** -- not approximately equal.  The first group of
tests runs the same edge stream through a structure on both ingest
paths and compares makespans, total work, lock-wait cycles,
contended-acquire counts, per-thread busy time, task-to-thread
assignments, and (when tracing) cache hit/miss counts with ``==`` on
the raw floats.

A second group feeds task batches straight to the schedulers: the
dynamic scheduler's compiled loop against its Python loop, and the
chunked scheduler's bincount against a per-task reference loop.
"""

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.graph import EdgeBatch, ExecutionContext, STRUCTURES, make_structure
from repro.sim import cingest, ckernel
from repro.sim.cache import CacheHierarchy
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.scheduler import (
    ChunkedScheduler,
    DynamicScheduler,
    ScheduleResult,
    work_scale,
)
from repro.sim.tasks import NO_CHUNK, NO_LOCK, TaskArray
from repro.sim.trace import TraceRecorder
from tests.conftest import SMALL_MACHINE, random_batch

ALL = sorted(STRUCTURES)


@contextmanager
def python_twins(enabled: bool):
    """Build structures on the per-edge Python twins (kernels disabled)."""
    saved = os.environ.get(cingest.DISABLE_ENV)
    try:
        if enabled:
            os.environ[cingest.DISABLE_ENV] = "all"
        else:
            os.environ.pop(cingest.DISABLE_ENV, None)
        cingest.reset()
        yield
    finally:
        if saved is None:
            os.environ.pop(cingest.DISABLE_ENV, None)
        else:
            os.environ[cingest.DISABLE_ENV] = saved
        cingest.reset()


def stream_batches(num_nodes=48, batches=3, edges=220, seed=17):
    """A deterministic multi-batch edge stream (rng created per call)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        src = rng.integers(0, num_nodes, size=edges).astype(np.int64)
        dst = rng.integers(0, num_nodes, size=edges).astype(np.int64)
        weight = rng.integers(1, 9, size=edges).astype(np.float64)
        out.append(EdgeBatch(src=src, dst=dst, weight=weight))
    return out


def run_stream(name, twins, threads, delete_last=False, trace=False):
    """Ingest the reference stream and collect every comparable number."""
    with python_twins(twins):
        structure = make_structure(name, 48)
        hierarchy = CacheHierarchy(SMALL_MACHINE, threads=threads)
        observed = []
        batches = stream_batches()
        for index, batch in enumerate(batches):
            recorder = TraceRecorder() if trace else None
            ctx = ExecutionContext(
                machine=SMALL_MACHINE, threads=threads, recorder=recorder
            )
            last = index == len(batches) - 1
            if delete_last and last:
                result = structure.delete(batch, ctx)
            else:
                result = structure.update(batch, ctx)
            schedule = result.schedule
            row = {
                "makespan": schedule.makespan_cycles,
                "total_work": schedule.total_work_cycles,
                "lock_wait": schedule.lock_wait_cycles,
                "contended": schedule.contended_acquires,
                "task_count": schedule.task_count,
                "thread_busy": schedule.thread_busy_cycles.tolist(),
                "task_thread": schedule.task_thread.tolist(),
                "positive": result.edges_inserted,
                "negative": result.duplicates,
                "edges": structure.num_edges,
                "nodes": structure.num_nodes,
            }
            if trace:
                stats = hierarchy.replay(result.trace, schedule.task_thread)
                row["cache"] = (
                    stats.accesses,
                    stats.l1_hits,
                    stats.l2_hits,
                    stats.llc_hits,
                    stats.local_memory_accesses,
                    stats.remote_memory_accesses,
                )
            observed.append(row)
        return observed


def assert_bit_identical(name, **kwargs):
    twins = run_stream(name, twins=True, **kwargs)
    compiled = run_stream(name, twins=False, **kwargs)
    assert twins == compiled  # exact: no approx anywhere


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("threads", [1, 6])
class TestStructureDifferential:
    def test_update_stream(self, name, threads):
        assert_bit_identical(name, threads=threads)

    def test_delete_batch(self, name, threads):
        assert_bit_identical(name, threads=threads, delete_last=True)


@pytest.mark.parametrize("name", ALL)
class TestStructureDifferentialInstrumented:
    def test_smt_threads(self, name):
        # More threads than physical cores: the SMT work dilation must
        # round identically on both paths.
        assert name  # parametrization guard
        assert_bit_identical(name, threads=SMALL_MACHINE.hardware_threads)

    def test_trace_and_cache_replay(self, name):
        assert_bit_identical(name, threads=4, trace=True)

    def test_empty_batch(self, name):
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=4, keep_tasks=True)
        with python_twins(False):
            structure = make_structure(name, 8)
            result = structure.update(EdgeBatch.empty(), ctx)
        with python_twins(True):
            twin_structure = make_structure(name, 8)
            twin_result = twin_structure.update(EdgeBatch.empty(), ctx)
        assert (
            result.schedule.makespan_cycles
            == twin_result.schedule.makespan_cycles
        )
        assert result.schedule.task_thread.dtype == np.int32
        assert result.edges_inserted == twin_result.edges_inserted == 0

    def test_columnar_emits_task_array(self, name):
        # Both paths emit the same task columns, not just the same
        # schedules.
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=4, keep_tasks=True)
        batch = random_batch(16, 60, seed=3)
        emitted = []
        for twins in (False, True):
            with python_twins(twins):
                structure = make_structure(name, 16)
                emitted.append(structure.update(batch, ctx).extra["tasks"])
        compiled, twin = emitted
        assert isinstance(compiled, TaskArray) and isinstance(twin, TaskArray)
        assert len(compiled) == len(twin)
        for column in TaskArray.__slots__:
            assert getattr(compiled, column).tolist() == getattr(twin, column).tolist()


# ---------------------------------------------------------------------------
# Scheduler kernels: compiled vs Python loop, bincount vs per-task loop
# ---------------------------------------------------------------------------

COST = DEFAULT_COST_MODEL


def assert_same_schedule(result, reference):
    assert result.makespan_cycles == reference.makespan_cycles
    assert result.total_work_cycles == reference.total_work_cycles
    assert result.lock_wait_cycles == reference.lock_wait_cycles
    assert result.contended_acquires == reference.contended_acquires
    assert result.task_count == reference.task_count
    assert result.thread_busy_cycles.tolist() == reference.thread_busy_cycles.tolist()
    assert result.task_thread.tolist() == reference.task_thread.tolist()


def run_dynamic_both(scheduler: DynamicScheduler, tasks: TaskArray):
    """Schedule on the compiled loop and on the Python loop; must agree."""
    compiled = scheduler.run(tasks)
    with mock.patch.object(ckernel, "get_kernel", return_value=None):
        python = scheduler.run(tasks)
    assert_same_schedule(compiled, python)
    return compiled


def chunked_reference(scheduler: ChunkedScheduler, tasks: TaskArray):
    """The chunked schedule as a per-task loop (chunk c on thread c % T)."""
    threads = scheduler.threads
    scale = work_scale(threads, scheduler.physical_cores, scheduler.cost)
    busy = np.zeros(threads)
    assignment = []
    total = 0.0
    for work, chunk in zip(tasks.total_work.tolist(), tasks.chunk.tolist()):
        tid = chunk % threads
        busy[tid] += work * scale
        total += work
        assignment.append(tid)
    return ScheduleResult(
        makespan_cycles=float(busy.max()) if len(tasks) else 0.0,
        total_work_cycles=total,
        threads=threads,
        task_count=len(tasks),
        thread_busy_cycles=busy,
        task_thread=np.asarray(assignment, dtype=np.int32),
    )


class TestDynamicKernels:
    def run_both(self, tasks: TaskArray, threads, physical_cores=None):
        scheduler = DynamicScheduler(
            threads, physical_cores=physical_cores, cost_model=COST
        )
        return run_dynamic_both(scheduler, tasks)

    def test_fast_path_fewer_tasks_than_threads(self):
        # n <= threads, distinct positive completion times.
        tasks = TaskArray.build(5, unlocked_work=[3.0, 8.0, 1.0, 9.0, 2.0])
        result = self.run_both(tasks, threads=8)
        assert result.task_thread.tolist() == [0, 1, 2, 3, 4]

    def test_fast_path_uniform_ladder(self):
        # Uniform costs, n > threads: dispatch is round-robin.
        tasks = TaskArray.build(23, unlocked_work=4.0, locked_work=0.0)
        result = self.run_both(tasks, threads=4)
        assert result.task_thread.tolist() == [i % 4 for i in range(23)]

    def test_zero_cost_tasks_fall_back_to_event_loop(self):
        # Zero completion times tie every (end, thread) pair on the
        # heap's root: every task lands on thread 0.
        free = CostModel(
            task_dispatch=0.0,
            lock_acquire=0.0,
            lock_release=0.0,
            smt_work_scale=1.0,
        )
        tasks = TaskArray.build(6, unlocked_work=0.0)
        result = run_dynamic_both(DynamicScheduler(4, cost_model=free), tasks)
        assert result.task_thread.tolist() == [0] * 6

    def test_irregular_lockfree_falls_back(self):
        tasks = TaskArray.build(17, unlocked_work=np.linspace(1.0, 9.0, 17))
        self.run_both(tasks, threads=4)

    def test_locked_stream(self):
        rng = np.random.default_rng(5)
        n = 60
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 20.0, n),
            locked_work=rng.uniform(0.0, 20.0, n),
            lock=rng.integers(-1, 4, n),
            fine_lock=rng.integers(0, 2, n).astype(bool),
        )
        result = self.run_both(tasks, threads=6)
        assert result.contended_acquires > 0

    def test_smt_scale(self):
        rng = np.random.default_rng(6)
        n = 40
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 10.0, n),
            locked_work=rng.uniform(0.0, 10.0, n),
            lock=rng.integers(-1, 3, n),
        )
        self.run_both(tasks, threads=16, physical_cores=8)

    def test_empty_array(self):
        result = DynamicScheduler(4, cost_model=COST).run(TaskArray.empty())
        assert result.makespan_cycles == 0.0
        assert result.task_thread.dtype == np.int32
        assert len(result.task_thread) == 0


class TestChunkedKernels:
    def test_bincount_matches_loop(self):
        rng = np.random.default_rng(8)
        n = 80
        tasks = TaskArray.build(
            n,
            unlocked_work=rng.uniform(0.0, 30.0, n),
            chunk=rng.integers(0, 16, n),
        )
        scheduler = ChunkedScheduler(6, cost_model=COST)
        assert_same_schedule(scheduler.run(tasks), chunked_reference(scheduler, tasks))

    def test_smt_scale(self):
        tasks = TaskArray.build(
            12, unlocked_work=np.arange(12, dtype=np.float64), chunk=np.arange(12)
        )
        scheduler = ChunkedScheduler(16, physical_cores=8, cost_model=COST)
        assert_same_schedule(scheduler.run(tasks), chunked_reference(scheduler, tasks))

    def test_chunkless_array_rejected(self):
        tasks = TaskArray.build(3, unlocked_work=1.0)  # chunk = NO_CHUNK
        with pytest.raises(SimulationError):
            ChunkedScheduler(2, cost_model=COST).run(tasks)


@st.composite
def task_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    values = st.floats(min_value=0.0, max_value=50.0)
    return TaskArray.build(
        n,
        unlocked_work=np.asarray([draw(values) for _ in range(n)]),
        locked_work=np.asarray([draw(values) for _ in range(n)]),
        lock=np.asarray(
            [draw(st.integers(min_value=-1, max_value=4)) for _ in range(n)],
            dtype=np.int64,
        )
        if n
        else np.empty(0, dtype=np.int64),
        fine_lock=np.asarray([draw(st.booleans()) for _ in range(n)], dtype=bool)
        if n
        else np.empty(0, dtype=bool),
    )


@given(
    tasks=task_arrays(),
    threads=st.one_of(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=ckernel.MAX_KERNEL_THREADS - 1, max_value=80),
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_dynamic_bit_identity(tasks, threads):
    """Any task batch schedules bit-identically on both event loops.

    Thread counts above ``MAX_KERNEL_THREADS`` run the Python loop on
    both sides; they must still schedule without error.
    """
    scheduler = DynamicScheduler(threads, physical_cores=6, cost_model=COST)
    run_dynamic_both(scheduler, tasks)


@given(tasks=task_arrays(), threads=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_property_chunked_bit_identity(tasks, threads):
    pinned = TaskArray.build(
        len(tasks),
        unlocked_work=tasks.unlocked_work,
        locked_work=tasks.locked_work,
        chunk=np.arange(len(tasks), dtype=np.int64) % 7,
    )
    scheduler = ChunkedScheduler(threads, physical_cores=6, cost_model=COST)
    assert_same_schedule(scheduler.run(pinned), chunked_reference(scheduler, pinned))


class TestTaskArrayContainer:
    def test_round_trip(self):
        array = TaskArray.build(
            2,
            unlocked_work=[1.0, 4.0],
            locked_work=[2.0, 0.0],
            lock=[3, NO_LOCK],
            chunk=[NO_CHUNK, 2],
            fine_lock=[True, False],
            overhead=[False, True],
        )
        assert array.lock.tolist() == [3, NO_LOCK]
        assert array.chunk.tolist() == [NO_CHUNK, 2]
        assert array.total_work.tolist() == [3.0, 4.0]
        assert array.fine_lock.dtype == bool and array.overhead.tolist() == [False, True]
        assert len(array) == 2 and bool(array)
        with pytest.raises(TypeError):
            array[0]  # tasks are read through the columns

    def test_empty_is_falsy(self):
        assert not TaskArray.empty()

    def test_concatenate_filters_empty(self):
        a = TaskArray.build(2, unlocked_work=1.0)
        merged = TaskArray.concatenate([TaskArray.empty(), a, TaskArray.empty()])
        assert merged is a
        both = TaskArray.concatenate([a, TaskArray.build(1, unlocked_work=5.0)])
        assert both.unlocked_work.tolist() == [1.0, 1.0, 5.0]

    def test_slice_returns_array(self):
        array = TaskArray.build(4, unlocked_work=[1.0, 2.0, 3.0, 4.0])
        head = array[:2]
        assert isinstance(head, TaskArray)
        assert head.unlocked_work.tolist() == [1.0, 2.0]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            TaskArray(
                unlocked_work=np.zeros(3),
                locked_work=np.zeros(2),
                lock=np.zeros(3, dtype=np.int64),
                chunk=np.zeros(3, dtype=np.int64),
                fine_lock=np.zeros(3, dtype=bool),
                overhead=np.zeros(3, dtype=bool),
            )
