"""Deterministic parallel-execution model.

The graph data structures translate one batch update (or one compute
phase) into tasks -- "insert edge (u, v)", "evaluate the vertex
function of v" -- each carrying its cycle cost and, where relevant, the
lock it must hold and the chunk it is pinned to.  This module turns
such tasks into a *makespan*: the simulated parallel latency of the
phase on a given thread count.

Three execution models mirror the three multithreading styles in the
paper (Section III-A):

- :class:`DynamicScheduler` -- OpenMP-style dynamic scheduling with
  shared-memory locks (used by AS and Stinger).  A discrete-event
  greedy list scheduler: tasks are dispatched in order to the
  earliest-free thread; a task that needs a lock waits until the lock
  frees, and a contended acquire pays the cache-line ping-pong penalty.
- :class:`ChunkedScheduler` -- chunked-style multithreading (used by AC
  and DAH).  Each chunk is single-threaded and lockless; chunks map
  round-robin onto threads and a thread's time is the sum of its
  chunks' work.
- :func:`parallel_for_makespan` -- a lock-free OpenMP ``parallel for``
  (the compute phase).  Uses the greedy list-scheduling bound, which is
  exact for dynamic scheduling of independent tasks up to dispatch
  granularity.

Tasks arrive as a columnar :class:`~repro.sim.tasks.TaskArray`.  The
chunked style is one ``np.bincount`` reduction.  The dynamic style has
two implementations of one event loop: a Python loop -- the reference,
which also captures the simulated timeline, runs when no C compiler is
available or ``SAGA_BENCH_NO_CKERNEL`` is set, and handles more threads
than the compiled heap holds -- and the compiled loop in
:mod:`repro.sim.ckernel`.  Both produce **bit-identical**
:class:`ScheduleResult` fields (``tests/test_sim_ckernel.py``).

All three report a :class:`ScheduleResult` with the makespan, total
work, and per-thread busy time, plus the task-to-thread assignment that
the cache model uses to replay memory traces through private caches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.tracer import TRACER
from repro.sim import ckernel
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.tasks import NO_CHUNK, NO_LOCK, TaskArray  # noqa: F401 - re-exported


@dataclass
class ScheduleResult:
    """Outcome of scheduling one phase on ``threads`` threads."""

    makespan_cycles: float
    total_work_cycles: float
    threads: int
    task_count: int
    thread_busy_cycles: np.ndarray
    task_thread: np.ndarray
    lock_wait_cycles: float = 0.0
    contended_acquires: int = 0
    extra: dict = field(default_factory=dict)
    #: Threads that can actually receive work.  ``None`` means all of
    #: them; the chunked scheduler sets it to the number of distinct
    #: target threads so that ``utilization`` is not diluted by threads
    #: that no chunk maps to (``threads`` > number of chunks).
    active_threads: Optional[int] = None

    @property
    def utilization(self) -> float:
        """Fraction of *eligible* thread-cycles spent doing useful work."""
        eligible = self.threads if self.active_threads is None else self.active_threads
        capacity = self.makespan_cycles * eligible
        if capacity <= 0:
            return 0.0
        return float(self.total_work_cycles / capacity)

    @property
    def speedup(self) -> float:
        """Achieved speedup over serial execution of the same work."""
        if self.makespan_cycles <= 0:
            return 0.0
        return float(self.total_work_cycles / self.makespan_cycles)


#: Iterations one ``parallel for`` dispatch hands a thread: the
#: per-dispatch overhead is amortized over this many tasks.
PARALLEL_FOR_CHUNK = 64


def graham_makespan(total: float, longest: float, threads: int, scale: float) -> float:
    """Greedy list-scheduling bound ``(total/T + (1 - 1/T) * longest) * scale``.

    Graham's bound for dynamic scheduling of independent tasks: ``total``
    cycles of work over ``threads`` threads, the ``longest`` task
    finishing last, dilated by the SMT ``scale``.
    """
    return (total / threads + (1.0 - 1.0 / threads) * longest) * scale


def work_scale(threads: int, physical_cores: int, cost: CostModel) -> float:
    """Per-thread work dilation when SMT siblings share cores."""
    if physical_cores <= 0:
        raise SimulationError(f"physical_cores must be positive, got {physical_cores}")
    if threads <= physical_cores:
        return 1.0
    return cost.smt_work_scale


def _empty_result(threads: int) -> ScheduleResult:
    return ScheduleResult(
        makespan_cycles=0.0,
        total_work_cycles=0.0,
        threads=threads,
        task_count=0,
        thread_busy_cycles=np.zeros(threads),
        task_thread=np.empty(0, dtype=np.int32),
    )


def _chunked_timeline(tid: np.ndarray, scaled_work: np.ndarray) -> tuple:
    """Per-task (start, end) cycles for chunk-pinned serial execution.

    A thread executes its tasks serially in task order, so a task's
    start is the running occupancy of its thread.  Used only when the
    tracer's simulated-timeline capture is on.
    """
    n = len(tid)
    starts = np.empty(n)
    ends = np.empty(n)
    offsets: dict = {}
    tid_list = tid.tolist()
    work_list = scaled_work.tolist()
    for i in range(n):
        t = tid_list[i]
        start = offsets.get(t, 0.0)
        end = start + work_list[i]
        offsets[t] = end
        starts[i] = start
        ends[i] = end
    return starts, ends


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum, bit-identical to a Python ``+=`` loop.

    ``np.sum`` uses pairwise summation, which rounds differently from
    a per-task accumulation in task order; ``np.cumsum`` accumulates
    strictly left to right, so its last element matches the loop.
    """
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


class DynamicScheduler:
    """OpenMP-style dynamic scheduling with shared locks.

    Tasks are dispatched in list order: whenever a thread becomes free
    it grabs the next undispatched task.  A task runs its unlocked
    portion immediately, then waits for its lock (if any).  This greedy
    event-driven model captures the two phenomena the paper attributes
    to the update phase's low thread-level parallelism: serialization
    behind hot per-vertex locks, and threads idling while blocked.
    """

    def __init__(
        self,
        threads: int,
        physical_cores: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        dispatch_chunk: int = 1,
    ) -> None:
        if threads < 1:
            raise SimulationError(f"threads must be >= 1, got {threads}")
        if dispatch_chunk < 1:
            raise SimulationError(f"dispatch_chunk must be >= 1, got {dispatch_chunk}")
        self.threads = threads
        self.physical_cores = physical_cores if physical_cores is not None else threads
        self.cost = cost_model
        self.dispatch_chunk = dispatch_chunk

    def run(self, tasks: TaskArray) -> ScheduleResult:
        """Schedule ``tasks`` and return the resulting makespan.

        The per-task increments for every outcome of the lock branch
        are precomputed as columns, each replicating the scalar term
        grouping elementwise (IEEE float64 ops are identical either
        way): uncontended ``end += (locked + base) * s``, contended
        ``end += (locked + (base + penalty)) * s``, lock-free
        ``end += locked * s``.  Either event loop then walks them;
        total work and lock wait are summed afterwards in task order.
        """
        n = len(tasks)
        threads = self.threads
        if n == 0:
            return _empty_result(threads)
        cost = self.cost
        scale = work_scale(threads, self.physical_cores, cost)
        dispatch = (cost.task_dispatch / self.dispatch_chunk) * scale
        acquire_base = cost.lock_acquire + cost.lock_release
        locked = tasks.locked_work
        penalty = np.where(
            tasks.fine_lock,
            cost.fine_lock_contended_penalty,
            cost.lock_contended_penalty,
        )
        columns = (
            tasks.unlocked_work * scale,
            locked * scale,
            (locked + acquire_base) * scale,
            (locked + (acquire_base + penalty)) * scale,
        )
        # Timeline capture (``--trace-out``) needs per-task start/end
        # times, which only the Python loop records.
        timeline = TRACER.sim_timeline
        kernel = None
        if not timeline and threads <= ckernel.MAX_KERNEL_THREADS:
            kernel = ckernel.get_kernel()
        if kernel is not None:
            loop = _compiled_event_loop(kernel, threads, dispatch, tasks.lock, columns)
        else:
            loop = _python_event_loop(threads, dispatch, tasks.lock, columns, timeline)
        makespan, busy, assignment, contended_idx, waits, extra = loop
        work = tasks.unlocked_work + locked
        work_values = np.where(tasks.lock >= 0, work + acquire_base, work)
        if len(contended_idx):
            work_values[contended_idx] = (work + (acquire_base + penalty))[contended_idx]
        return ScheduleResult(
            makespan_cycles=makespan,
            total_work_cycles=_sequential_sum(work_values),
            threads=threads,
            task_count=n,
            thread_busy_cycles=busy,
            task_thread=assignment,
            lock_wait_cycles=_sequential_sum(waits),
            contended_acquires=len(contended_idx),
            extra=extra,
        )


def _python_event_loop(threads, dispatch, locks, columns, timeline) -> tuple:
    """The reference event loop over precomputed increment columns.

    Whenever a thread becomes free (the root of a min-heap of
    ``(free_at, thread)`` pairs) it takes the next task: it runs the
    unlocked portion, then acquires the task's lock, waiting if the
    lock is held.  One ``heapreplace`` per task: the heap holds
    totally ordered distinct pairs, so its pop sequence -- and hence
    the schedule -- does not depend on the heap's internal layout.
    With ``timeline`` set, each task's (start, end) cycles are kept in
    ``extra["timeline"]``.
    """
    unlocked, plain, uncontended, contended = (column.tolist() for column in columns)
    free_at = [(0.0, t) for t in range(threads)]
    heapreplace = heapq.heapreplace
    lock_free: dict = {}
    lock_get = lock_free.get
    busy = [0.0] * threads
    assignment: list = []
    contended_idx: list = []
    waits: list = []
    starts: list = []
    ends: list = []
    for i, (u, lock, l_plain, l_unc, l_con) in enumerate(
        zip(unlocked, locks.tolist(), plain, uncontended, contended)
    ):
        t_free, tid = free_at[0]
        unlocked_end = (t_free + dispatch) + u
        if lock >= 0:
            acquire_ready = lock_get(lock, 0.0)
            if acquire_ready > unlocked_end:
                contended_idx.append(i)
                waits.append(acquire_ready - unlocked_end)
                end = acquire_ready + l_con
            else:
                end = unlocked_end + l_unc
            lock_free[lock] = end
        else:
            end = unlocked_end + l_plain
        assignment.append(tid)
        busy[tid] += end - t_free
        if timeline:
            starts.append(t_free)
            ends.append(end)
        heapreplace(free_at, (end, tid))
    extra = {"timeline": (np.asarray(starts), np.asarray(ends))} if timeline else {}
    return (
        max(t for t, _ in free_at),
        np.asarray(busy),
        np.asarray(assignment, dtype=np.int32),
        np.asarray(contended_idx, dtype=np.int64),
        np.asarray(waits, dtype=np.float64),
        extra,
    )


def _compiled_event_loop(kernel, threads, dispatch, locks, columns) -> tuple:
    """Drive the :mod:`repro.sim.ckernel` loop; bit-identical output.

    The increment columns go to the compiled loop as raw float64
    buffers.  Lock ids are densified so the kernel's lock table is a
    flat zero-initialised array (matching the Python dict's
    ``get(lock, 0.0)`` default); negative ids (lock-free tasks) pass
    through unchanged.
    """
    n = len(locks)
    unlocked, plain, uncontended, contended = columns
    uniq, inverse = np.unique(locks, return_inverse=True)
    negatives = int(np.searchsorted(uniq, 0))
    dense = np.ascontiguousarray(inverse.astype(np.int64) - negatives)
    lock_free = np.zeros(max(len(uniq) - negatives, 1))
    busy = np.zeros(threads)
    assignment = np.empty(n, dtype=np.int32)
    contended_idx = np.empty(n, dtype=np.int64)
    waits = np.empty(n)
    makespan_out = np.zeros(1)
    count = int(
        kernel(
            n,
            threads,
            dispatch,
            unlocked.ctypes.data,
            dense.ctypes.data,
            plain.ctypes.data,
            uncontended.ctypes.data,
            contended.ctypes.data,
            lock_free.ctypes.data,
            busy.ctypes.data,
            assignment.ctypes.data,
            contended_idx.ctypes.data,
            waits.ctypes.data,
            makespan_out.ctypes.data,
        )
    )
    if count < 0:
        raise SimulationError(f"event-loop kernel rejected thread count {threads}")
    return (
        float(makespan_out[0]),
        busy,
        assignment,
        contended_idx[:count],
        waits[:count],
        {},
    )


class ChunkedScheduler:
    """Chunked-style multithreading: lockless single-threaded chunks.

    Every task must carry a ``chunk``; chunk ``c`` executes serially and
    chunks map to threads round-robin (``c % threads``).  The makespan
    is the longest per-thread sum -- workload imbalance across chunks
    (the paper's explanation for DAH's poor scaling on heavy-tailed
    graphs) shows up directly.

    When the thread count exceeds the number of distinct target
    threads, the surplus threads can never receive work; the result's
    ``active_threads`` records the reachable count so ``utilization``
    reflects the threads that could participate.
    """

    def __init__(
        self,
        threads: int,
        physical_cores: Optional[int] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if threads < 1:
            raise SimulationError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.physical_cores = physical_cores if physical_cores is not None else threads
        self.cost = cost_model

    def run(self, tasks: TaskArray) -> ScheduleResult:
        """Schedule chunk-pinned ``tasks``: one weighted bincount."""
        threads = self.threads
        n = len(tasks)
        if n == 0:
            return _empty_result(threads)
        chunk = tasks.chunk
        if bool((chunk < 0).any()):
            raise SimulationError("ChunkedScheduler requires tasks with a chunk")
        scale = work_scale(threads, self.physical_cores, self.cost)
        tid = chunk % threads
        work = tasks.unlocked_work + tasks.locked_work
        thread_busy = np.bincount(tid, weights=work * scale, minlength=threads)
        extra = (
            {"timeline": _chunked_timeline(tid, work * scale)}
            if TRACER.sim_timeline
            else {}
        )
        return ScheduleResult(
            makespan_cycles=float(thread_busy.max()),
            total_work_cycles=_sequential_sum(work),
            threads=threads,
            task_count=n,
            thread_busy_cycles=thread_busy,
            task_thread=tid.astype(np.int32),
            active_threads=int(np.count_nonzero(np.bincount(tid, minlength=1))),
            extra=extra,
        )


def parallel_for_makespan(
    costs: np.ndarray,
    threads: int,
    physical_cores: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    dispatch_chunk: int = PARALLEL_FOR_CHUNK,
) -> ScheduleResult:
    """Makespan of a lock-free OpenMP ``parallel for`` over ``costs``.

    Uses the greedy list-scheduling bound of :func:`graham_makespan`,
    which is a tight model for dynamic scheduling of independent
    iterations, plus per-dispatch overhead amortized over
    ``dispatch_chunk`` iterations.
    """
    if threads < 1:
        raise SimulationError(f"threads must be >= 1, got {threads}")
    cost = cost_model
    cores = physical_cores if physical_cores is not None else threads
    scale = work_scale(threads, cores, cost)
    costs = np.asarray(costs, dtype=np.float64)
    n = int(costs.size)
    task_thread = (np.arange(n, dtype=np.int32) % threads) if n else np.empty(0, np.int32)
    if n == 0:
        return ScheduleResult(
            makespan_cycles=0.0,
            total_work_cycles=0.0,
            threads=threads,
            task_count=0,
            thread_busy_cycles=np.zeros(threads),
            task_thread=task_thread,
        )
    dispatch = cost.task_dispatch * n / dispatch_chunk
    total = float(costs.sum()) + dispatch
    longest = float(costs.max())
    makespan = graham_makespan(total, longest, threads, scale)
    busy = np.bincount(task_thread, weights=costs, minlength=threads)
    return ScheduleResult(
        makespan_cycles=makespan,
        total_work_cycles=total,
        threads=threads,
        task_count=n,
        thread_busy_cycles=busy * scale,
        task_thread=task_thread,
    )
