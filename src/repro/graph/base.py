"""The SAGA-Bench data-structure API.

The paper defines a small API that every data structure implements so
that compute models and algorithms are structure-agnostic (Section
III-D): ``update()``, ``out_neigh()``, ``in_neigh()`` and
``performAlg()`` (the latter lives in :mod:`repro.algorithms.registry`).

Every structure here is *functional* -- it really stores the graph and
answers neighbor queries -- and *instrumented* -- each operation charges
cycle costs from the shared :class:`~repro.sim.cost_model.CostModel`
and (optionally) emits the memory addresses it touches.  The simulated
phase latency is the scheduler makespan over the charged tasks.

Edges are ingested uniquely: as in the paper, every insert first
searches for the edge and only inserts on a negative search.

Each structure provides a *task emitter* that records the primitive
counts of every store operation (slots scanned, blocks chased, entries
rehashed...) and prices them in bulk into a
:class:`~repro.sim.tasks.TaskArray` with vectorized arithmetic.  The
counts come from one of two implementations of the update plane:

- the compiled batch-ingest kernel (:mod:`repro.sim.cingest`), which
  runs a whole untraced batch in one C call -- the fast path;
- the native stores' per-edge Python twins
  (:mod:`repro.graph.nativestore`) -- the reference, the traced path
  (they emit the memory accesses) and the fallback when no compiler is
  available or ``SAGA_BENCH_NO_CINGEST`` disables the kernel.

Both produce bit-identical counts, graph contents and simulated-memory
layouts (``tests/test_cingest.py``, ``tests/test_update_plane_golden.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.edge import EdgeBatch
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim import cingest
from repro.sim.memory import AddressSpace
from repro.sim.scheduler import ScheduleResult, TaskArray
from repro.sim.trace import MemoryTrace, NullRecorder, TraceRecorder

#: Lock-namespace offset separating out-store locks from in-store locks.
IN_STORE_LOCK_BASE = 1 << 40


@dataclass
class ExecutionContext:
    """Where and how a phase executes on the simulated machine.

    Bundles the machine description, the thread count (defaulting to
    all hardware threads, as in the paper's methodology), the cost
    model, and an optional trace recorder for architecture profiling.
    """

    machine: MachineConfig = SKYLAKE_GOLD_6142
    threads: Optional[int] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    recorder: Optional[TraceRecorder] = None
    #: Keep the batch's tasks in ``UpdateResult.extra["tasks"]`` so
    #: callers can re-schedule them (e.g. the core-scaling sweep).
    keep_tasks: bool = False

    def __post_init__(self) -> None:
        if self.threads is None:
            self.threads = self.machine.hardware_threads
        if self.threads < 1:
            raise StructureError(f"threads must be >= 1, got {self.threads}")

    @property
    def effective_recorder(self):
        return self.recorder if self.recorder is not None else NullRecorder()

    def seconds(self, cycles: float) -> float:
        return self.machine.cycles_to_seconds(cycles)


@dataclass
class UpdateResult:
    """Outcome of ingesting one batch into a data structure."""

    schedule: ScheduleResult
    edges_attempted: int
    edges_inserted: int
    duplicates: int
    trace: Optional[MemoryTrace] = None
    extra: dict = field(default_factory=dict)

    @property
    def latency_cycles(self) -> float:
        return self.schedule.makespan_cycles

    def latency_seconds(self, machine: MachineConfig) -> float:
        return machine.cycles_to_seconds(self.latency_cycles)


def contiguous_traversal_cost(degrees, cost):
    """Vectorized traversal cost of a contiguous neighbor scan.

    One header probe plus one probe per neighbor: the shape of every
    vector-based store (AS, AC and BA's contiguous segments).  The
    compute pricer groups structures by this function, so the
    structures sharing it are priced once.
    """
    return cost.probe_element * (1.0 + degrees)


class GraphDataStructure(abc.ABC):
    """Base class for the four streaming-graph data structures.

    Subclasses provide a task emitter over their stores
    (:meth:`_make_emitter`), neighbor retrieval, analytic traversal
    costs, and the scheduling style used to turn per-edge tasks into a
    batch-update makespan.

    Parameters
    ----------
    max_nodes:
        Upper bound on vertex ids (property arrays and index arrays are
        sized to it, as in the C++ benchmark where |V| is known from
        the dataset header).
    directed:
        Directed graphs keep a second copy of the structure for
        in-neighbors (paper footnote 3); undirected graphs ingest each
        edge in both orientations into the single store.
    """

    #: Short name used in tables ("AS", "AC", "Stinger", "DAH").
    name: str = "?"

    def __init__(
        self,
        max_nodes: int,
        directed: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        address_space: Optional[AddressSpace] = None,
    ) -> None:
        if max_nodes < 1:
            raise StructureError(f"max_nodes must be >= 1, got {max_nodes}")
        self.max_nodes = max_nodes
        self.directed = directed
        self.cost = cost_model
        self.space = address_space if address_space is not None else AddressSpace()
        self._num_edges = 0
        self._max_seen_node = -1
        #: The compiled ingest kernels, or ``None``: every batch then
        #: runs the per-edge twins.
        self._kernels = cingest.get(self.name)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def update(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Ingest ``batch``: the paper's *update phase* for one batch.

        Returns an :class:`UpdateResult` whose latency is the simulated
        parallel makespan of the per-edge insertion tasks under this
        structure's multithreading style.
        """
        if ctx is None:
            ctx = ExecutionContext()
        recorder = ctx.effective_recorder
        with TRACER.span("emission"):
            tasks, inserted, duplicates = self._ingest(batch, recorder, delete=False)
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        trace = recorder.finalize() if ctx.recorder is not None else None
        result = UpdateResult(
            schedule=schedule,
            edges_attempted=len(batch),
            edges_inserted=inserted,
            duplicates=duplicates,
            trace=trace,
        )
        if ctx.keep_tasks:
            result.extra["tasks"] = tasks
        return result

    def delete(self, batch: EdgeBatch, ctx: Optional[ExecutionContext] = None) -> UpdateResult:
        """Remove ``batch``'s edges: a deletion-only update phase.

        Deletions follow the same search-then-act discipline as
        insertions and the same multithreading style; an edge that is
        not present costs its (negative) search and is reported in
        ``duplicates``.  Note that incremental *compute* over deletions
        is approximate for the monotone algorithms (see
        ``repro.compute.incremental``); from-scratch recomputation is
        always exact.
        """
        if ctx is None:
            ctx = ExecutionContext()
        recorder = ctx.effective_recorder
        with TRACER.span("emission"):
            tasks, removed, missing = self._ingest(batch, recorder, delete=True)
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        trace = recorder.finalize() if ctx.recorder is not None else None
        result = UpdateResult(
            schedule=schedule,
            edges_attempted=len(batch),
            edges_inserted=removed,  # edges *affected* by this phase
            duplicates=missing,
            trace=trace,
        )
        result.extra["operation"] = "delete"
        if ctx.keep_tasks:
            result.extra["tasks"] = tasks
        return result

    def _ingest(
        self, batch: EdgeBatch, recorder, delete: bool
    ) -> Tuple[TaskArray, int, int]:
        """Apply ``batch`` to the stores and emit its priced tasks.

        Returns ``(tasks, positive, negative)`` where *positive* counts
        edges actually inserted (or removed) and *negative* counts
        duplicates (or misses).  Untraced batches make one fused call
        into the compiled kernel when it is loaded; traced batches (and
        every batch without the kernel) run the per-edge loop over the
        stores' Python twins, whose methods emit the memory accesses.
        The whole batch is range-checked up front, so an out-of-range
        vertex raises before any edge is applied.
        """
        n = len(batch)
        self._check_batch(batch)
        emitter = self._make_emitter(delete)
        tracing = recorder.enabled
        directed = self.directed
        if self._kernels is not None and not tracing:
            positive = emitter.ingest_batch(batch)
        elif delete:
            src = batch.src.tolist()
            dst = batch.dst.tolist()
            positive = 0
            op_out = emitter.delete_out
            op_in = emitter.delete_in if directed else emitter.delete_out
            for i in range(n):
                u = src[i]
                v = dst[i]
                if tracing:
                    recorder.begin_task(emitter.rows)
                if op_out(u, v, recorder):
                    positive += 1
                if u != v or directed:
                    if tracing:
                        recorder.begin_task(emitter.rows)
                    op_in(v, u, recorder)
        else:
            src = batch.src.tolist()
            dst = batch.dst.tolist()
            weight = batch.weight.tolist()
            positive = 0
            op_out = emitter.insert_out
            op_in = emitter.insert_in if directed else emitter.insert_out
            for i in range(n):
                u = src[i]
                v = dst[i]
                w = weight[i]
                if tracing:
                    recorder.begin_task(emitter.rows)
                if op_out(u, v, w, recorder):
                    positive += 1
                if u != v or directed:
                    if tracing:
                        recorder.begin_task(emitter.rows)
                    op_in(v, u, w, recorder)
        if delete:
            self._num_edges -= positive
        else:
            self._num_edges += positive
            if n:
                self._max_seen_node = max(
                    self._max_seen_node, int(batch.src.max()), int(batch.dst.max())
                )
        return emitter.finish(n), positive, n - positive

    def schedule_tasks(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        """Re-schedule kept tasks under a different context.

        Tasks depend only on graph content, not on thread count, so one
        ingest can be re-priced at many machine shapes (the Fig. 9(a)
        core-scaling sweep).
        """
        with TRACER.span("schedule") as span:
            schedule = self._schedule(tasks, ctx)
            span.add_cycles(schedule.makespan_cycles)
        if METRICS.enabled:
            self._record_schedule_metrics(schedule)
        return schedule

    def _record_schedule_metrics(self, schedule: ScheduleResult) -> None:
        """Fold one schedule's aggregates into the metrics registry."""
        METRICS.counter(
            "sim_schedules_total",
            "phase schedules executed",
            structure=self.name,
        ).inc()
        METRICS.counter(
            "sim_tasks_emitted_total",
            "tasks emitted into the schedulers",
            structure=self.name,
        ).inc(schedule.task_count)
        if schedule.contended_acquires:
            METRICS.counter(
                "sim_lock_contended_acquires_total",
                "contended lock acquires observed by the DES scheduler",
                structure=self.name,
            ).inc(schedule.contended_acquires)
            METRICS.counter(
                "sim_lock_wait_cycles_total",
                "simulated cycles spent waiting on locks",
                structure=self.name,
            ).inc(schedule.lock_wait_cycles)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of vertices seen so far (max id + 1)."""
        return self._max_seen_node + 1

    @property
    def num_edges(self) -> int:
        """Number of unique logical edges ingested so far."""
        return self._num_edges

    @abc.abstractmethod
    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s out-edges."""

    def in_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        """The ``(neighbor, weight)`` pairs of ``u``'s in-edges.

        For undirected graphs this is the same as :meth:`out_neigh`.
        """
        if not self.directed:
            return self.out_neigh(u)
        return self._in_neigh_directed(u)

    def out_degree(self, u: int) -> int:
        return len(self.out_neigh(u))

    def in_degree(self, u: int) -> int:
        return len(self.in_neigh(u))

    def vertices(self) -> Iterable[int]:
        """All vertex ids from 0 to the largest seen."""
        return range(self.num_nodes)

    def csr_arrays(self, direction: str = "out"):
        """Columnar CSR snapshot of one adjacency direction.

        Neighbor order within each vertex matches :meth:`out_neigh` /
        :meth:`in_neigh` iteration order, so vectorized compute kernels
        reproduce the per-vertex loops bit-for-bit (see
        :mod:`repro.compute.kernels`).  Structures with columnar
        internals may override this with a zero-copy export.
        """
        # Imported lazily: repro.compute.pricing imports repro.graph.
        from repro.compute.kernels import csr_from_pair_rows

        n = self.num_nodes
        neigh = self.out_neigh if direction == "out" else self.in_neigh
        # Materialize each vertex's row once (Stinger/BA build theirs
        # per call), then convert all pairs in one bulk np.array.
        rows = [neigh(u) for u in range(n)]
        return csr_from_pair_rows(rows, n)

    # ------------------------------------------------------------------
    # Analytic compute-phase costs
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def out_traversal_cost(self, u: int) -> float:
        """Cycles to traverse ``u``'s out-neighbors once.

        The compute executor charges this per processed vertex; the
        constants come from the shared cost model but the *shape*
        (contiguous scan vs pointer chasing vs hashed retrieval) is the
        structure's own (paper Section V-B, "Impact of data structures
        ... on compute latency").
        """

    #: :meth:`out_traversal_cost` vectorized over a degree array;
    #: Stinger and DAH override it with their own traversal shapes.
    vector_traversal_cost = staticmethod(contiguous_traversal_cost)

    def in_traversal_cost(self, u: int) -> float:
        """Cycles to traverse ``u``'s in-neighbors once."""
        if not self.directed:
            return self.out_traversal_cost(u)
        return self._in_traversal_cost_directed(u)

    def degree_query_cost(self) -> float:
        """Cycles for one degree lookup during compute.

        Adjacency-based structures read a header field; DAH overrides
        this with its table meta-query cost (Section III-A4).
        """
        return self.cost.probe_element

    def trace_out_traversal(self, u: int, recorder) -> None:
        """Emit the memory accesses of one out-neighbor traversal."""
        self._trace_traversal(u, recorder, out=True)

    def trace_in_traversal(self, u: int, recorder) -> None:
        """Emit the memory accesses of one in-neighbor traversal."""
        if not self.directed:
            self._trace_traversal(u, recorder, out=True)
        else:
            self._trace_traversal(u, recorder, out=False)

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _make_emitter(self, delete: bool):
        """The batch's task emitter (per structure).

        An emitter exposes ``insert_out``/``insert_in``/``delete_out``/
        ``delete_in`` (one per-edge twin operation each, returning
        whether the store changed), ``ingest_batch(batch)`` (the fused
        compiled call) and ``finish(batch_size)``, which prices every
        recorded row into a :class:`TaskArray`.
        """

    @abc.abstractmethod
    def _in_neigh_directed(self, u: int) -> Sequence[Tuple[int, float]]:
        ...

    @abc.abstractmethod
    def _in_traversal_cost_directed(self, u: int) -> float:
        ...

    @abc.abstractmethod
    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        ...

    @abc.abstractmethod
    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        """Turn the batch's tasks into a makespan (structure style)."""

    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.max_nodes:
            raise StructureError(
                f"vertex {v} out of range [0, {self.max_nodes}) for {self.name}"
            )

    def _check_batch(self, batch: EdgeBatch) -> None:
        """Vectorized range check over a whole batch's endpoints."""
        if len(batch) == 0:
            return
        src = batch.src
        dst = batch.dst
        bad_src = (src < 0) | (src >= self.max_nodes)
        bad_dst = (dst < 0) | (dst >= self.max_nodes)
        bad = bad_src | bad_dst
        if bad.any():
            i = int(np.argmax(bad))
            self._check_vertex(int(src[i]) if bad_src[i] else int(dst[i]))

    def degrees_snapshot(self) -> Tuple[List[int], List[int]]:
        """(in-degrees, out-degrees) for all current vertices."""
        n = self.num_nodes
        outs = [self.out_degree(v) for v in range(n)]
        ins = outs if not self.directed else [self.in_degree(v) for v in range(n)]
        return list(ins), outs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} name={self.name} nodes={self.num_nodes} "
            f"edges={self.num_edges} directed={self.directed}>"
        )
