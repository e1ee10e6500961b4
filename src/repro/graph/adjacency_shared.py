"""AS: adjacency list with shared-style multithreading (Section III-A1).

An array of per-vertex vectors updated by many threads.  A thread
updating edge ``(u, v)`` locks u's *entire* vector, scans it for the
edge, and inserts on a negative search.  There is no intra-vertex
parallelism: all updates to one source vertex serialize behind its
lock, which is exactly why AS collapses on heavy-tailed batches
(paper Section V-B) while remaining the fastest structure on
short-tailed ones (no chunk-routing overhead, contiguous scans).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.base import (
    ExecutionContext,
    GraphDataStructure,
    IN_STORE_LOCK_BASE,
)
from repro.graph.nativestore import NativeVectorStore, native_vec_ingest
from repro.graph.vectorstore import row_layout
from repro.sim.scheduler import DynamicScheduler, ScheduleResult, TaskArray


class _SharedEmitter:
    """Columnar task emitter for AS: locked vector-store operations.

    Records, per operation, the slots scanned, whether the store
    changed, the growth/backfill count, and the lock id; ``finish``
    prices all rows with vectorized arithmetic.
    """

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_delete",
        "_directed",
        "_layout",
        "scanned",
        "hit",
        "aux",
        "lock",
    )

    def __init__(self, structure: "AdjacencyListShared", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._delete = delete
        self._directed = structure.directed
        self._layout = None  # (src, dst) of a fused batch, for finish()
        self.scanned: List[int] = []
        self.hit: List[bool] = []
        self.aux: List[int] = []  # grew_from (insert) / moved (delete)
        self.lock: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.scanned)

    def ingest_batch(self, batch) -> int:
        """Fused untraced ingest through the compiled kernel.

        Lock ids are not appended per operation; they depend only on
        the batch content and are rebuilt vectorized in ``finish``.
        """
        self._layout = (batch.src, batch.dst)
        positive, self.scanned, self.hit, self.aux = native_vec_ingest(
            self._out,
            self._in if self._directed else self._out,
            batch,
            self._directed,
            self._delete,
        )
        return positive

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._insert(self._out, src, dst, weight, recorder, src)

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._insert(
            self._in, src, dst, weight, recorder, IN_STORE_LOCK_BASE + src
        )

    def _insert(self, store, src, dst, weight, recorder, lock) -> bool:
        outcome = store.insert(src, dst, weight, recorder)
        self.scanned.append(outcome.scanned)
        self.hit.append(outcome.inserted)
        self.aux.append(outcome.grew_from)
        self.lock.append(lock)
        return outcome.inserted

    def delete_out(self, src, dst, recorder) -> bool:
        return self._remove(self._out, src, dst, recorder, src)

    def delete_in(self, src, dst, recorder) -> bool:
        return self._remove(self._in, src, dst, recorder, IN_STORE_LOCK_BASE + src)

    def _remove(self, store, src, dst, recorder, lock) -> bool:
        outcome = store.remove(src, dst, recorder)
        self.scanned.append(outcome.scanned)
        self.hit.append(outcome.removed)
        self.aux.append(outcome.moved)
        self.lock.append(lock)
        return outcome.removed

    def finish(self, batch_size: int) -> TaskArray:
        if self._layout is not None:
            row_src, mirror = row_layout(*self._layout, self._directed)
            if self._directed:
                lock = np.where(mirror, IN_STORE_LOCK_BASE + row_src, row_src)
            else:
                lock = row_src
        else:
            lock = np.asarray(self.lock, dtype=np.int64)
        return TaskArray.build(
            self.rows,
            locked_work=_price_vector_ops(
                self._cost, self.scanned, self.hit, self.aux, self._delete
            ),
            lock=lock,
        )


def _price_vector_ops(cost, scanned, hit, aux, delete) -> np.ndarray:
    """Vectorized pricing of vector-store scans (shared by AS and AC).

    Term by term: the probe charge, then the slot charge on changed
    rows, then the grow/backfill charge.
    """
    work = cost.probe_element * np.asarray(scanned, dtype=np.float64)
    hit = np.asarray(hit, dtype=bool)
    aux = np.asarray(aux, dtype=np.int64)
    if delete:
        work[hit] += cost.insert_slot * (1 + aux[hit])  # clear + backfill
    else:
        work[hit] += cost.insert_slot
        work[hit] += cost.vector_grow_per_element * aux[hit].astype(np.float64)
    return work


class AdjacencyListShared(GraphDataStructure):
    """The paper's AS data structure."""

    name = "AS"

    def __init__(self, max_nodes, directed=True, cost_model=None, address_space=None):
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        super().__init__(
            max_nodes,
            directed=directed,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            address_space=address_space,
        )
        self._out = NativeVectorStore(max_nodes, self.space, "AS.out", self._kernels)
        self._in = (
            NativeVectorStore(max_nodes, self.space, "AS.in", self._kernels)
            if directed
            else None
        )

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _SharedEmitter:
        return _SharedEmitter(self, delete)

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = DynamicScheduler(
            threads=ctx.threads,
            physical_cores=ctx.machine.physical_cores,
            cost_model=ctx.cost_model,
        )
        return scheduler.run(tasks)

    # -- queries -------------------------------------------------------

    def out_neigh(self, u: int) -> Sequence[Tuple[int, float]]:
        return self._out.neighbors(u)

    def _in_neigh_directed(self, u: int) -> Sequence[Tuple[int, float]]:
        return self._in.neighbors(u)

    def out_degree(self, u: int) -> int:
        return self._out.degree(u)

    def in_degree(self, u: int) -> int:
        if not self.directed:
            return self._out.degree(u)
        return self._in.degree(u)

    # -- compute-phase costs -------------------------------------------

    def out_traversal_cost(self, u: int) -> float:
        cost = self.cost
        return cost.probe_element * (1 + self._out.degree(u))

    def _in_traversal_cost_directed(self, u: int) -> float:
        cost = self.cost
        return cost.probe_element * (1 + self._in.degree(u))

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)
