"""BA: Hornet-style blocked adjacency (a post-paper structure).

The paper positions SAGA-Bench as a living benchmark that will absorb
future data structures (Section III); Hornet (Busato et al., HPEC'18)
is one it cites.  This module adds a simplified Hornet-like structure:

- every vertex's neighbors live in **one contiguous segment** drawn
  from power-of-two *block pools* (capacities 4, 8, 16, ...);
- when a segment fills, the vertex **relocates** to a segment of twice
  the capacity (one memcpy, amortized O(1) per insert) and the old
  segment returns to its pool for reuse;
- duplicate detection scans the segment, like the adjacency lists;
- multithreading is chunked and lockless, like AC/DAH.

Compared with the paper's four structures it trades Stinger's
fragmented blocks for Hornet's contiguous-but-relocating segments:
traversal is as cheap as AS (contiguous), updates avoid AS's locks,
and memory waste is bounded by the power-of-two rounding.

Registered as ``"BA"`` in :data:`repro.graph.STRUCTURES`; the paper
reproduction pipelines keep using the original four by default.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import StructureError
from repro.graph.adjacency_chunked import chunk_overhead_array
from repro.graph.base import ExecutionContext, GraphDataStructure
from repro.graph.nativestore import NativeBlockedStore, native_vec_ingest
from repro.graph.vectorstore import row_layout
from repro.sim.memory import AddressSpace, Region
from repro.sim.scheduler import ChunkedScheduler, ScheduleResult, TaskArray

ENTRY_BYTES = 8
MIN_SEGMENT = 4

#: Default chunk count; matches the paper's 64 hardware threads.
DEFAULT_CHUNKS = 64


class _SegmentPool:
    """A free list of equal-capacity segments (one Hornet block pool)."""

    def __init__(self, capacity: int, space: AddressSpace, label: str) -> None:
        self.capacity = capacity
        self.space = space
        self.label = label
        self._free: List[Region] = []
        self._alloc_bytes = capacity * ENTRY_BYTES
        self._alloc_label = f"{label}.seg{capacity}"
        self.allocations = 0
        self.reuses = 0

    def acquire(self) -> Region:
        if self._free:
            self.reuses += 1
            return self._free.pop()
        self.allocations += 1
        return self.space.alloc(self._alloc_bytes, self._alloc_label)

    def release(self, region: Region) -> None:
        self._free.append(region)


class _BlockedEmitter:
    """Columnar task emitter for BA: segment scans plus relocations."""

    __slots__ = (
        "_out",
        "_in",
        "_cost",
        "_chunks",
        "_delete",
        "_directed",
        "_layout",
        "scanned",
        "hit",
        "relocated",
        "chunk",
    )

    def __init__(self, structure: "BlockedAdjacency", delete: bool) -> None:
        self._out = structure._out
        self._in = structure._in
        self._cost = structure.cost
        self._chunks = structure.chunks
        self._delete = delete
        self._directed = structure.directed
        self._layout = None  # (src, dst) of a fused batch, for finish()
        self.scanned: List[int] = []
        self.hit: List[bool] = []
        self.relocated: List[int] = []
        self.chunk: List[int] = []

    @property
    def rows(self) -> int:
        return len(self.scanned)

    def ingest_batch(self, batch) -> int:
        """Fused untraced ingest; chunk ids are rebuilt in ``finish``.

        BA prices deletions as a flat clear+backfill, so the moved
        count is not recorded (``record_moved=False``).
        """
        self._layout = (batch.src, batch.dst)
        positive, self.scanned, self.hit, self.relocated = native_vec_ingest(
            self._out,
            self._in if self._directed else self._out,
            batch,
            self._directed,
            self._delete,
            record_moved=False,
        )
        return positive

    def insert_out(self, src, dst, weight, recorder) -> bool:
        return self._insert(self._out, src, dst, weight, recorder)

    def insert_in(self, src, dst, weight, recorder) -> bool:
        return self._insert(self._in, src, dst, weight, recorder)

    def _insert(self, store, src, dst, weight, recorder) -> bool:
        scanned, inserted, relocated = store.insert(src, dst, weight, recorder)
        self.scanned.append(scanned)
        self.hit.append(inserted)
        self.relocated.append(relocated)
        self.chunk.append(src % self._chunks)
        return inserted

    def delete_out(self, src, dst, recorder) -> bool:
        return self._remove(self._out, src, dst, recorder)

    def delete_in(self, src, dst, recorder) -> bool:
        return self._remove(self._in, src, dst, recorder)

    def _remove(self, store, src, dst, recorder) -> bool:
        scanned, removed = store.remove(src, dst, recorder)
        self.scanned.append(scanned)
        self.hit.append(removed)
        self.relocated.append(0)
        self.chunk.append(src % self._chunks)
        return removed

    def finish(self, batch_size: int) -> TaskArray:
        cost = self._cost
        work = cost.probe_element * np.asarray(self.scanned, dtype=np.float64)
        hit = np.asarray(self.hit, dtype=bool)
        if self._delete:
            work[hit] += 2 * cost.insert_slot  # clear + backfill
        else:
            work[hit] += cost.insert_slot
            # Relocation copies the whole segment (Hornet's memcpy).
            relocated = np.asarray(self.relocated, dtype=np.float64)
            work[hit] += cost.vector_grow_per_element * relocated[hit]
        if self._layout is not None:
            row_src, _ = row_layout(*self._layout, self._directed)
            chunk = row_src % self._chunks
        else:
            chunk = np.asarray(self.chunk, dtype=np.int64)
        edges = TaskArray.build(
            self.rows,
            unlocked_work=work,
            chunk=chunk,
        )
        return TaskArray.concatenate(
            [edges, chunk_overhead_array(cost, batch_size, self._chunks)]
        )


class BlockedAdjacency(GraphDataStructure):
    """Hornet-like blocked adjacency ("BA")."""

    name = "BA"

    def __init__(
        self,
        max_nodes,
        directed=True,
        cost_model=None,
        address_space=None,
        chunks: int = DEFAULT_CHUNKS,
    ):
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        super().__init__(
            max_nodes,
            directed=directed,
            cost_model=cost_model or DEFAULT_COST_MODEL,
            address_space=address_space,
        )
        if chunks < 1:
            raise StructureError(f"chunks must be >= 1, got {chunks}")
        self.chunks = chunks
        self._out = NativeBlockedStore(max_nodes, self.space, "BA.out", self._kernels)
        self._in = (
            NativeBlockedStore(max_nodes, self.space, "BA.in", self._kernels)
            if directed
            else None
        )

    def chunk_of(self, u: int) -> int:
        return u % self.chunks

    # -- mutation ------------------------------------------------------

    def _make_emitter(self, delete: bool) -> _BlockedEmitter:
        return _BlockedEmitter(self, delete)

    def _schedule(self, tasks: TaskArray, ctx: ExecutionContext) -> ScheduleResult:
        scheduler = ChunkedScheduler(
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
        return self.cost.probe_element * (1 + self._out.degree(u))

    def _in_traversal_cost_directed(self, u: int) -> float:
        return self.cost.probe_element * (1 + self._in.degree(u))

    def _trace_traversal(self, u: int, recorder, out: bool) -> None:
        store = self._out if out else self._in
        store.trace_traversal(u, recorder)
