"""The update plane's stores: numpy state, compiled and Python mutators.

Each data structure's storage -- the AS/AC vectors, BA's pooled
segments, Stinger's linked edge blocks, DAH's degree-aware hash tables
-- lives here in flat numpy arrays, and has exactly two mutators that
produce identical outcomes, trace addresses and simulated-memory
layouts:

- the compiled batch kernels in :mod:`repro.sim.cingest`, reached
  through ``native_vec_ingest``, ``native_stinger_ingest`` and
  ``native_dah_ingest``: one C call runs a whole untraced batch and
  returns the per-operation count columns the emitters price;
- the per-edge Python *twins* (each store's ``insert``/``remove``):
  the readable reference, the traced path (they emit the memory
  accesses) and the fallback when the kernels are not built
  (``kernels=None``).

Simulated-memory accounting stays in Python either way: the kernel
logs one event per allocation-changing operation (vector growth,
segment relocation, block alloc/free, table resize) and the store
replays the log in order after the call, so ``AddressSpace`` layout
and segment-pool statistics match the per-edge path exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.vectorstore import (
    ENTRY_BYTES,
    HEADER_BYTES,
    INITIAL_CAPACITY,
    InsertOutcome,
    RemoveOutcome,
)
from repro.obs.tracer import TRACER
from repro.sim import cingest
from repro.sim.memory import AddressSpace, Region

#: Initial per-store entry pool; doubled on demand (kernel stall).
INITIAL_POOL = 1 << 14

#: Fibonacci hashing multiplier and 64-bit wrap mask of DAH's tables.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_WRAP = 0xFFFFFFFFFFFFFFFF


class _PooledVectorState:
    """Flat (neighbor, weight) pool + per-vertex spans, shared by the
    vector-family native stores (AS/AC vectors and BA segments have the
    same mutation semantics; only growth *accounting* differs)."""

    def __init__(self, max_nodes: int, space: AddressSpace, label: str,
                 kernels: Optional[cingest.IngestKernels] = None) -> None:
        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self._kernels = kernels
        self._off = np.zeros(max_nodes, dtype=np.int64)
        self._len = np.zeros(max_nodes, dtype=np.int64)
        self._capacity = np.zeros(max_nodes, dtype=np.int64)
        self._nbr = np.empty(INITIAL_POOL, dtype=np.int64)
        self._wgt = np.empty(INITIAL_POOL, dtype=np.float64)
        self._state = np.zeros(1, dtype=np.int64)  # [0] = pool cursor
        self._header = space.alloc(max_nodes * HEADER_BYTES, f"{label}.headers")

    # -- pool plumbing -------------------------------------------------

    def _kernel_args(self) -> tuple:
        p = self._kernels._p
        return (
            p(self._off), p(self._len), p(self._capacity),
            p(self._nbr), p(self._wgt), p(self._state), len(self._nbr),
        )

    def _grow_pool(self, need: int) -> None:
        """Double the entry pool until ``need`` more slots fit."""
        target = int(self._state[0]) + int(need)
        size = len(self._nbr)
        while size < target:
            size *= 2
        if size > len(self._nbr):
            cursor = int(self._state[0])
            nbr = np.empty(size, dtype=np.int64)
            wgt = np.empty(size, dtype=np.float64)
            nbr[:cursor] = self._nbr[:cursor]
            wgt[:cursor] = self._wgt[:cursor]
            self._nbr = nbr
            self._wgt = wgt

    def _find(self, u: int, dst: int) -> Optional[int]:
        off = int(self._off[u])
        n = int(self._len[u])
        matches = np.nonzero(self._nbr[off:off + n] == dst)[0]
        return int(matches[0]) if matches.size else None

    def _grow(self, src: int) -> int:
        """Relocate ``src`` to a doubled span; returns entries moved."""
        old_len = int(self._len[src])
        capacity = int(self._capacity[src])
        new_capacity = capacity * 2 if capacity else INITIAL_CAPACITY
        if int(self._state[0]) + new_capacity > len(self._nbr):
            self._grow_pool(new_capacity)
        off = int(self._off[src])
        noff = int(self._state[0])
        self._nbr[noff:noff + old_len] = self._nbr[off:off + old_len]
        self._wgt[noff:noff + old_len] = self._wgt[off:off + old_len]
        self._state[0] = noff + new_capacity
        self._off[src] = noff
        self._capacity[src] = new_capacity
        self._replay_grow(src, new_capacity)
        return old_len

    def _replay_grow(self, vertex: int, new_capacity: int) -> None:
        raise NotImplementedError

    # -- queries -------------------------------------------------------

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        off = int(self._off[u])
        n = int(self._len[u])
        return list(zip(self._nbr[off:off + n].tolist(),
                        self._wgt[off:off + n].tolist()))

    def degree(self, u: int) -> int:
        return int(self._len[u])

    @property
    def header_region(self) -> Region:
        return self._header


class NativeVectorStore(_PooledVectorState):
    """One direction of the AS/AC adjacency: per-vertex growable vectors.

    Functionally a ``vertex -> [(neighbor, weight), ...]`` map with
    unique neighbors.  The *charged* cost of a search is the linear
    scan a contiguous C++ vector would perform, and the emitted trace
    walks the vector's simulated addresses.
    """

    def __init__(self, max_nodes, space, label, kernels=None) -> None:
        super().__init__(max_nodes, space, label, kernels)
        self._region: List[Optional[Region]] = [None] * max_nodes
        self._vec_label = f"{label}.vec"

    def _replay_grow(self, vertex: int, new_capacity: int) -> None:
        old_region = self._region[vertex]
        self._region[vertex] = self.space.alloc(
            new_capacity * ENTRY_BYTES, self._vec_label
        )
        if old_region is not None:
            self.space.free(old_region)

    def insert(self, src: int, dst: int, weight: float, recorder) -> InsertOutcome:
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        length = int(self._len[src])
        existing = self._find(src, dst)
        if existing is not None:
            scanned = existing + 1
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return InsertOutcome(scanned=scanned, inserted=False, grew_from=0)
        scanned = length
        if tracing:
            self._trace_scan(src, scanned, recorder)
        grew_from = 0
        if length == int(self._capacity[src]):
            grew_from = self._grow(src)
        off = int(self._off[src])
        self._nbr[off + length] = dst
        self._wgt[off + length] = weight
        self._len[src] = length + 1
        if tracing and self._region[src] is not None:
            recorder.access(
                self._region[src].element(length, ENTRY_BYTES), write=True
            )
        return InsertOutcome(scanned=scanned, inserted=True, grew_from=grew_from)

    def _trace_scan(self, src: int, count: int, recorder) -> None:
        region = self._region[src]
        if region is None or count == 0:
            return
        recorder.access_range(
            region.base, min(count, int(self._len[src])), ENTRY_BYTES
        )

    def remove(self, src: int, dst: int, recorder) -> RemoveOutcome:
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, HEADER_BYTES))
        length = int(self._len[src])
        position = self._find(src, dst)
        if position is None:
            scanned = length
            if tracing:
                self._trace_scan(src, scanned, recorder)
            return RemoveOutcome(scanned=scanned, removed=False, moved=0)
        scanned = position + 1
        if tracing:
            self._trace_scan(src, scanned, recorder)
        off = int(self._off[src])
        last = length - 1
        moved = 0
        if position != last:
            self._nbr[off + position] = self._nbr[off + last]
            self._wgt[off + position] = self._wgt[off + last]
            moved = 1
            if tracing and self._region[src] is not None:
                recorder.access(
                    self._region[src].element(position, ENTRY_BYTES), write=True
                )
        self._len[src] = last
        return RemoveOutcome(scanned=scanned, removed=True, moved=moved)

    def trace_traversal(self, u: int, recorder) -> None:
        recorder.access(self._header.element(u, HEADER_BYTES))
        region = self._region[u]
        if region is not None:
            recorder.access_range(region.base, int(self._len[u]), ENTRY_BYTES)


class NativeBlockedStore(_PooledVectorState):
    """One direction of BA: contiguous segments from power-of-two pools."""

    def __init__(self, max_nodes, space, label, kernels=None) -> None:
        super().__init__(max_nodes, space, label, kernels)
        # Imported lazily to dodge the blocked -> nativestore cycle.
        from repro.graph.blocked import _SegmentPool

        self._pool_class = _SegmentPool
        self._segment: List[Optional[Region]] = [None] * max_nodes
        self._pools: Dict[int, object] = {}

    def _pool(self, capacity: int):
        pool = self._pools.get(capacity)
        if pool is None:
            pool = self._pool_class(capacity, self.space, self.label)
            self._pools[capacity] = pool
        return pool

    def _replay_grow(self, vertex: int, new_capacity: int) -> None:
        old_segment = self._segment[vertex]
        self._segment[vertex] = self._pool(new_capacity).acquire()
        if old_segment is not None:
            # Doubling growth: the vacated segment is half the new one.
            self._pool(new_capacity // 2).release(old_segment)

    def insert(self, src: int, dst: int, weight: float, recorder):
        """Search-then-insert; returns (scanned, inserted, relocated)."""
        tracing = recorder.enabled
        if tracing:
            recorder.access(self._header.element(src, 16))
        length = int(self._len[src])
        existing = self._find(src, dst)
        if existing is not None:
            scanned = existing + 1
            if tracing and self._segment[src] is not None:
                recorder.access_range(
                    self._segment[src].base, scanned, ENTRY_BYTES
                )
            return scanned, False, 0
        scanned = length
        if tracing and self._segment[src] is not None:
            recorder.access_range(self._segment[src].base, scanned, ENTRY_BYTES)
        relocated = 0
        if length == int(self._capacity[src]):
            relocated = self._grow(src)
        off = int(self._off[src])
        self._nbr[off + length] = dst
        self._wgt[off + length] = weight
        self._len[src] = length + 1
        if tracing:
            recorder.access(
                self._segment[src].element(length, ENTRY_BYTES), write=True
            )
        return scanned, True, relocated

    def remove(self, src: int, dst: int, recorder):
        """Swap-remove; returns (scanned, removed)."""
        length = int(self._len[src])
        position = self._find(src, dst)
        if position is None:
            return length, False
        off = int(self._off[src])
        last = length - 1
        if position != last:
            self._nbr[off + position] = self._nbr[off + last]
            self._wgt[off + position] = self._wgt[off + last]
        self._len[src] = last
        return position + 1, True

    def trace_traversal(self, u: int, recorder) -> None:
        recorder.access(self._header.element(u, 16))
        segment = self._segment[u]
        if segment is not None:
            recorder.access_range(segment.base, int(self._len[u]), ENTRY_BYTES)

    def pool_stats(self) -> Dict[int, Tuple[int, int]]:
        """{capacity: (allocations, reuses)} across all pools."""
        return {
            capacity: (pool.allocations, pool.reuses)
            for capacity, pool in sorted(self._pools.items())
        }


class NativeStingerStore:
    """One direction of Stinger: per-vertex lists of 16-edge blocks.

    Blocks live in a flat pool (block id == pool slot; ids are never
    reused, so the pool cursor doubles as ``_next_block_id``), each
    vertex's block list is a span in a flat block-id pool, and the
    per-block ``Region`` objects -- the simulated addresses the traced
    per-edge path emits -- are kept in a Python list indexed by id.
    """

    #: Initial pool sizes (doubled on demand via kernel stalls).
    INITIAL_BIDS = 1 << 12
    INITIAL_BLOCKS = 256

    def __init__(self, max_nodes: int, space: AddressSpace, label: str,
                 lock_base: int,
                 kernels: Optional[cingest.IngestKernels] = None) -> None:
        from repro.graph.stinger import BLOCK_BYTES, VERTEX_ENTRY_BYTES

        self.max_nodes = max_nodes
        self.space = space
        self.label = label
        self.lock_base = lock_base
        self._kernels = kernels
        self._boff = np.zeros(max_nodes, dtype=np.int64)
        self._bcnt = np.zeros(max_nodes, dtype=np.int64)
        self._bcap = np.zeros(max_nodes, dtype=np.int64)
        self._deg = np.zeros(max_nodes, dtype=np.int64)
        self._bids = np.empty(self.INITIAL_BIDS, dtype=np.int64)
        self._bnbr = np.empty(self.INITIAL_BLOCKS * 16, dtype=np.int64)
        self._bwgt = np.empty(self.INITIAL_BLOCKS * 16, dtype=np.float64)
        self._blen = np.zeros(self.INITIAL_BLOCKS, dtype=np.int64)
        self._state = np.zeros(2, dtype=np.int64)  # [bid cursor, next id]
        self._regions: List[Region] = []
        self._vertex_array = space.alloc(
            max_nodes * VERTEX_ENTRY_BYTES, f"{label}.vertices"
        )
        self._block_label = f"{label}.block"
        self._block_bytes = BLOCK_BYTES

    # -- pool plumbing -------------------------------------------------

    def _kernel_args(self) -> tuple:
        p = self._kernels._p
        return (
            self.lock_base,
            p(self._boff), p(self._bcnt), p(self._bcap), p(self._deg),
            p(self._bids), len(self._bids),
            p(self._bnbr), p(self._bwgt), p(self._blen), len(self._blen),
            p(self._state),
        )

    def _grow_bid_pool(self, need: int) -> None:
        target = int(self._state[0]) + int(need)
        size = len(self._bids)
        while size < target:
            size *= 2
        if size > len(self._bids):
            cursor = int(self._state[0])
            bids = np.empty(size, dtype=np.int64)
            bids[:cursor] = self._bids[:cursor]
            self._bids = bids

    def _grow_block_pool(self) -> None:
        blocks = 2 * len(self._blen)
        used = int(self._state[1])
        bnbr = np.empty(blocks * 16, dtype=np.int64)
        bwgt = np.empty(blocks * 16, dtype=np.float64)
        blen = np.zeros(blocks, dtype=np.int64)
        bnbr[:used * 16] = self._bnbr[:used * 16]
        bwgt[:used * 16] = self._bwgt[:used * 16]
        blen[:used] = self._blen[:used]
        self._bnbr = bnbr
        self._bwgt = bwgt
        self._blen = blen

    def _replay_event(self, kind: int, block_id: int) -> None:
        if kind == 0:  # block allocated (ids are sequential)
            self._regions.append(
                self.space.alloc(self._block_bytes, self._block_label)
            )
        else:  # tail block freed
            self.space.free(self._regions[block_id])

    # -- per-edge twin -------------------------------------------------

    def _find_edge(self, u: int, dst: int) -> Tuple[int, int, int]:
        """(block index, slot, probes before the block); (-1,-1,deg) miss."""
        boff = int(self._boff[u])
        before = 0
        for k in range(int(self._bcnt[u])):
            bid = int(self._bids[boff + k])
            length = int(self._blen[bid])
            matches = np.nonzero(
                self._bnbr[bid * 16:bid * 16 + length] == dst
            )[0]
            if matches.size:
                return k, int(matches[0]), before
            before += length
        return -1, -1, before

    def _append_block(self, u: int) -> int:
        """Create a block and link it at ``u``'s tail; returns its id."""
        bcnt = int(self._bcnt[u])
        if bcnt == int(self._bcap[u]):
            need = int(self._bcap[u]) * 2 or 4
            self._grow_bid_pool(need)
            boff = int(self._boff[u])
            noff = int(self._state[0])
            self._bids[noff:noff + bcnt] = self._bids[boff:boff + bcnt]
            self._state[0] = noff + need
            self._boff[u] = noff
            self._bcap[u] = need
        if int(self._state[1]) >= len(self._blen):
            self._grow_block_pool()
        bid = int(self._state[1])
        self._state[1] = bid + 1
        self._blen[bid] = 0
        self._bids[int(self._boff[u]) + bcnt] = bid
        self._bcnt[u] = bcnt + 1
        self._replay_event(0, bid)
        return bid

    def insert(self, src: int, dst: int, weight: float, recorder):
        from repro.graph.stinger import (
            BLOCK_CAPACITY,
            VERTEX_ENTRY_BYTES,
            _InsertOutcome,
        )

        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        bi, slot, before = self._find_edge(src, dst)
        if bi >= 0:
            if tracing:
                self._trace_scan(src, bi + 1, recorder)
            return _InsertOutcome(
                search_chases=bi + 1,
                search_probes=before + slot + 1,
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=None,
            )
        bcnt = int(self._bcnt[src])
        search_probes = int(self._deg[src])
        if tracing:
            self._trace_scan(src, bcnt, recorder)
        boff = int(self._boff[src])
        target = None
        for k in range(bcnt):
            if int(self._blen[int(self._bids[boff + k])]) < BLOCK_CAPACITY:
                target = k
                break
        new_block = False
        if target is None:
            space_chases = bcnt
            self._append_block(src)
            new_block = True
            target = bcnt
        else:
            space_chases = target + 1
        tb = int(self._bids[int(self._boff[src]) + target])
        tslot = int(self._blen[tb])
        self._bnbr[tb * 16 + tslot] = dst
        self._bwgt[tb * 16 + tslot] = weight
        self._blen[tb] = tslot + 1
        self._deg[src] += 1
        if tracing:
            recorder.access(self._entry_address(tb, tslot), write=True)
        return _InsertOutcome(
            search_chases=bcnt,
            search_probes=search_probes,
            space_chases=space_chases,
            inserted=True,
            new_block=new_block,
            lock=self.lock_base + tb,
        )

    def remove(self, src: int, dst: int, recorder):
        from repro.graph.stinger import VERTEX_ENTRY_BYTES, _InsertOutcome

        tracing = recorder.enabled
        if tracing:
            recorder.access(self._vertex_array.element(src, VERTEX_ENTRY_BYTES))
        bi, slot, before = self._find_edge(src, dst)
        if bi < 0:
            if tracing:
                self._trace_scan(src, int(self._bcnt[src]), recorder)
            return _InsertOutcome(
                search_chases=int(self._bcnt[src]),
                search_probes=int(self._deg[src]),
                space_chases=0,
                inserted=False,
                new_block=False,
                lock=None,
            )
        if tracing:
            self._trace_scan(src, bi + 1, recorder)
        tb = int(self._bids[int(self._boff[src]) + bi])
        last = int(self._blen[tb]) - 1
        if slot != last:
            self._bnbr[tb * 16 + slot] = self._bnbr[tb * 16 + last]
            self._bwgt[tb * 16 + slot] = self._bwgt[tb * 16 + last]
            if tracing:
                recorder.access(self._entry_address(tb, slot), write=True)
        self._blen[tb] = last
        self._deg[src] -= 1
        freed = False
        if last == 0 and bi == int(self._bcnt[src]) - 1:
            self._bcnt[src] = bi
            self._replay_event(1, tb)
            freed = True
        return _InsertOutcome(
            search_chases=bi + 1,
            search_probes=before + slot + 1,
            space_chases=0,
            inserted=True,
            new_block=freed,
            lock=self.lock_base + tb,
        )

    def _entry_address(self, block_id: int, slot: int) -> int:
        from repro.graph.stinger import BLOCK_HEADER_BYTES

        return (
            self._regions[block_id].base
            + BLOCK_HEADER_BYTES
            + slot * ENTRY_BYTES
        )

    def _trace_scan(self, u: int, block_count: int, recorder) -> None:
        from repro.graph.stinger import BLOCK_HEADER_BYTES

        boff = int(self._boff[u])
        for k in range(block_count):
            bid = int(self._bids[boff + k])
            region = self._regions[bid]
            recorder.access(region.base)  # header / next pointer
            recorder.access_range(
                region.base + BLOCK_HEADER_BYTES,
                int(self._blen[bid]),
                ENTRY_BYTES,
            )

    # -- queries -------------------------------------------------------

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        boff = int(self._boff[u])
        result: List[Tuple[int, float]] = []
        for k in range(int(self._bcnt[u])):
            bid = int(self._bids[boff + k])
            length = int(self._blen[bid])
            result.extend(
                zip(
                    self._bnbr[bid * 16:bid * 16 + length].tolist(),
                    self._bwgt[bid * 16:bid * 16 + length].tolist(),
                )
            )
        return result

    def degree(self, u: int) -> int:
        return int(self._deg[u])

    def block_count(self, u: int) -> int:
        return int(self._bcnt[u])

    def trace_traversal(self, u: int, recorder) -> None:
        from repro.graph.stinger import VERTEX_ENTRY_BYTES

        recorder.access(self._vertex_array.element(u, VERTEX_ENTRY_BYTES))
        self._trace_scan(u, int(self._bcnt[u]), recorder)


def native_stinger_ingest(out_store, in_store, batch, directed, delete):
    """Fused batch ingest through the compiled Stinger kernel.

    Returns ``(positive, chases, probes, space, hit, new_block, lock)``
    with the columns as numpy arrays matching the per-edge twins row
    for row; block alloc/free events replay in call order so the
    simulated address space lays out identically.
    """
    from repro.sim.scheduler import NO_LOCK

    kernels = out_store._kernels
    n = len(batch)
    src = np.ascontiguousarray(batch.src, dtype=np.int64)
    dst = np.ascontiguousarray(batch.dst, dtype=np.int64)
    if delete:
        wgt = np.empty(1, dtype=np.float64)
    else:
        wgt = np.ascontiguousarray(batch.weight, dtype=np.float64)
    if directed:
        rows = 2 * n
    else:
        rows = n + int(np.count_nonzero(src != dst))
    chases = np.zeros(rows, dtype=np.int64)
    probes = np.zeros(rows, dtype=np.int64)
    space = np.zeros(rows, dtype=np.int64)
    hit = np.zeros(rows, dtype=np.bool_)
    newblk = np.zeros(rows, dtype=np.bool_)
    lock = np.zeros(rows, dtype=np.int64)
    events = np.zeros(3 * (rows + 1), dtype=np.int64)
    ctl = np.zeros(8, dtype=np.int64)
    p = kernels._p
    with TRACER.span("ingest.ckernel"):
        while True:
            rc = kernels.stinger_ingest(
                n, p(src), p(dst), p(wgt),
                int(directed), int(delete), int(NO_LOCK),
                *out_store._kernel_args(), *in_store._kernel_args(),
                p(chases), p(probes), p(space), p(hit), p(newblk), p(lock),
                p(events), p(ctl),
            )
            if rc == cingest.OK:
                break
            stalled = out_store if int(ctl[5]) == 0 else in_store
            if int(ctl[6]) == 0:
                stalled._grow_bid_pool(int(ctl[7]))
            else:
                stalled._grow_block_pool()
    for k in range(int(ctl[4])):
        code, block_id = int(events[3 * k]), int(events[3 * k + 1])
        store = in_store if code >= 2 else out_store
        store._replay_event(code & 1, block_id)
    return int(ctl[3]), chases, probes, space, hit, newblk, lock


def native_vec_ingest(out_store, in_store, batch, directed, delete,
                      record_moved=True):
    """Fused batch ingest through the compiled vector kernel.

    Operation for operation equivalent to the per-edge twins -- same
    store mutations in the same order, same scanned/hit/aux rows, same
    simulated-memory layout (growth events replayed in call order).
    ``aux`` is grew_from (insert) or moved (delete; always 0 when
    ``record_moved`` is false, for stores that do not price backfill
    moves).  Returns ``(positive, scanned, hit, aux)`` with the columns
    as numpy arrays, ready for the emitters' vectorized pricing.
    """
    kernels = out_store._kernels
    n = len(batch)
    src = np.ascontiguousarray(batch.src, dtype=np.int64)
    dst = np.ascontiguousarray(batch.dst, dtype=np.int64)
    if delete:
        wgt = np.empty(1, dtype=np.float64)
    else:
        wgt = np.ascontiguousarray(batch.weight, dtype=np.float64)
    if directed:
        rows = 2 * n
    else:
        rows = n + int(np.count_nonzero(src != dst))
    scanned = np.zeros(rows, dtype=np.int64)
    hit = np.zeros(rows, dtype=np.bool_)
    aux = np.zeros(rows, dtype=np.int64)
    events = np.zeros(3 * (rows + 1), dtype=np.int64)
    ctl = np.zeros(8, dtype=np.int64)
    p = kernels._p
    with TRACER.span("ingest.ckernel"):
        while True:
            rc = kernels.vec_ingest(
                n, p(src), p(dst), p(wgt),
                int(directed), int(delete), int(record_moved),
                *out_store._kernel_args(), *in_store._kernel_args(),
                p(scanned), p(hit), p(aux), p(events), p(ctl),
            )
            if rc == cingest.OK:
                break
            stalled = out_store if int(ctl[5]) == 0 else in_store
            stalled._grow_pool(int(ctl[6]))
    for k in range(int(ctl[4])):
        mirror, vertex, new_capacity = events[3 * k:3 * k + 3]
        store = in_store if mirror else out_store
        store._replay_grow(int(vertex), int(new_capacity))
    return int(ctl[3]), scanned, hit, aux


class _NativeNeighborSetView:
    """The hashed neighbor set of one high-degree DAH vertex."""

    __slots__ = ("_store", "_sid")

    def __init__(self, store: "NativeDAHStore", sid: int) -> None:
        self._store = store
        self._sid = sid

    def neighbors(self) -> List[Tuple[int, float]]:
        s = self._store
        off = int(s._soff[self._sid])
        cap = int(s._scap[self._sid])
        keys = s._skeys[off:off + cap]
        live = keys >= 0
        return list(
            zip(keys[live].tolist(), s._swgt[off:off + cap][live].tolist())
        )

    def __len__(self) -> int:
        return int(self._store._ssize[self._sid])


class NativeDAHStore:
    """One direction of DAH: degree-aware hashing.

    Per-chunk Robin Hood low tables and open-address high tables live
    as spans in flat key/value arenas; low-table values are ids into a
    fixed-width inline-neighbor pool, high-table values are ids into a
    neighbor-set arena.  Every table grows by doubling once its load
    would exceed 0.7.  Table resizes bump-allocate a doubled span (old
    spans leak -- the arenas are backing storage, not the simulated
    memory, whose regions are freed and re-allocated with the same
    labels on every resize, by the twins inline and by the event-log
    replay after a kernel call).
    """

    EMPTY = -1
    TOMB = -2
    INLINE_CAP = 17  # threshold 16 + the slot that triggers the flush
    LOW_INIT = 64
    HIGH_INIT = 16
    SET_INIT = 32

    def __init__(self, max_nodes: int, chunks: int, space: AddressSpace,
                 label: str,
                 kernels: Optional[cingest.IngestKernels] = None) -> None:
        from repro.graph.dah import HIGH_SLOT_BYTES, LOW_SLOT_BYTES

        self.max_nodes = max_nodes
        self.chunks = chunks
        self.space = space
        self.label = label
        self._kernels = kernels
        low_span = chunks * self.LOW_INIT
        high_span = chunks * self.HIGH_INIT
        self._loff = np.arange(chunks, dtype=np.int64) * self.LOW_INIT
        self._lcap = np.full(chunks, self.LOW_INIT, dtype=np.int64)
        self._lsize = np.zeros(chunks, dtype=np.int64)
        self._lkeys = np.full(
            max(1 << 13, 2 * low_span), self.EMPTY, dtype=np.int64
        )
        self._lval = np.zeros(len(self._lkeys), dtype=np.int64)
        self._hoff = np.arange(chunks, dtype=np.int64) * self.HIGH_INIT
        self._hcap = np.full(chunks, self.HIGH_INIT, dtype=np.int64)
        self._hsize = np.zeros(chunks, dtype=np.int64)
        self._hkeys = np.full(
            max(1 << 11, 2 * high_span), self.EMPTY, dtype=np.int64
        )
        self._hval = np.zeros(len(self._hkeys), dtype=np.int64)
        inline_cap = 1 << 10
        self._inl_nbr = np.empty(self.INLINE_CAP * inline_cap, dtype=np.int64)
        self._inl_wgt = np.empty(self.INLINE_CAP * inline_cap, dtype=np.float64)
        self._inl_len = np.zeros(inline_cap, dtype=np.int64)
        self._inl_free = np.zeros(inline_cap, dtype=np.int64)
        meta = 256
        self._soff = np.zeros(meta, dtype=np.int64)
        self._scap = np.zeros(meta, dtype=np.int64)
        self._ssize = np.zeros(meta, dtype=np.int64)
        self._skeys = np.full(1 << 12, self.EMPTY, dtype=np.int64)
        self._swgt = np.zeros(len(self._skeys), dtype=np.float64)
        self._state = np.zeros(6, dtype=np.int64)
        self._state[0] = low_span
        self._state[1] = high_span
        # Region-allocation order: every low table, then every high
        # table.
        self._low_regions = [
            space.alloc(self.LOW_INIT * LOW_SLOT_BYTES, f"{label}.low{c}")
            for c in range(chunks)
        ]
        self._high_regions = [
            space.alloc(self.HIGH_INIT * HIGH_SLOT_BYTES, f"{label}.high{c}")
            for c in range(chunks)
        ]
        self._set_regions: List[Region] = []

    # -- arena plumbing ------------------------------------------------

    def _descriptor(self) -> np.ndarray:
        p = self._kernels._p
        d = np.empty(26, dtype=np.int64)
        d[0] = self.chunks
        d[1] = p(self._loff); d[2] = p(self._lcap); d[3] = p(self._lsize)
        d[4] = p(self._lkeys); d[5] = p(self._lval); d[6] = len(self._lkeys)
        d[7] = p(self._hoff); d[8] = p(self._hcap); d[9] = p(self._hsize)
        d[10] = p(self._hkeys); d[11] = p(self._hval)
        d[12] = len(self._hkeys)
        d[13] = p(self._inl_nbr); d[14] = p(self._inl_wgt)
        d[15] = p(self._inl_len)
        d[16] = len(self._inl_len)
        d[17] = p(self._inl_free)
        d[18] = p(self._soff); d[19] = p(self._scap); d[20] = p(self._ssize)
        d[21] = len(self._soff)
        d[22] = p(self._skeys); d[23] = p(self._swgt)
        d[24] = len(self._skeys)
        d[25] = p(self._state)
        return d

    @staticmethod
    def _grown(array: np.ndarray, target: int, fill=None) -> np.ndarray:
        size = len(array)
        while size < target:
            size *= 2
        if fill is None:
            grown = np.empty(size, dtype=array.dtype)
        else:
            grown = np.full(size, fill, dtype=array.dtype)
        grown[:len(array)] = array
        return grown

    def _grow_low_arena(self, need: int) -> None:
        target = int(self._state[0]) + need
        self._lkeys = self._grown(self._lkeys, target)
        self._lval = self._grown(self._lval, target)

    def _grow_high_arena(self, need: int) -> None:
        target = int(self._state[1]) + need
        self._hkeys = self._grown(self._hkeys, target)
        self._hval = self._grown(self._hval, target)

    def _grow_inline_pool(self) -> None:
        target = 2 * len(self._inl_len)
        self._inl_nbr = self._grown(self._inl_nbr, self.INLINE_CAP * target)
        self._inl_wgt = self._grown(self._inl_wgt, self.INLINE_CAP * target)
        self._inl_len = self._grown(self._inl_len, target)
        self._inl_free = self._grown(self._inl_free, target)

    def _grow_set_arena(self, need: int) -> None:
        target = int(self._state[4]) + need
        self._skeys = self._grown(self._skeys, target)
        self._swgt = self._grown(self._swgt, target)

    def _grow_set_meta(self) -> None:
        target = 2 * len(self._soff)
        self._soff = self._grown(self._soff, target)
        self._scap = self._grown(self._scap, target)
        self._ssize = self._grown(self._ssize, target)

    def _replay_event(self, kind: int, a: int, b: int) -> None:
        from repro.graph.dah import (
            HIGH_SLOT_BYTES,
            LOW_SLOT_BYTES,
            NEIGHBOR_SLOT_BYTES,
        )

        if kind == 0:  # low table resized to b slots
            self.space.free(self._low_regions[a])
            self._low_regions[a] = self.space.alloc(
                b * LOW_SLOT_BYTES, f"{self.label}.low{a}"
            )
        elif kind == 1:  # high table resized
            self.space.free(self._high_regions[a])
            self._high_regions[a] = self.space.alloc(
                b * HIGH_SLOT_BYTES, f"{self.label}.high{a}"
            )
        elif kind == 2:  # set a created (ids are sequential)
            self._set_regions.append(
                self.space.alloc(
                    b * NEIGHBOR_SLOT_BYTES, f"{self.label}.nbr{a}"
                )
            )
        else:  # set a resized
            self.space.free(self._set_regions[a])
            self._set_regions[a] = self.space.alloc(
                b * NEIGHBOR_SLOT_BYTES, f"{self.label}.nbr{a}"
            )

    # -- per-edge twin: table primitives -------------------------------
    # Python ints throughout: the hash multiply must not wrap at 64
    # bits the numpy way before masking.

    @staticmethod
    def _hash(key: int, mask: int) -> int:
        return ((key * _HASH_MULT & _HASH_WRAP) >> 17) & mask

    def _oa_get_path(self, keys, off: int, cap: int, key: int):
        """(slot or None, probe path) of open-address ``get``."""
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        for _ in range(cap):
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None, path
            if occ != self.TOMB and occ == key:
                return slot, path
            slot = (slot + 1) & mask
        return None, path

    def _rh_get_path(self, off: int, cap: int, key: int):
        """(slot or None, probe path) of Robin Hood ``get``."""
        keys = self._lkeys
        mask = cap - 1
        slot = self._hash(key, mask)
        distance = 0
        path = []
        while True:
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None, path
            if occ == key:
                return slot, path
            if ((slot - self._hash(occ, mask)) & mask) < distance:
                return None, path
            slot = (slot + 1) & mask
            distance += 1

    def _rh_raw_insert(self, off: int, cap: int, key: int, val: int) -> None:
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        slot = self._hash(key, mask)
        cur_key, cur_val, cur_distance = key, val, 0
        while True:
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                keys[off + slot] = cur_key
                vals[off + slot] = cur_val
                return
            occupant_distance = (slot - self._hash(occ, mask)) & mask
            if occupant_distance < cur_distance:
                keys[off + slot] = cur_key
                cur_key = occ
                vals[off + slot], cur_val = cur_val, int(vals[off + slot])
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1

    def _low_put(self, c: int, key: int, val: int):
        """Robin Hood put with growth; returns (path, resized_moves)."""
        from repro.graph.dah import LOW_SLOT_BYTES

        moved = 0
        if 10 * (int(self._lsize[c]) + 1) > 7 * int(self._lcap[c]):
            old_cap = int(self._lcap[c])
            old_off = int(self._loff[c])
            new_cap = old_cap * 2
            self._grow_low_arena(new_cap)
            new_off = int(self._state[0])
            self._lkeys[new_off:new_off + new_cap] = self.EMPTY
            for i in range(old_cap):
                occ = int(self._lkeys[old_off + i])
                if occ == self.EMPTY:
                    continue
                self._rh_raw_insert(
                    new_off, new_cap, occ, int(self._lval[old_off + i])
                )
                moved += 1
            self._state[0] = new_off + new_cap
            self._loff[c] = new_off
            self._lcap[c] = new_cap
            self.space.free(self._low_regions[c])
            self._low_regions[c] = self.space.alloc(
                new_cap * LOW_SLOT_BYTES, f"{self.label}.low{c}"
            )
        off = int(self._loff[c])
        cap = int(self._lcap[c])
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        cur_key, cur_val, cur_distance = key, val, 0
        while True:
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                keys[off + slot] = cur_key
                vals[off + slot] = cur_val
                self._lsize[c] += 1
                return path, moved
            occupant_distance = (slot - self._hash(occ, mask)) & mask
            if occupant_distance < cur_distance:
                keys[off + slot] = cur_key
                cur_key = occ
                vals[off + slot], cur_val = cur_val, int(vals[off + slot])
                cur_distance = occupant_distance
            slot = (slot + 1) & mask
            cur_distance += 1

    def _rh_delete(self, c: int, key: int):
        """Backward-shift delete; returns the search path."""
        off = int(self._loff[c])
        cap = int(self._lcap[c])
        slot, path = self._rh_get_path(off, cap, key)
        if slot is None:
            return path
        keys = self._lkeys
        vals = self._lval
        mask = cap - 1
        while True:
            next_slot = (slot + 1) & mask
            occ = int(keys[off + next_slot])
            if occ == self.EMPTY or self._hash(occ, mask) == next_slot:
                break
            keys[off + slot] = occ
            vals[off + slot] = vals[off + next_slot]
            slot = next_slot
        keys[off + slot] = self.EMPTY
        vals[off + slot] = 0
        self._lsize[c] -= 1
        return path

    def _oa_put(self, keys, vals, off: int, cap: int, key: int, val):
        """Open-address put on a span (no growth); returns the path."""
        mask = cap - 1
        slot = self._hash(key, mask)
        path = []
        first_tombstone = None
        for _ in range(cap + 1):
            path.append(slot)
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                target = first_tombstone if first_tombstone is not None else slot
                keys[off + target] = key
                vals[off + target] = val
                return path
            if occ == self.TOMB and first_tombstone is None:
                first_tombstone = slot
            slot = (slot + 1) & mask
        keys[off + first_tombstone] = key
        vals[off + first_tombstone] = val
        return path

    def _high_put(self, c: int, key: int, sid: int):
        """High-table put with growth; returns (path, resized_moves)."""
        from repro.graph.dah import HIGH_SLOT_BYTES

        moved = 0
        if 10 * (int(self._hsize[c]) + 1) > 7 * int(self._hcap[c]):
            old_cap = int(self._hcap[c])
            old_off = int(self._hoff[c])
            new_cap = old_cap * 2
            self._grow_high_arena(new_cap)
            new_off = int(self._state[1])
            self._hkeys[new_off:new_off + new_cap] = self.EMPTY
            mask = new_cap - 1
            for i in range(old_cap):
                occ = int(self._hkeys[old_off + i])
                if occ < 0:  # empty or tombstone
                    continue
                slot = self._hash(occ, mask)
                while int(self._hkeys[new_off + slot]) != self.EMPTY:
                    slot = (slot + 1) & mask
                self._hkeys[new_off + slot] = occ
                self._hval[new_off + slot] = self._hval[old_off + i]
                moved += 1
            self._hsize[c] = moved
            self._state[1] = new_off + new_cap
            self._hoff[c] = new_off
            self._hcap[c] = new_cap
            self.space.free(self._high_regions[c])
            self._high_regions[c] = self.space.alloc(
                new_cap * HIGH_SLOT_BYTES, f"{self.label}.high{c}"
            )
        path = self._oa_put(
            self._hkeys, self._hval, int(self._hoff[c]), int(self._hcap[c]),
            key, sid,
        )
        self._hsize[c] += 1
        return path, moved

    def _set_put(self, sid: int, key: int, weight: float):
        """Neighbor-set put with growth; returns (path, resized_moves)."""
        from repro.graph.dah import NEIGHBOR_SLOT_BYTES

        moved = 0
        if 10 * (int(self._ssize[sid]) + 1) > 7 * int(self._scap[sid]):
            old_cap = int(self._scap[sid])
            old_off = int(self._soff[sid])
            new_cap = old_cap * 2
            self._grow_set_arena(new_cap)
            new_off = int(self._state[4])
            self._skeys[new_off:new_off + new_cap] = self.EMPTY
            mask = new_cap - 1
            for i in range(old_cap):
                occ = int(self._skeys[old_off + i])
                if occ < 0:
                    continue
                slot = self._hash(occ, mask)
                while int(self._skeys[new_off + slot]) != self.EMPTY:
                    slot = (slot + 1) & mask
                self._skeys[new_off + slot] = occ
                self._swgt[new_off + slot] = self._swgt[old_off + i]
                moved += 1
            self._ssize[sid] = moved
            self._state[4] = new_off + new_cap
            self._soff[sid] = new_off
            self._scap[sid] = new_cap
            self.space.free(self._set_regions[sid])
            self._set_regions[sid] = self.space.alloc(
                new_cap * NEIGHBOR_SLOT_BYTES, f"{self.label}.nbr{sid}"
            )
        path = self._oa_put(
            self._skeys, self._swgt, int(self._soff[sid]),
            int(self._scap[sid]), key, weight,
        )
        self._ssize[sid] += 1
        return path, moved

    def _set_delete(self, sid: int, key: int):
        """Tombstone ``key`` in a neighbor set; returns (found, path)."""
        off = int(self._soff[sid])
        gslot, path = self._oa_get_path(
            self._skeys, off, int(self._scap[sid]), key
        )
        if gslot is None:
            return False, path
        self._skeys[off + gslot] = self.TOMB
        self._swgt[off + gslot] = 0.0
        self._ssize[sid] -= 1
        return True, path

    def _new_set(self) -> int:
        from repro.graph.dah import NEIGHBOR_SLOT_BYTES

        if int(self._state[5]) >= len(self._soff):
            self._grow_set_meta()
        if int(self._state[4]) + self.SET_INIT > len(self._skeys):
            self._grow_set_arena(self.SET_INIT)
        sid = int(self._state[5])
        self._state[5] = sid + 1
        off = int(self._state[4])
        self._state[4] = off + self.SET_INIT
        self._soff[sid] = off
        self._scap[sid] = self.SET_INIT
        self._ssize[sid] = 0
        self._skeys[off:off + self.SET_INIT] = self.EMPTY
        self._set_regions.append(
            self.space.alloc(
                self.SET_INIT * NEIGHBOR_SLOT_BYTES,
                f"{self.label}.nbr{sid}",
            )
        )
        return sid

    def _alloc_inline(self) -> int:
        top = int(self._state[3])
        if top > 0:
            self._state[3] = top - 1
            return int(self._inl_free[top - 1])
        if int(self._state[2]) >= len(self._inl_len):
            self._grow_inline_pool()
        iid = int(self._state[2])
        self._state[2] = iid + 1
        return iid

    def _free_inline(self, iid: int) -> None:
        top = int(self._state[3])
        self._inl_free[top] = iid
        self._state[3] = top + 1

    @staticmethod
    def _trace_path(region: Region, slot_bytes: int, path, recorder,
                    write_last: bool = False) -> None:
        if not recorder.enabled:
            return
        last = len(path) - 1
        for i, slot in enumerate(path):
            recorder.access(
                region.element(slot, slot_bytes),
                write=write_last and i == last,
            )

    # -- per-edge twin: store operations -------------------------------

    def _set_insert(self, sid: int, dst: int, weight: float, recorder,
                    stats) -> bool:
        from repro.graph.dah import NEIGHBOR_SLOT_BYTES

        gslot, path = self._oa_get_path(
            self._skeys, int(self._soff[sid]), int(self._scap[sid]), dst
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(
            self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder
        )
        if gslot is not None:
            return False
        path, moved = self._set_put(sid, dst, weight)
        stats.hash_ops += 1
        stats.table_probes += len(path)
        stats.rehash_moves += moved
        self._trace_path(
            self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder,
            write_last=True,
        )
        return True

    def insert(self, src: int, dst: int, weight: float, recorder):
        from repro.graph.dah import (
            HIGH_SLOT_BYTES,
            LOW_DEGREE_THRESHOLD,
            LOW_SLOT_BYTES,
            _InsertStats,
        )

        stats = _InsertStats()
        c = src % self.chunks
        stats.degree_queries += 1
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            stats.inserted = self._set_insert(sid, dst, weight, recorder, stats)
            return stats

        stats.degree_queries += 1
        lslot, path = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)
        if lslot is None:
            iid = self._alloc_inline()
            self._inl_len[iid] = 1
            self._inl_nbr[iid * self.INLINE_CAP] = dst
            self._inl_wgt[iid * self.INLINE_CAP] = weight
            path, moved = self._low_put(c, src, iid)
            stats.hash_ops += 1
            stats.table_probes += len(path)
            stats.rehash_moves += moved
            self._trace_path(
                self._low_regions[c], LOW_SLOT_BYTES, path, recorder,
                write_last=True,
            )
            stats.inserted = True
            return stats

        iid = int(self._lval[int(self._loff[c]) + lslot])
        length = int(self._inl_len[iid])
        base = iid * self.INLINE_CAP
        for i in range(length):
            stats.inline_scanned = i + 1
            if int(self._inl_nbr[base + i]) == dst:
                return stats  # duplicate
        stats.inline_scanned = length
        self._inl_nbr[base + length] = dst
        self._inl_wgt[base + length] = weight
        self._inl_len[iid] = length + 1
        stats.inserted = True
        if length + 1 <= LOW_DEGREE_THRESHOLD:
            return stats

        # Flush: src outgrew the inline array; migrate to the high table.
        path = self._rh_delete(c, src)
        stats.table_probes += len(path)
        sid = self._new_set()
        for j in range(length + 1):
            self._set_insert(
                sid,
                int(self._inl_nbr[base + j]),
                float(self._inl_wgt[base + j]),
                recorder,
                stats,
            )
            stats.flushed += 1
        path, moved = self._high_put(c, src, sid)
        stats.hash_ops += 1
        stats.table_probes += len(path)
        stats.rehash_moves += moved
        self._trace_path(
            self._high_regions[c], HIGH_SLOT_BYTES, path, recorder,
            write_last=True,
        )
        self._free_inline(iid)
        return stats

    def remove(self, src: int, dst: int, recorder):
        from repro.graph.dah import (
            HIGH_SLOT_BYTES,
            LOW_SLOT_BYTES,
            NEIGHBOR_SLOT_BYTES,
            _InsertStats,
        )

        stats = _InsertStats()
        c = src % self.chunks
        stats.degree_queries += 1
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            found, path = self._set_delete(sid, dst)
            stats.hash_ops += 1
            stats.table_probes += len(path)
            self._trace_path(
                self._set_regions[sid], NEIGHBOR_SLOT_BYTES, path, recorder,
                write_last=found,
            )
            stats.inserted = found
            return stats

        stats.degree_queries += 1
        lslot, path = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), src
        )
        stats.hash_ops += 1
        stats.table_probes += len(path)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)
        if lslot is None:
            return stats
        iid = int(self._lval[int(self._loff[c]) + lslot])
        length = int(self._inl_len[iid])
        base = iid * self.INLINE_CAP
        for index in range(length):
            stats.inline_scanned = index + 1
            if int(self._inl_nbr[base + index]) == dst:
                self._inl_nbr[base + index] = self._inl_nbr[base + length - 1]
                self._inl_wgt[base + index] = self._inl_wgt[base + length - 1]
                self._inl_len[iid] = length - 1
                stats.inserted = True
                if length - 1 == 0:
                    path = self._rh_delete(c, src)
                    stats.table_probes += len(path)
                    self._free_inline(iid)
                return stats
        return stats

    # -- queries -------------------------------------------------------

    def chunk_of(self, u: int) -> int:
        return u % self.chunks

    def _oa_find(self, keys, off: int, cap: int, key: int) -> Optional[int]:
        mask = cap - 1
        slot = self._hash(key, mask)
        for _ in range(cap):
            occ = int(keys[off + slot])
            if occ == self.EMPTY:
                return None
            if occ != self.TOMB and occ == key:
                return slot
            slot = (slot + 1) & mask
        return None

    def _lookup(self, u: int):
        """(container, is_high) for ``u``; container may be None."""
        c = u % self.chunks
        hslot = self._oa_find(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), u
        )
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            return _NativeNeighborSetView(self, sid), True
        lslot, _ = self._rh_get_path(
            int(self._loff[c]), int(self._lcap[c]), u
        )
        if lslot is not None:
            iid = int(self._lval[int(self._loff[c]) + lslot])
            length = int(self._inl_len[iid])
            base = iid * self.INLINE_CAP
            return (
                list(
                    zip(
                        self._inl_nbr[base:base + length].tolist(),
                        self._inl_wgt[base:base + length].tolist(),
                    )
                ),
                False,
            )
        return None, False

    def neighbors(self, u: int) -> List[Tuple[int, float]]:
        container, is_high = self._lookup(u)
        if container is None:
            return []
        return container.neighbors() if is_high else list(container)

    def degree(self, u: int) -> int:
        container, _ = self._lookup(u)
        return len(container) if container is not None else 0

    def is_high_degree(self, u: int) -> bool:
        _, is_high = self._lookup(u)
        return is_high

    def trace_traversal(self, u: int, recorder) -> None:
        from repro.graph.dah import (
            HIGH_SLOT_BYTES,
            LOW_SLOT_BYTES,
            NEIGHBOR_SLOT_BYTES,
        )

        c = u % self.chunks
        hslot, path = self._oa_get_path(
            self._hkeys, int(self._hoff[c]), int(self._hcap[c]), u
        )
        self._trace_path(self._high_regions[c], HIGH_SLOT_BYTES, path, recorder)
        if hslot is not None:
            sid = int(self._hval[int(self._hoff[c]) + hslot])
            recorder.access_range(
                self._set_regions[sid].base,
                int(self._scap[sid]),
                NEIGHBOR_SLOT_BYTES,
            )
            return
        _, path = self._rh_get_path(int(self._loff[c]), int(self._lcap[c]), u)
        self._trace_path(self._low_regions[c], LOW_SLOT_BYTES, path, recorder)


def native_dah_ingest(out_store, in_store, batch, directed, delete):
    """Fused batch ingest through the compiled DAH kernel.

    Returns ``(positive, table_probes, hash_ops, inline_scanned,
    degree_queries, flushed, rehash_moves, hit, chunk)`` matching the
    fused Python loop row for row; table-region and neighbor-set
    allocations replay from the event log in call order.
    """
    kernels = out_store._kernels
    n = len(batch)
    src = np.ascontiguousarray(batch.src, dtype=np.int64)
    dst = np.ascontiguousarray(batch.dst, dtype=np.int64)
    if delete:
        wgt = np.empty(1, dtype=np.float64)
    else:
        wgt = np.ascontiguousarray(batch.weight, dtype=np.float64)
    if directed:
        rows = 2 * n
    else:
        rows = n + int(np.count_nonzero(src != dst))
    table_probes = np.zeros(rows, dtype=np.int64)
    hash_ops = np.zeros(rows, dtype=np.int64)
    inline_scanned = np.zeros(rows, dtype=np.int64)
    degree_queries = np.zeros(rows, dtype=np.int64)
    flushed = np.zeros(rows, dtype=np.int64)
    rehash_moves = np.zeros(rows, dtype=np.int64)
    hit = np.zeros(rows, dtype=np.bool_)
    chunk = np.zeros(rows, dtype=np.int64)
    events = np.zeros(3 * (2 * rows + 2), dtype=np.int64)
    ctl = np.zeros(8, dtype=np.int64)
    p = kernels._p
    with TRACER.span("ingest.ckernel"):
        while True:
            out_desc = out_store._descriptor()
            in_desc = in_store._descriptor()
            rc = kernels.dah_ingest(
                n, p(src), p(dst), p(wgt), int(directed), int(delete),
                p(out_desc), p(in_desc),
                p(table_probes), p(hash_ops), p(inline_scanned),
                p(degree_queries), p(flushed), p(rehash_moves),
                p(hit), p(chunk),
                p(events), p(ctl),
            )
            if rc == cingest.OK:
                break
            stalled = out_store if int(ctl[5]) == 0 else in_store
            code = int(ctl[6])
            need = int(ctl[7])
            if code == 0:
                stalled._grow_low_arena(need)
            elif code == 1:
                stalled._grow_high_arena(need)
            elif code == 2:
                stalled._grow_inline_pool()
            elif code == 3:
                stalled._grow_set_arena(need)
            else:
                stalled._grow_set_meta()
    for k in range(int(ctl[4])):
        code, a, b = (
            int(events[3 * k]),
            int(events[3 * k + 1]),
            int(events[3 * k + 2]),
        )
        store = in_store if code >= 4 else out_store
        store._replay_event(code & 3, a, b)
    return (
        int(ctl[3]), table_probes, hash_ops, inline_scanned,
        degree_queries, flushed, rehash_moves, hit, chunk,
    )
