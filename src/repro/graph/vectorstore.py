"""Layout constants and outcome records of the vector-family stores.

AS and AC store, per vertex, a contiguous growable vector of
``(neighbor, weight)`` entries; they differ only in multithreading
style (per-vertex locks vs lockless chunks).  The store itself is
:class:`~repro.graph.nativestore.NativeVectorStore`; this module holds
its byte layout, the primitive counts each operation reports for
pricing, and :func:`row_layout`, which rebuilds per-row columns of a
fused batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes of one (neighbor, weight) entry: 4B id + 4B weight, packed.
ENTRY_BYTES = 8

#: Bytes of one per-vertex header (pointer, size, capacity, lock word).
HEADER_BYTES = 16

#: Initial capacity of a vertex's neighbor vector.
INITIAL_CAPACITY = 4


@dataclass
class InsertOutcome:
    """Primitive counts of one search-then-insert operation."""

    scanned: int  # entries compared during the search scan
    inserted: bool  # False when the edge already existed
    grew_from: int  # elements moved by a capacity doubling (0 if none)


@dataclass
class RemoveOutcome:
    """Primitive counts of one search-then-remove operation."""

    scanned: int  # entries compared during the search scan
    removed: bool  # False when the edge was absent
    moved: int  # entries moved to close the hole (swap-remove: 0 or 1)


def row_layout(src, dst, directed):
    """Per-row source vertex and mirror flag for one fused batch.

    Rows appear in ingest order -- each edge's out-store operation,
    then its mirror operation (skipped for undirected self-loops) --
    matching the per-edge loop, so per-row columns that depend only on
    the batch content (lock and chunk ids) can be rebuilt vectorized
    instead of appended inside the hot loop.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n = len(src)
    if directed:
        row_src = np.empty(2 * n, dtype=np.int64)
        row_src[0::2] = src
        row_src[1::2] = dst
        mirror = np.zeros(2 * n, dtype=bool)
        mirror[1::2] = True
        return row_src, mirror
    mirrored = src != dst
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(1 + mirrored[:-1], out=starts[1:])
    row_src = np.empty(n + int(np.count_nonzero(mirrored)), dtype=np.int64)
    mirror = np.zeros(len(row_src), dtype=bool)
    row_src[starts] = src
    mirror_rows = starts[mirrored] + 1
    row_src[mirror_rows] = dst[mirrored]
    mirror[mirror_rows] = True
    return row_src, mirror
