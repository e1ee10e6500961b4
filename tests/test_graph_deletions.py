"""Edge-deletion support across all four structures.

Deletion is the natural extension of the paper's insert-only streams
(the real streaming systems SAGA-Bench draws from support it).  Every
structure must stay equivalent to the reference model through
arbitrary interleavings of insert and delete batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    EdgeBatch,
    ExecutionContext,
    ReferenceGraph,
    STRUCTURES,
    make_structure,
)
from tests.conftest import SMALL_MACHINE, random_batch
from tests.test_graph_structures import assert_same_graph

ALL = sorted(STRUCTURES)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
class TestDeleteAgainstReference:
    def test_delete_half_the_batch(self, name, directed):
        batch = random_batch(30, 200, seed=8)
        to_delete = batch.slice(0, 100)
        structure = make_structure(name, 30, directed=directed)
        reference = ReferenceGraph(30, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(batch, ctx)
        reference.update(batch)
        result = structure.delete(to_delete, ctx)
        reference.delete_collect(to_delete)
        assert result.extra["operation"] == "delete"
        assert_same_graph(structure, reference)

    def test_delete_everything(self, name, directed):
        batch = random_batch(20, 120, seed=9)
        structure = make_structure(name, 20, directed=directed)
        reference = ReferenceGraph(20, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(batch, ctx)
        reference.update(batch)
        structure.delete(batch, ctx)
        reference.delete_collect(batch)
        assert structure.num_edges == 0
        assert_same_graph(structure, reference)

    def test_delete_missing_edge_is_counted(self, name, directed):
        structure = make_structure(name, 4, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(EdgeBatch.from_edges([(0, 1)]), ctx)
        result = structure.delete(EdgeBatch.from_edges([(2, 3)]), ctx)
        assert result.edges_inserted == 0
        assert result.duplicates == 1
        assert structure.num_edges == 1

    def test_reinsert_after_delete(self, name, directed):
        structure = make_structure(name, 4, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        edge = EdgeBatch.from_edges([(0, 1, 5.0)])
        structure.update(edge, ctx)
        structure.delete(edge, ctx)
        structure.update(EdgeBatch.from_edges([(0, 1, 7.0)]), ctx)
        assert dict(structure.out_neigh(0)) == {1: 7.0}
        assert structure.num_edges == 1

    def test_delete_latency_positive(self, name, directed):
        batch = random_batch(20, 100, seed=10)
        structure = make_structure(name, 20, directed=directed)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(batch, ctx)
        result = structure.delete(batch.slice(0, 50), ctx)
        assert result.latency_cycles > 0


class TestStingerHoles:
    """Deletions open holes in Stinger blocks; inserts must reuse them."""

    def test_insert_reuses_freed_slot(self):
        from repro.graph.stinger import BLOCK_CAPACITY, Stinger

        structure = Stinger(max_nodes=80)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        filler = EdgeBatch.from_edges([(0, v + 1) for v in range(2 * BLOCK_CAPACITY)])
        structure.update(filler, ctx)
        assert structure._out.block_count(0) == 2
        # Free a slot in the first block, then insert: no third block.
        structure.delete(EdgeBatch.from_edges([(0, 1)]), ctx)
        structure.update(EdgeBatch.from_edges([(0, 70)]), ctx)
        assert structure._out.block_count(0) == 2
        assert structure.out_degree(0) == 2 * BLOCK_CAPACITY

    def test_empty_tail_block_freed(self):
        from repro.graph.stinger import BLOCK_CAPACITY, Stinger

        structure = Stinger(max_nodes=80)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        filler = EdgeBatch.from_edges(
            [(0, v + 1) for v in range(BLOCK_CAPACITY + 1)]
        )
        structure.update(filler, ctx)
        assert structure._out.block_count(0) == 2
        # Remove the lone tail entry: the tail block must be unlinked.
        # Blocks are listed in order, so the last neighbor is the tail's.
        tail_dst = structure.out_neigh(0)[-1][0]
        structure.delete(EdgeBatch.from_edges([(0, tail_dst)]), ctx)
        assert structure._out.block_count(0) == 1


class TestDAHDeletion:
    def test_high_degree_vertex_stays_high(self):
        from repro.graph.dah import DegreeAwareHash, LOW_DEGREE_THRESHOLD

        degree = LOW_DEGREE_THRESHOLD + 5
        structure = DegreeAwareHash(max_nodes=degree + 2)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(
            EdgeBatch.from_edges([(0, v + 1) for v in range(degree)]), ctx
        )
        structure.delete(
            EdgeBatch.from_edges([(0, v + 1) for v in range(degree - 2)]), ctx
        )
        # No demotion: still served from the high-degree table.
        assert structure._out.is_high_degree(0)
        assert structure.out_degree(0) == 2

    def test_low_vertex_fully_deleted_leaves_table(self):
        from repro.graph.dah import DegreeAwareHash

        structure = DegreeAwareHash(max_nodes=8, chunks=2)
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        structure.update(EdgeBatch.from_edges([(0, 1)]), ctx)
        structure.delete(EdgeBatch.from_edges([(0, 1)]), ctx)
        assert structure.out_degree(0) == 0
        container, _ = structure._out._lookup(0)
        assert container is None


@given(
    inserts=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=80),
    deletes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    more=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
    directed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_interleaved_insert_delete(inserts, deletes, more, directed):
    """insert / delete / insert keeps all structures == reference."""
    ctx = ExecutionContext(machine=SMALL_MACHINE)
    batches = [
        EdgeBatch.from_edges([(u, v, 1.0) for u, v in edges]) for edges in
        (inserts, deletes, more)
    ]
    reference = ReferenceGraph(10, directed=directed)
    reference.update(batches[0])
    reference.delete_collect(batches[1])
    reference.update(batches[2])
    for name in ALL:
        structure = make_structure(name, 10, directed=directed)
        structure.update(batches[0], ctx)
        structure.delete(batches[1], ctx)
        structure.update(batches[2], ctx)
        assert_same_graph(structure, reference)
