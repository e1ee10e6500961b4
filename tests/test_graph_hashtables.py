"""Unit and property tests for DAH's Robin Hood and open-address tables.

The tables are the per-edge Python twins inside
:class:`~repro.graph.nativestore.NativeDAHStore` (built without compiled
kernels): a chunk's low-degree table is a Robin Hood table and every
high-degree vertex's neighbor set is an open-address table with
tombstones.  The two small adapters below give one such table a
key/value interface -- values are kept in a side list, the table stores
their indices -- and drive it only through the twin's own primitives.
"""

from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.nativestore import NativeDAHStore
from repro.sim.memory import AddressSpace

#: The twins grow a table once an insert would push its load past 7/10.
MAX_LOAD_FACTOR = 0.7


@dataclass
class Outcome:
    found: bool
    path: List[int]
    resized_moves: int = 0

    @property
    def probes(self) -> int:
        return len(self.path)


class _TwinTable:
    """Shared key/value plumbing over one table of a DAH twin."""

    def __init__(self) -> None:
        self.store = NativeDAHStore(1, 1, AddressSpace(), "test", kernels=None)
        self._values: list = []

    def _value_index(self, value) -> int:
        self._values.append(value)
        return len(self._values) - 1

    @property
    def load_factor(self) -> float:
        return len(self) / self.capacity

    def items(self):
        off, cap = self._span()
        keys = self.store_keys()[off:off + cap].tolist()
        values = self.store_values()[off:off + cap].tolist()
        return [
            (key, self._values[int(index)])
            for key, index in zip(keys, values)
            if key >= 0
        ]


class RobinHoodTable(_TwinTable):
    """Chunk 0's low-degree table (Robin Hood, backward-shift delete)."""

    def __init__(self, initial_capacity: int = 64) -> None:
        super().__init__()
        self.store._lcap[0] = initial_capacity

    def _span(self):
        return int(self.store._loff[0]), int(self.store._lcap[0])

    def store_keys(self):
        return self.store._lkeys

    def store_values(self):
        return self.store._lval

    @property
    def capacity(self) -> int:
        return int(self.store._lcap[0])

    def __len__(self) -> int:
        return int(self.store._lsize[0])

    def get(self, key):
        off, cap = self._span()
        slot, path = self.store._rh_get_path(off, cap, key)
        if slot is None:
            return None, Outcome(False, path)
        return self._values[int(self.store._lval[off + slot])], Outcome(True, path)

    def put(self, key, value) -> Outcome:
        off, cap = self._span()
        slot, path = self.store._rh_get_path(off, cap, key)
        if slot is not None:
            self.store._lval[off + slot] = self._value_index(value)
            return Outcome(True, path)
        path, moved = self.store._low_put(0, key, self._value_index(value))
        return Outcome(False, path, moved)

    def delete(self, key) -> Outcome:
        before = len(self)
        path = self.store._rh_delete(0, key)
        return Outcome(len(self) < before, path)

    def max_displacement(self) -> int:
        off, cap = self._span()
        mask = cap - 1
        keys = self.store._lkeys[off:off + cap].tolist()
        return max(
            ((slot - self.store._hash(key, mask)) & mask
             for slot, key in enumerate(keys) if key >= 0),
            default=0,
        )


class OpenAddressTable(_TwinTable):
    """One high-degree neighbor set (open addressing, tombstones)."""

    def __init__(self, initial_capacity: int = 32) -> None:
        super().__init__()
        self.sid = self.store._new_set()
        self.store._scap[self.sid] = initial_capacity

    def _span(self):
        return int(self.store._soff[self.sid]), int(self.store._scap[self.sid])

    def store_keys(self):
        return self.store._skeys

    def store_values(self):
        return self.store._swgt

    @property
    def capacity(self) -> int:
        return int(self.store._scap[self.sid])

    def __len__(self) -> int:
        return int(self.store._ssize[self.sid])

    def get(self, key):
        off, cap = self._span()
        slot, path = self.store._oa_get_path(self.store._skeys, off, cap, key)
        if slot is None:
            return None, Outcome(False, path)
        return self._values[int(self.store._swgt[off + slot])], Outcome(True, path)

    def put(self, key, value) -> Outcome:
        off, cap = self._span()
        slot, path = self.store._oa_get_path(self.store._skeys, off, cap, key)
        if slot is not None:
            self.store._swgt[off + slot] = self._value_index(value)
            return Outcome(True, path)
        path, moved = self.store._set_put(self.sid, key, self._value_index(value))
        return Outcome(False, path, moved)

    def delete(self, key) -> Outcome:
        found, path = self.store._set_delete(self.sid, key)
        return Outcome(found, path)


@pytest.mark.parametrize("table_cls", [RobinHoodTable, OpenAddressTable])
class TestCommonBehavior:
    def test_get_missing(self, table_cls):
        table = table_cls()
        value, outcome = table.get(42)
        assert value is None
        assert not outcome.found
        assert outcome.probes >= 1

    def test_put_then_get(self, table_cls):
        table = table_cls()
        table.put(7, "seven")
        value, outcome = table.get(7)
        assert value == "seven"
        assert outcome.found

    def test_put_replaces(self, table_cls):
        table = table_cls()
        table.put(7, "a")
        outcome = table.put(7, "b")
        assert outcome.found  # key existed
        assert table.get(7)[0] == "b"
        assert len(table) == 1

    def test_zero_is_a_valid_key(self, table_cls):
        table = table_cls()
        table.put(0, "zero")
        assert table.get(0)[0] == "zero"

    def test_many_inserts_trigger_resizes(self, table_cls):
        table = table_cls(initial_capacity=4)
        for key in range(200):
            table.put(key, key * 2)
        assert len(table) == 200
        assert table.load_factor <= MAX_LOAD_FACTOR + 1e-9
        for key in range(200):
            assert table.get(key)[0] == key * 2

    def test_resize_reports_moves(self, table_cls):
        table = table_cls(initial_capacity=4)
        moves = 0
        for key in range(50):
            moves += table.put(key, key).resized_moves
        assert moves > 0

    def test_delete(self, table_cls):
        table = table_cls()
        table.put(1, "x")
        table.put(2, "y")
        outcome = table.delete(1)
        assert outcome.found
        assert table.get(1)[0] is None
        assert table.get(2)[0] == "y"
        assert len(table) == 1

    def test_delete_missing(self, table_cls):
        table = table_cls()
        assert not table.delete(9).found

    def test_items(self, table_cls):
        table = table_cls()
        for key in (3, 1, 4, 1, 5):
            table.put(key, key)
        assert dict(table.items()) == {3: 3, 1: 1, 4: 4, 5: 5}

    def test_probe_paths_are_slot_indices(self, table_cls):
        table = table_cls(initial_capacity=8)
        outcome = table.put(123, "v")
        assert all(0 <= slot < table.capacity for slot in outcome.path)
        assert outcome.probes == len(outcome.path)


class TestRobinHoodSpecifics:
    def test_displacement_bounded_after_churn(self):
        table = RobinHoodTable(initial_capacity=16)
        for key in range(300):
            table.put(key, key)
        for key in range(0, 300, 3):
            table.delete(key)
        for key in range(300, 400):
            table.put(key, key)
        # Robin Hood + backward-shift keeps displacement modest.
        assert table.max_displacement() <= 16

    def test_backward_shift_preserves_lookups(self):
        table = RobinHoodTable(initial_capacity=8)
        keys = [0, 8, 16, 24]  # likely colliding after masking
        for key in keys:
            table.put(key, key)
        table.delete(8)
        for key in (0, 16, 24):
            assert table.get(key)[0] == key

    def test_invariant_cutoff_terminates_negative_search(self):
        table = RobinHoodTable(initial_capacity=8)
        for key in range(5):
            table.put(key, key)
        _, outcome = table.get(999)
        assert not outcome.found
        assert outcome.probes <= table.capacity


class TestOpenAddressSpecifics:
    def test_tombstone_reuse(self):
        table = OpenAddressTable(initial_capacity=8)
        table.put(1, "a")
        table.delete(1)
        table.put(1, "b")
        assert table.get(1)[0] == "b"
        assert len(table) == 1

    def test_items_skip_tombstones(self):
        table = OpenAddressTable()
        table.put(1, "a")
        table.put(2, "b")
        table.delete(1)
        assert dict(table.items()) == {2: "b"}


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=300,
    )
)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("table_cls", [RobinHoodTable, OpenAddressTable])
def test_property_matches_dict_model(table_cls, operations):
    """Any op sequence behaves exactly like a Python dict."""
    table = table_cls(initial_capacity=4)
    model = {}
    for op, key in operations:
        if op == "put":
            table.put(key, key * 7)
            model[key] = key * 7
        elif op == "get":
            value, outcome = table.get(key)
            assert outcome.found == (key in model)
            assert value == model.get(key)
        else:
            outcome = table.delete(key)
            assert outcome.found == (key in model)
            model.pop(key, None)
    assert dict(table.items()) == model
    assert len(table) == len(model)
