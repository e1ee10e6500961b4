"""Schedulable tasks in columnar form.

A *task* is one schedulable unit of simulated work ("insert edge
(u, v)", "evaluate the vertex function of v"), carrying its cycle
costs, the lock it must hold, and the chunk it is pinned to.  A batch
of tasks is a :class:`TaskArray`: a structure of arrays (numpy columns
``unlocked_work``, ``locked_work``, ``lock``, ``chunk``, ``fine_lock``,
``overhead``).  The graph structures' emitters price whole batches
into these columns and the schedulers in :mod:`repro.sim.scheduler`
consume them as array kernels.

``TaskArray`` uses the sentinel ``-1`` (:data:`NO_LOCK` /
:data:`NO_CHUNK`) for "no lock" / "no chunk" because the real lock and
chunk namespaces are non-negative.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Column sentinel for "this task takes no lock".
NO_LOCK = -1

#: Column sentinel for "this task is not pinned to a chunk".
NO_CHUNK = -1


class TaskArray:
    """A batch of tasks stored column-wise (structure of arrays).

    Columns are parallel numpy arrays of one dtype each:

    - ``unlocked_work``: float64 cycles executed before any lock is
      taken (e.g. Stinger's search scans, which read edge blocks
      without locking);
    - ``locked_work``: float64 cycles executed while holding ``lock``;
    - ``lock``: int64 lock id, :data:`NO_LOCK` for lockless tasks (AS
      locks the source vertex, Stinger one edge block);
    - ``chunk``: int64 chunk id for chunked-style structures,
      :data:`NO_CHUNK` when unpinned;
    - ``fine_lock``: the lock is fine-grained (tiny critical section),
      so a contended acquire pays the smaller
      ``fine_lock_contended_penalty``;
    - ``overhead``: fixed per-batch overhead (e.g. chunk routing)
      rather than per-edge work.

    Slicing returns another ``TaskArray``.
    """

    __slots__ = (
        "unlocked_work",
        "locked_work",
        "lock",
        "chunk",
        "fine_lock",
        "overhead",
    )

    def __init__(
        self,
        unlocked_work: np.ndarray,
        locked_work: np.ndarray,
        lock: np.ndarray,
        chunk: np.ndarray,
        fine_lock: np.ndarray,
        overhead: np.ndarray,
    ) -> None:
        self.unlocked_work = np.asarray(unlocked_work, dtype=np.float64)
        self.locked_work = np.asarray(locked_work, dtype=np.float64)
        self.lock = np.asarray(lock, dtype=np.int64)
        self.chunk = np.asarray(chunk, dtype=np.int64)
        self.fine_lock = np.asarray(fine_lock, dtype=bool)
        self.overhead = np.asarray(overhead, dtype=bool)
        n = len(self.unlocked_work)
        for name in self.__slots__:
            column = getattr(self, name)
            if column.ndim != 1 or len(column) != n:
                raise ValueError(
                    f"column {name!r} must be 1-D of length {n}, "
                    f"got shape {column.shape}"
                )

    # -- constructors --------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        unlocked_work=0.0,
        locked_work=0.0,
        lock=NO_LOCK,
        chunk=NO_CHUNK,
        fine_lock=False,
        overhead=False,
    ) -> "TaskArray":
        """Build an ``n``-task array from columns or broadcast scalars."""

        def column(value, dtype):
            array = np.asarray(value, dtype=dtype)
            if array.ndim == 0:
                return np.full(n, array, dtype=dtype)
            return array

        return cls(
            unlocked_work=column(unlocked_work, np.float64),
            locked_work=column(locked_work, np.float64),
            lock=column(lock, np.int64),
            chunk=column(chunk, np.int64),
            fine_lock=column(fine_lock, bool),
            overhead=column(overhead, bool),
        )

    @classmethod
    def empty(cls) -> "TaskArray":
        return cls.build(0)

    @classmethod
    def concatenate(cls, parts: Iterable["TaskArray"]) -> "TaskArray":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in cls.__slots__
            )
        )

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.unlocked_work)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: slice) -> "TaskArray":
        if not isinstance(index, slice):
            raise TypeError(
                f"TaskArray supports slices only, not {type(index).__name__}; "
                "read the columns for single tasks"
            )
        return TaskArray(*(getattr(self, name)[index] for name in self.__slots__))

    # -- derived columns ----------------------------------------------

    @property
    def total_work(self) -> np.ndarray:
        """Per-task ``unlocked_work + locked_work`` (float64 column)."""
        return self.unlocked_work + self.locked_work

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        locked = int((self.lock >= 0).sum())
        return f"<TaskArray n={len(self)} locked={locked}>"
