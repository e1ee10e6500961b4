"""The benchmark's named workloads and the layer entry points it times.

Every workload drives the simulator's public API in this process:
stream workloads call ``make_driver(config).run(dataset)`` on a
dataset generated from the seed, and ``hwprofile-quick`` calls
``HardwareProfiler.profile_cells``. Nothing goes through the RunStore,
because a cache hit would time nothing. See README.md for why each
workload was chosen and which layer it stresses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.gate import batch_digests, cell_digest, expected_counts
from perfbench.spans import SpanRecorder, Target, defining_classes


class BatchClock:
    """Timestamps the end of every batch; numbers the batches for spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stamps: List[float] = []
        self.recorder: Optional[SpanRecorder] = None

    def reset(self) -> None:
        """Start a new pass: no batch finished yet."""
        self.stamps.clear()
        if self.recorder is not None:
            self.recorder.batch = 0

    def __call__(self, _message: str = "") -> None:
        self.stamps.append(self.clock())
        if self.recorder is not None:
            self.recorder.batch = len(self.stamps)


@dataclass
class PassResult:
    """One timed pass over a workload's whole input."""

    wall: float
    batch_seconds: List[float]
    digests: List[str]
    counts_ok: List[bool]


def _batch_seconds(start: float, stamps: Sequence[float]) -> List[float]:
    marks = [start, *stamps]
    return [b - a for a, b in zip(marks, marks[1:])]


@dataclass
class StreamWorkload:
    """A ``StreamDriver`` run over one generated dataset."""

    name: str
    #: seed -> Dataset; the only input the program receives.
    generate: Callable[[int], object]
    config: Dict[str, object]
    hardware = False

    def build(self, dataset, seed: int, clock: BatchClock):
        from repro.streaming import StreamConfig, make_driver

        config = StreamConfig(shuffle_seed=seed, progress=clock, **self.config)
        return dataset, make_driver(config)

    def stream_edges(self, prepared) -> int:
        dataset, _ = prepared
        return len(dataset.edges)

    def batch_count(self, prepared) -> int:
        dataset, driver = prepared
        return -(-len(dataset.edges) // driver.config.batch_size)

    def expected(self, prepared):
        """Independent (inserted, live) edge counts per batch."""
        from repro.streaming.batching import make_batches

        dataset, driver = prepared
        cfg = driver.config
        if not dataset.directed:
            raise ValueError("the edge-count oracle handles directed streams only")
        return expected_counts(
            make_batches(dataset.edges, cfg.batch_size, shuffle_seed=cfg.shuffle_seed),
            dataset.max_nodes,
            cfg.churn_fraction,
        )

    def run_pass(self, prepared, clock: BatchClock, expected) -> PassResult:
        dataset, driver = prepared
        clock.reset()
        start = clock.clock()
        result = driver.run(dataset)
        wall = clock.clock() - start
        inserted, live = expected
        counts_ok = (result.edges_inserted[0] == inserted) & (
            result.num_edges[0] == live
        )
        return PassResult(
            wall=wall,
            batch_seconds=_batch_seconds(start, clock.stamps),
            digests=batch_digests(result),
            counts_ok=[bool(ok) for ok in counts_ok],
        )


class _ClockedBatches:
    """A batch sequence that stamps the clock as each batch finishes."""

    def __init__(self, batches, clock: BatchClock) -> None:
        self._batches = batches
        self._clock = clock

    def __len__(self) -> int:
        return len(self._batches)

    def __iter__(self):
        for batch in self._batches:
            yield batch
            # Resumed when the consumer asks for the next batch, i.e.
            # when it has finished with this one.
            self._clock()


@dataclass
class HardwareWorkload:
    """The CLI's ``--quick`` hardware profile, trimmed (see README.md)."""

    name: str
    cells: Sequence[tuple]
    profiler: Dict[str, object]
    hardware = True

    def generate(self, seed: int):
        from repro.datasets.catalog import load_dataset

        return [
            load_dataset(dataset, seed=seed, size_factor=size)
            for dataset, _, size in self.cells
        ]

    def build(self, datasets, seed: int, clock: BatchClock):
        """The profiler regenerates each cell's dataset from ``seed``
        itself; the datasets generated here only count the edges."""
        from repro.analysis.hardware_profile import HardwareProfiler
        from repro.sim.machine import SCALED_SKYLAKE_GOLD_6142

        profiler = HardwareProfiler(
            machine=SCALED_SKYLAKE_GOLD_6142, seed=seed, **self.profiler
        )
        return datasets, profiler

    def stream_edges(self, prepared) -> int:
        datasets, _ = prepared
        return sum(len(d.edges) for d in datasets)

    def batch_count(self, prepared) -> int:
        return sum(self.expected(prepared))

    def expected(self, prepared) -> List[int]:
        """Batches per cell, from the edge counts generated at set-up."""
        datasets, profiler = prepared
        return [-(-len(d.edges) // profiler.batch_size) for d in datasets]

    def run_pass(self, prepared, clock: BatchClock, expected) -> PassResult:
        """Profile every cell.

        The profiler has no progress callback, so the batch clock is
        its batch sequence: ``make_batches`` in the profiler's module
        is swapped for one that stamps the clock, for this pass only.
        """
        from repro.analysis import hardware_profile

        _, profiler = prepared
        original = hardware_profile.make_batches

        def clocked(*args, **kwargs):
            return _ClockedBatches(original(*args, **kwargs), clock)

        clock.reset()
        hardware_profile.make_batches = clocked
        try:
            start = clock.clock()
            cells = profiler.profile_cells(list(self.cells))
            wall = clock.clock() - start
        finally:
            hardware_profile.make_batches = original
        return PassResult(
            wall=wall,
            batch_seconds=_batch_seconds(start, clock.stamps),
            digests=[cell_digest(cell) for cell in cells],
            counts_ok=[cell.batches == n for cell, n in zip(cells, expected)],
        )


def _rmat(scale: int, edges: int):
    def make(seed: int):
        from repro.datasets import make_rmat_dataset

        return make_rmat_dataset(scale=scale, num_edges=edges, seed=seed)

    return make


def _catalog(name: str, size_factor: float):
    def make(seed: int):
        from repro.datasets.catalog import load_dataset

        return load_dataset(name, seed=seed, size_factor=size_factor)

    return make


# Sizes are trimmed from the ROADMAP's runs so that one pass takes
# about 2.5-8 s on a 2-core host and a 28 s run fits several passes;
# README.md gives the reasons for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        StreamWorkload(
            name="scale-as-pr",
            generate=_rmat(16, 250_000),
            config=dict(
                batch_size=25_000,
                structures=("AS",),
                algorithms=("PR",),
                models=("INC",),
            ),
        ),
        StreamWorkload(
            name="table3-matrix",
            generate=_catalog("RMAT", 0.35),
            config=dict(batch_size=2_500),
        ),
        StreamWorkload(
            name="churn-stinger-cc",
            generate=_rmat(16, 250_000),
            config=dict(
                batch_size=12_500,
                structures=("Stinger",),
                algorithms=("CC",),
                models=("INC",),
                churn_fraction=0.5,
            ),
        ),
        HardwareWorkload(
            name="hwprofile-quick",
            cells=(("LJ", "AS", 0.125), ("Talk", "DAH", 0.125)),
            profiler=dict(
                core_counts=(4, 8, 16),
                algorithms=("BFS", "CC", "PR"),
                batch_size=1_250,
                trace_cap=20_000,
            ),
        ),
    )
}


def _update_counts(result, _args) -> Dict[str, float]:
    return {
        "graph.update.inserted": result.edges_inserted,
        "graph.update.attempted": result.edges_attempted,
    }


def _replay_counts(result, _args) -> Dict[str, float]:
    return {"sim.cache.accesses": result.accesses}


def layer_targets(hardware: bool) -> List[Target]:
    """The entry points a traced run wraps, named after their modules.

    The hardware profile is wrapped only at coarse boundaries: its
    address-trace generation makes millions of per-vertex calls, and
    wrapping those would swamp the run.
    """
    from repro.graph import STRUCTURES

    structures = list(STRUCTURES.values())
    targets = [
        Target("graph.update", cls, "update", _update_counts)
        for cls in defining_classes(structures, "update")
    ]
    if hardware:
        from repro.analysis.hardware_profile import HardwareProfiler
        from repro.sim.cache import CacheHierarchy

        return targets + [
            Target("analysis.hardware_profile.cell", HardwareProfiler, "profile_cell"),
            Target("sim.cache.replay", CacheHierarchy, "replay", _replay_counts),
        ]

    from repro.algorithms.registry import ALGORITHMS
    from repro.compute.csrstore import ViewMaintainer
    from repro.graph import ReferenceGraph
    from repro.streaming import driver

    targets += [
        Target("graph.delete", cls, "delete")
        for cls in defining_classes(structures, "delete")
    ]
    algorithms = [type(algorithm) for algorithm in ALGORITHMS.values()]
    for attr, name in (
        ("affected_from_batch", "algorithms.frontier"),
        ("fs_run", "algorithms.fs"),
        ("inc_run", "algorithms.inc"),
        ("inc_delete_run", "algorithms.inc_delete"),
    ):
        targets += [Target(name, cls, attr) for cls in defining_classes(algorithms, attr)]
    return targets + [
        Target("graph.reference.ingest", ReferenceGraph, "update_collect"),
        Target("graph.reference.churn", ReferenceGraph, "delete_collect"),
        Target("compute.csrstore.apply", ViewMaintainer, "apply"),
        Target("compute.pricing", driver, "price_compute_run"),
        Target("streaming.batching", driver, "make_batches"),
    ]
