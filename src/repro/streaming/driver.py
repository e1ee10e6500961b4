"""The streaming driver: the paper's measurement loop (Section IV-B).

For each repetition the driver shuffles the dataset's edge stream,
slices it into batches, and for every batch executes the two phases of
Fig. 1:

1. **Update phase** -- the batch is ingested into every configured data
   structure; the simulated makespan of the insertion tasks is that
   structure's update latency.
2. **Compute phase** -- every configured algorithm runs under every
   configured compute model against a neutral reference view (vertex
   values are structure-independent), and the recorded operation
   counts are priced per structure to produce compute latencies.

Batch processing latency = update latency + compute latency
(Equation 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.registry import ALGORITHMS, COMPUTE_MODELS, get_algorithm
from repro.compute import kernels
from repro.compute.csrstore import ViewMaintainer
from repro.compute.pricing import price_compute_run
from repro.datasets.catalog import DEFAULT_BATCH_SIZE, Dataset
from repro.errors import ConfigError
from repro.graph import STRUCTURES, ReferenceGraph, make_structure
from repro.graph.base import ExecutionContext
from repro.obs.features import FEATURES
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig, SKYLAKE_GOLD_6142
from repro.sim.scheduler import ScheduleResult
from repro.streaming.batching import batch_count, make_batches
from repro.streaming.results import BatchRecord, StreamResult

#: The paper's four structures (the default characterization matrix);
#: the registry also accepts post-paper extensions such as "BA".
ALL_STRUCTURES = ("AS", "AC", "Stinger", "DAH")
ALL_ALGORITHMS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")

#: Stride between the shuffle seeds of consecutive repetitions.  The
#: sweep engine relies on this to run single repetitions as independent
#: cells that reproduce the exact batches of a multi-repetition run.
REP_SEED_STRIDE = 7919

#: Shared empty columns (read-only by convention) for batches that
#: inserted or removed nothing.
_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


class _InEdgeBuffer:
    """Growable columnar (src, dst, weight) incidence buffer.

    Replaces the Python lists the driver used to rebuild with an O(E)
    list comprehension on every churn batch: appends amortize through
    capacity doubling, and deletions apply one vectorized membership
    mask over packed ``src * max_nodes + dst`` keys.
    """

    def __init__(self, max_nodes: int, capacity: int = 1024) -> None:
        self._max_nodes = max_nodes
        self._src = np.empty(capacity, dtype=np.int64)
        self._dst = np.empty(capacity, dtype=np.int64)
        self._weight = np.empty(capacity, dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        if needed <= len(self._src):
            return
        capacity = max(len(self._src) * 2, needed)
        for name in ("_src", "_dst", "_weight"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def append(self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
        count = len(src)
        if count == 0:
            return
        self._reserve(count)
        n = self._n
        self._src[n : n + count] = src
        self._dst[n : n + count] = dst
        self._weight[n : n + count] = weight
        self._n = n + count

    def delete(self, removed_src: np.ndarray, removed_dst: np.ndarray) -> None:
        """Drop every stored edge whose (src, dst) appears in the lists."""
        if len(removed_src) == 0 or self._n == 0:
            return
        n = self._n
        packed = self._src[:n] * self._max_nodes + self._dst[:n]
        removed = removed_src * self._max_nodes + removed_dst
        keep = ~np.isin(packed, removed)
        kept = int(keep.sum())
        self._src[:kept] = self._src[:n][keep]
        self._dst[:kept] = self._dst[:n][keep]
        self._weight[:kept] = self._weight[:n][keep]
        self._n = kept

    def view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live (src, dst, weight) arrays, insertion-ordered."""
        n = self._n
        return (
            self._src[:n].copy(),
            self._dst[:n].copy(),
            self._weight[:n].copy(),
        )

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy live slices (valid until the next append/delete)."""
        n = self._n
        return self._src[:n], self._dst[:n], self._weight[:n]


def _edge_arrays(edges) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) arrays from a list of (u, v, w) tuples."""
    count = len(edges)
    src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=count)
    dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=count)
    weight = np.fromiter((e[2] for e in edges), dtype=np.float64, count=count)
    return src, dst, weight


def _with_reverse_interleaved(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge followed by its reverse (skipping self-loops).

    Matches the exact append order of the original per-edge loop for
    undirected graphs, keeping reductions over the incidence arrays
    bit-identical.
    """
    forward = src != dst
    counts = 1 + forward.astype(np.int64)
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    out_src = np.empty(total, dtype=np.int64)
    out_dst = np.empty(total, dtype=np.int64)
    out_weight = np.empty(total, dtype=np.float64)
    out_src[offsets] = src
    out_dst[offsets] = dst
    out_weight[offsets] = weight
    rev = offsets[forward] + 1
    out_src[rev] = dst[forward]
    out_dst[rev] = src[forward]
    out_weight[rev] = weight[forward]
    return out_src, out_dst, out_weight


def _run_ops_decomposition(
    runs, deg_in, deg_out, num_nodes: int, cost: CostModel
) -> Dict[str, float]:
    """Abstract operation counts of one algorithm x model execution.

    The per-batch feature vector the cost-model fitter consumes (see
    :mod:`repro.obs.model`): vertex-function evaluations and the
    in-degree mass they pull, push scans and the out-degree mass they
    touch, queue pushes, CAS attempts, and whole-array scan accesses.
    These mirror the per-task terms that
    :func:`repro.compute.pricing.price_compute_run` sums for every
    structure of a run in one pass, which are linear in exactly these
    counts, so the composite ``ops`` is the abscissa of the closed-form
    model ``T = setup + per_op * ops``.  Following the
    instruction-mix style of refined compute models, ``ops`` weights
    each component by its documented cost-model constant (the
    structure-independent part of the pricing terms); the
    structure-specific traversal scale is what each group's fitted
    ``per_op`` absorbs.
    """
    pull_vertices = push_vertices = 0
    pull_degree = push_degree = 0
    pushes = cas_ops = 0
    rounds = scans = 0
    for run in runs:
        scans += run.linear_scans
        rounds += run.frontier_rounds or run.iteration_count
        for it in run.iterations:
            if len(it.pull_vertices):
                pull_vertices += int(len(it.pull_vertices))
                pull_degree += int(deg_in[it.pull_vertices].sum())
            if len(it.push_vertices):
                push_vertices += int(len(it.push_vertices))
                push_degree += int(deg_out[it.push_vertices].sum())
            pushes += int(it.pushes)
            cas_ops += int(it.cas_ops)
    scan_ops = scans * int(num_nodes)
    ops = (
        pull_vertices * (cost.vertex_task_base + cost.property_write)
        + pull_degree * (cost.neighbor_visit + cost.probe_element)
        + push_degree * (cost.cas + cost.probe_element)
        + pushes * cost.queue_push
        + scan_ops * cost.probe_element
    )
    return {
        "pull_vertices": pull_vertices,
        "push_vertices": push_vertices,
        "pull_degree": pull_degree,
        "push_degree": push_degree,
        "pushes": pushes,
        "cas_ops": cas_ops,
        "scan_ops": scan_ops,
        "frontier_rounds": rounds,
        "ops": float(ops),
    }


@dataclass
class StreamConfig:
    """What to run and on which simulated machine."""

    batch_size: int = DEFAULT_BATCH_SIZE
    structures: Tuple[str, ...] = ALL_STRUCTURES
    algorithms: Tuple[str, ...] = ALL_ALGORITHMS
    models: Tuple[str, ...] = COMPUTE_MODELS
    repetitions: int = 1
    machine: MachineConfig = SKYLAKE_GOLD_6142
    threads: Optional[int] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    shuffle_seed: int = 0
    source: Optional[int] = None
    progress: Optional[Callable[[str], None]] = None
    #: Churn: after each insert batch, delete this fraction of the
    #: batch's edges again (a mixed insert/delete stream).  The update
    #: phase measures both operations; compute-model values stay exact
    #: under FS, while INC is approximate for the monotone algorithms
    #: once edges disappear (see repro.compute.incremental).
    churn_fraction: float = 0.0
    #: Partition-parallel update simulation: split each batch across
    #: this many vertex-partitioned shards, each ingesting its share
    #: into its own structure instance; the batch's update latency is
    #: the slowest shard plus a cross-shard merge charge (see
    #: repro.streaming.sharded).  1 = the serial model; algorithm
    #: results are bit-identical either way.
    shards: int = 1
    #: Cycled per-batch sizes overriding ``batch_size`` (regime-shifting
    #: streams: batch ``i`` holds ``batch_schedule[i % len]`` edges).
    batch_schedule: Optional[Tuple[int, ...]] = None
    #: Adaptive mode (``structures=("adaptive",)`` with
    #: ``models=("adaptive",)``): the pool the auto-tuner picks from.
    #: ``None`` means the paper's full matrix (ALL_STRUCTURES and both
    #: compute models).
    candidate_structures: Optional[Tuple[str, ...]] = None
    candidate_models: Optional[Tuple[str, ...]] = None
    #: Tuner knobs (a repro.streaming.autotune.TunerConfig); ``None``
    #: uses the environment-derived defaults.
    autotune: Optional[object] = None

    @property
    def is_adaptive(self) -> bool:
        """True when the auto-tuner drives (structure, model) selection."""
        return self.structures == ("adaptive",)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.churn_fraction < 1.0:
            raise ConfigError(
                f"churn_fraction must be in [0, 1), got {self.churn_fraction}"
            )
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.batch_schedule is not None:
            if not self.batch_schedule:
                raise ConfigError("batch_schedule must not be empty")
            for size in self.batch_schedule:
                if size < 1:
                    raise ConfigError(
                        f"batch_schedule sizes must be >= 1, got {size}"
                    )
            if self.shards != 1:
                raise ConfigError("batch_schedule requires shards == 1")
        adaptive = "adaptive" in self.structures or "adaptive" in self.models
        if adaptive:
            if self.structures != ("adaptive",) or self.models != ("adaptive",):
                raise ConfigError(
                    "adaptive mode is all-or-nothing: use "
                    "structures=('adaptive',) together with "
                    "models=('adaptive',)"
                )
            if self.shards != 1:
                raise ConfigError("adaptive mode requires shards == 1")
            for name in self.candidate_structures or ():
                if name not in STRUCTURES:
                    raise ConfigError(f"unknown candidate structure {name!r}")
            for model in self.candidate_models or ():
                if model not in COMPUTE_MODELS:
                    raise ConfigError(f"unknown candidate model {model!r}")
        else:
            for name in self.structures:
                if name not in STRUCTURES:
                    raise ConfigError(f"unknown structure {name!r}")
            for model in self.models:
                if model not in COMPUTE_MODELS:
                    raise ConfigError(f"unknown compute model {model!r}")
            if self.candidate_structures or self.candidate_models:
                raise ConfigError(
                    "candidate_structures/candidate_models only apply to "
                    "adaptive mode (structures=('adaptive',))"
                )
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}")


class StreamDriver:
    """Runs the full characterization loop over one dataset."""

    def __init__(self, config: Optional[StreamConfig] = None) -> None:
        self.config = config if config is not None else StreamConfig()

    def _pick_source(self, dataset: Dataset) -> int:
        """Default single-source root: the stream's hottest source.

        A hub is (almost surely) present from the first batch on and
        reaches a large fraction of the graph, which matches how
        single-source roots are chosen in graph benchmarks.
        """
        if self.config.source is not None:
            return self.config.source
        counts = np.bincount(dataset.edges.src)
        return int(counts.argmax())

    def run(self, dataset: Dataset) -> StreamResult:
        """Stream ``dataset`` and record every simulated latency."""
        cfg = self.config
        source = self._pick_source(dataset)
        ctx = ExecutionContext(
            machine=cfg.machine, threads=cfg.threads, cost_model=cfg.cost_model
        )
        batches_per_rep = batch_count(
            len(dataset.edges), cfg.batch_size, cfg.batch_schedule
        )
        result = StreamResult(
            dataset=dataset.name,
            machine=cfg.machine,
            structures=cfg.structures,
            algorithms=cfg.algorithms,
            models=cfg.models,
            repetitions=cfg.repetitions,
            batches_per_rep=batches_per_rep,
        )
        # Simulated clock per timeline track (dataset/structure): batches
        # abut on the track even though each schedule starts at cycle 0.
        sim_clocks: Dict[str, float] = {}
        if METRICS.enabled:
            from repro.compute import ckernels
            from repro.sim import cingest, ckernel

            METRICS.gauge(
                "compute_threads", "threads the fused INC round runs on"
            ).set(float(ckernels.compute_threads()))
            METRICS.gauge(
                "ckernel_loaded",
                "1 when the compiled compute kernels are active",
            ).set(1.0 if ckernels.loaded() else 0.0)
            METRICS.gauge(
                "ingest_ckernel_loaded",
                "1 when the compiled batch-ingest kernels are active",
            ).set(1.0 if cingest.loaded() else 0.0)
            METRICS.gauge(
                "sim_ckernel_loaded",
                "1 when the compiled scheduler event loop is active",
            ).set(1.0 if ckernel.get_kernel() is not None else 0.0)
        # One CSR maintainer for the whole run: repetitions reset it in
        # place instead of reallocating the heap arrays.
        maintainer = (
            None if kernels.use_legacy_compute() else ViewMaintainer(dataset.max_nodes)
        )
        for rep in range(cfg.repetitions):
            if maintainer is not None:
                maintainer.reset()
            self._run_repetition(
                dataset, rep, source, ctx, result, sim_clocks, maintainer
            )
        return result

    def _observe_update(
        self,
        dataset: Dataset,
        structure_name: str,
        schedule: ScheduleResult,
        ctx: ExecutionContext,
        sim_clocks: Dict[str, float],
        label: str,
    ) -> None:
        """Per-batch observability for one structure's update schedule."""
        if METRICS.enabled:
            METRICS.histogram(
                "stream_update_latency_seconds",
                "simulated per-batch update latency",
                structure=structure_name,
            ).observe(ctx.seconds(schedule.makespan_cycles))
        if TRACER.sim_timeline:
            track = f"{dataset.name}/{structure_name}"
            offset = sim_clocks.get(track, 0.0)
            to_us = 1e6 / ctx.machine.frequency_hz
            timeline = schedule.extra.get("timeline")
            if timeline is not None:
                starts, ends = timeline
                starts_us = np.asarray(starts, dtype=np.float64) * to_us + offset
                ends_us = np.asarray(ends, dtype=np.float64) * to_us + offset
                TRACER.record_schedule_threads(
                    track,
                    np.asarray(schedule.task_thread, dtype=np.int64).tolist(),
                    starts_us.tolist(),
                    ends_us.tolist(),
                    [label] * len(starts_us),
                )
            sim_clocks[track] = offset + schedule.makespan_cycles * to_us

    def _make_structures(self, dataset: Dataset) -> Dict[str, object]:
        """One fresh structure instance per configured name.

        Subclasses that do not simulate structures in-process (the
        sharded driver) return an empty mapping.
        """
        cfg = self.config
        return {
            name: make_structure(
                name,
                dataset.max_nodes,
                directed=dataset.directed,
                cost_model=cfg.cost_model,
            )
            for name in cfg.structures
        }

    def _update_structures(
        self,
        structures: Dict[str, object],
        batch,
        dataset: Dataset,
        ctx: ExecutionContext,
        record: BatchRecord,
        sim_clocks: Dict[str, float],
    ) -> Dict[str, int]:
        """Ingest ``batch`` into every structure; fill update latencies.

        Returns each structure's reported inserted-edge count, which
        :meth:`_verify_inserted` cross-checks against the reference
        graph.  The sharded driver overrides this with precomputed
        per-shard schedules.
        """
        structure_inserted = {}
        for name, structure in structures.items():
            update = structure.update(batch, ctx)
            record.update_cycles[name] = update.latency_cycles
            structure_inserted[name] = update.edges_inserted
            self._observe_update(
                dataset, name, update.schedule, ctx, sim_clocks, "update"
            )
        return structure_inserted

    def _delete_structures(
        self,
        structures: Dict[str, object],
        victims,
        dataset: Dataset,
        ctx: ExecutionContext,
        record: BatchRecord,
        sim_clocks: Dict[str, float],
    ) -> None:
        """Apply the churn deletions; add their latency to the batch's."""
        for name, structure in structures.items():
            deletion = structure.delete(victims, ctx)
            record.update_cycles[name] += deletion.latency_cycles
            self._observe_update(
                dataset, name, deletion.schedule, ctx, sim_clocks, "delete"
            )

    @staticmethod
    def _verify_inserted(structure_inserted: Dict[str, int], expected: int) -> None:
        """Every structure must agree with the reference graph."""
        for name, count in structure_inserted.items():
            assert count == expected, (
                f"{name} inserted {count} edges where the reference "
                f"graph inserted {expected}"
            )

    @staticmethod
    def _ingest_reference(reference, batch, dataset, deg_in, deg_out, incidence):
        """Apply ``batch`` to the reference graph and incremental arrays.

        Returns ``(inserted_count, ins_src, ins_dst, ins_weight)`` --
        the incidence-ordered insert columns (reverse edges interleaved
        for undirected graphs), empty when nothing new landed.
        """
        inserted = reference.update_collect(batch)
        ins_src = ins_dst = _EMPTY_IDS
        ins_weight = _EMPTY_WEIGHTS
        if inserted:
            ins_src, ins_dst, ins_weight = _edge_arrays(inserted)
            np.add.at(deg_out, ins_src, 1)
            np.add.at(deg_in, ins_dst, 1)
            if not dataset.directed:
                mirrored = ins_src != ins_dst
                np.add.at(deg_out, ins_dst[mirrored], 1)
                np.add.at(deg_in, ins_src[mirrored], 1)
                ins_src, ins_dst, ins_weight = _with_reverse_interleaved(
                    ins_src, ins_dst, ins_weight
                )
            incidence.append(ins_src, ins_dst, ins_weight)
        return len(inserted), ins_src, ins_dst, ins_weight

    @staticmethod
    def _churn_reference(reference, victims, dataset, deg_in, deg_out, incidence):
        """Apply churn ``victims`` to the reference graph and arrays.

        Returns ``(removed, rem_src, rem_dst)``: the removed edge list
        plus the incidence-ordered delete columns.
        """
        removed = reference.delete_collect(victims)
        rem_src = rem_dst = _EMPTY_IDS
        if removed:
            rem_src, rem_dst, rem_weight = _edge_arrays(removed)
            np.add.at(deg_out, rem_src, -1)
            np.add.at(deg_in, rem_dst, -1)
            if not dataset.directed:
                mirrored = rem_src != rem_dst
                np.add.at(deg_out, rem_dst[mirrored], -1)
                np.add.at(deg_in, rem_src[mirrored], -1)
                rem_src, rem_dst, _ = _with_reverse_interleaved(
                    rem_src, rem_dst, rem_weight
                )
            incidence.delete(rem_src, rem_dst)
        return removed, rem_src, rem_dst

    @staticmethod
    def _build_compute_view(
        maintainer, incidence, n, ins_src, ins_dst, ins_weight, rem_src, rem_dst
    ):
        """The per-batch compute substrate: CSR view or raw in-edges.

        One incremental CSR update per batch (full rebuild only under
        extreme churn or after a structure migration), shared by every
        algorithm x model run through the view scope.
        """
        in_edges = None
        compute_view = None
        if maintainer is not None and n:
            with TRACER.span("compute.view"):
                compute_view = maintainer.apply(
                    ins_src,
                    ins_dst,
                    ins_weight,
                    rem_src,
                    rem_dst,
                    n,
                    incidence.arrays,
                )
        elif maintainer is None:
            in_edges = incidence.view()
        return in_edges, compute_view

    @staticmethod
    def _execute_compute(
        algorithm, model, reference, state, batch, removed, source, in_edges
    ):
        """Every run one algorithm x model schedules for this batch.

        FS reruns from scratch; INC applies the batch incrementally and,
        under churn, appends the KickStarter-style deletion repair whose
        cost belongs to the same compute phase.
        """
        if model == "FS":
            return [algorithm.fs_run(reference, source=source, in_edges=in_edges)]
        affected = algorithm.affected_from_batch(batch, reference)
        runs = [algorithm.inc_run(reference, state, affected, source=source)]
        if removed:
            runs.append(
                algorithm.inc_delete_run(reference, state, removed, source=source)
            )
        return runs

    def _run_repetition(
        self,
        dataset: Dataset,
        rep: int,
        source: int,
        ctx: ExecutionContext,
        result: StreamResult,
        sim_clocks: Dict[str, float],
        maintainer: Optional[ViewMaintainer] = None,
    ) -> None:
        cfg = self.config
        batches = make_batches(
            dataset.edges,
            cfg.batch_size,
            shuffle_seed=cfg.shuffle_seed + REP_SEED_STRIDE * rep,
            schedule=cfg.batch_schedule,
        )
        structures = self._make_structures(dataset)
        reference = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)
        states = {
            name: get_algorithm(name).make_state(dataset.max_nodes)
            for name in cfg.algorithms
            if "INC" in cfg.models
        }
        deg_in = np.zeros(dataset.max_nodes, dtype=np.int64)
        deg_out = np.zeros(dataset.max_nodes, dtype=np.int64)
        incidence = _InEdgeBuffer(dataset.max_nodes)

        for batch_index, batch in enumerate(batches):
            record = BatchRecord(
                repetition=rep,
                batch_index=batch_index,
                edges_attempted=len(batch),
                edges_inserted=0,
                num_nodes=0,
                num_edges=0,
            )
            # ---- Update phase: every structure ingests the batch ----
            structure_inserted = self._update_structures(
                structures, batch, dataset, ctx, record, sim_clocks
            )
            # The reference graph is the single source of truth for how
            # many unique edges the batch contributed; the instrumented
            # structures must agree with it (and with each other).
            inserted_count, ins_src, ins_dst, ins_weight = self._ingest_reference(
                reference, batch, dataset, deg_in, deg_out, incidence
            )
            record.edges_inserted = inserted_count
            if __debug__:
                self._verify_inserted(structure_inserted, inserted_count)
            removed: list = []
            rem_src = rem_dst = _EMPTY_IDS
            churn_attempted = 0
            if cfg.churn_fraction > 0.0 and len(batch):
                victims = batch.slice(
                    0, max(1, int(len(batch) * cfg.churn_fraction))
                )
                churn_attempted = len(victims)
                self._delete_structures(
                    structures, victims, dataset, ctx, record, sim_clocks
                )
                removed, rem_src, rem_dst = self._churn_reference(
                    reference, victims, dataset, deg_in, deg_out, incidence
                )
            n = reference.num_nodes
            record.num_nodes = n
            record.num_edges = reference.num_edges
            # ---- Per-batch feature capture (cost-model substrate) ----
            features_on = FEATURES.enabled
            base_row: Dict[str, object] = {}
            if features_on:
                live_out = deg_out[:n]
                base_row = {
                    "dataset": dataset.name,
                    "rep": rep,
                    "batch": batch_index,
                    "batch_edges": record.edges_attempted,
                    "edges_inserted": record.edges_inserted,
                    "edges_deleted": len(removed),
                    "churn_fraction": cfg.churn_fraction,
                    "num_nodes": n,
                    "num_edges": record.num_edges,
                    "mean_out_degree": float(live_out.mean()) if n else 0.0,
                    "max_out_degree": int(live_out.max()) if n else 0,
                }
                update_ops = record.edges_attempted + churn_attempted
                for structure_name, cycles in record.update_cycles.items():
                    FEATURES.record(
                        phase="update",
                        structure=structure_name,
                        t_seconds=ctx.seconds(cycles),
                        ops=update_ops,
                        **base_row,
                    )
            in_edges, compute_view = self._build_compute_view(
                maintainer, incidence, n,
                ins_src, ins_dst, ins_weight, rem_src, rem_dst,
            )

            # ---- Compute phase: each algorithm under each model ----
            with TRACER.span("compute") as compute_span, kernels.view_scope(
                reference, compute_view
            ):
                for alg_name in cfg.algorithms:
                    algorithm = get_algorithm(alg_name)
                    for model in cfg.models:
                        wall_start = time.perf_counter() if features_on else 0.0
                        runs = self._execute_compute(
                            algorithm, model, reference,
                            states.get(alg_name), batch, removed, source,
                            in_edges,
                        )
                        record.compute_iterations[(alg_name, model)] = sum(
                            r.iteration_count for r in runs
                        )
                        ops_row = None
                        wall_seconds = 0.0
                        if features_on:
                            wall_seconds = time.perf_counter() - wall_start
                            ops_row = _run_ops_decomposition(
                                runs, deg_in, deg_out, n, ctx.cost_model
                            )
                        run_cycles = dict.fromkeys(cfg.structures, 0.0)
                        for priced_run in runs:
                            priced = price_compute_run(
                                priced_run,
                                cfg.structures,
                                deg_in[:n],
                                deg_out[:n],
                                ctx,
                                neighbor_degree_query=algorithm.neighbor_degree_query,
                            )
                            for structure_name, pricing in priced.items():
                                run_cycles[structure_name] += pricing.latency_cycles
                        for structure_name, cycles in run_cycles.items():
                            record.compute_cycles[
                                (alg_name, model, structure_name)
                            ] = cycles
                            compute_span.add_cycles(cycles)
                            if ops_row is not None:
                                FEATURES.record(
                                    phase="compute",
                                    structure=structure_name,
                                    algorithm=alg_name,
                                    model=model,
                                    t_seconds=ctx.seconds(cycles),
                                    wall_seconds=wall_seconds,
                                    **ops_row,
                                    **base_row,
                                )
                            if METRICS.enabled:
                                METRICS.histogram(
                                    "stream_compute_latency_seconds",
                                    "simulated per-batch compute latency",
                                    algorithm=alg_name,
                                    model=model,
                                    structure=structure_name,
                                ).observe(ctx.seconds(cycles))
            if METRICS.enabled:
                METRICS.counter(
                    "stream_batches_total", "batches processed",
                    dataset=dataset.name,
                ).inc()
                METRICS.counter(
                    "stream_edges_inserted_total",
                    "unique edges ingested across batches",
                    dataset=dataset.name,
                ).inc(record.edges_inserted)
            result.add_record(record)
            if cfg.progress is not None:
                cfg.progress(
                    f"{dataset.name} rep {rep} batch {batch_index + 1}/"
                    f"{len(batches)}: |V|={n} |E|={reference.num_edges}"
                )


def make_driver(config: Optional[StreamConfig] = None) -> StreamDriver:
    """The driver matching ``config``: sharded when ``shards > 1``,
    adaptive when ``structures=("adaptive",)``.

    Call sites (the sweep engine, the CLI, benches) construct through
    this factory so the partition-parallel and auto-tuned paths are
    picked up anywhere a config asks for them.
    """
    config = config if config is not None else StreamConfig()
    if config.is_adaptive:
        # Local import: autotune builds on this module.
        from repro.streaming.autotune import AdaptiveStreamDriver

        return AdaptiveStreamDriver(config)
    if config.shards > 1:
        # Local import: sharded builds on this module.
        from repro.streaming.sharded import ShardedStreamDriver

        return ShardedStreamDriver(config)
    return StreamDriver(config)
