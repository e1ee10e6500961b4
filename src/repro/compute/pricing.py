"""Pricing a compute run on the data structures.

Vertex *values* are independent of the storage structure, but compute
*latency* is not: each structure has its own traversal mechanism
(contiguous scan, pointer-chased blocks, hashed retrieval; Section V-B
of the paper).  Given the operation counts of one
:class:`~repro.compute.stats.ComputeRun`, this module prices the run on
any set of the structures at once: every evaluated vertex is a
parallel-for task whose cost combines the structure's traversal cost
with the algorithm's per-neighbor work, and the simulated latency is
the sum of the per-iteration Graham makespans.

Structures that share a traversal-cost function and a degree-query cost
(AS, AC and BA) are one pricing *signature* and are priced once.  The
run is priced by the compiled ``saga_price_run`` kernel when it is
available (:mod:`repro.compute.ckernels`, gate name ``price``), and
otherwise by the numpy reference below, which it matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compute import ckernels
from repro.compute.stats import ComputeRun
from repro.errors import StructureError
from repro.graph import STRUCTURES
from repro.graph.base import ExecutionContext, contiguous_traversal_cost
from repro.graph.dah import LOW_DEGREE_THRESHOLD, DegreeAwareHash
from repro.graph.stinger import BLOCK_CAPACITY, Stinger
from repro.sim.cost_model import CostModel
from repro.sim.scheduler import PARALLEL_FOR_CHUNK, graham_makespan, work_scale

#: Structures whose degree lookups go through hash-table meta-queries.
_DAH_NAME = "DAH"

#: The traversal-cost functions the compiled kernel implements.
_KERNEL_SHAPES = {
    contiguous_traversal_cost: ckernels.SHAPE_CONTIGUOUS,
    Stinger.vector_traversal_cost: ckernels.SHAPE_STINGER,
    DegreeAwareHash.vector_traversal_cost: ckernels.SHAPE_DAH,
}

#: (vector traversal cost, degree-query cost): what makes two
#: structures price differently.
Signature = Tuple[Callable, float]


def _degree_query_cost(structure: str, cost: CostModel) -> float:
    if structure == _DAH_NAME:
        return cost.degree_query + cost.hash_probe
    return cost.probe_element


@dataclass
class ComputePricing:
    """Simulated compute-phase latency of one run on one structure."""

    structure: str
    latency_cycles: float
    total_work_cycles: float
    iteration_count: int

    def latency_seconds(self, machine) -> float:
        return machine.cycles_to_seconds(self.latency_cycles)


def price_compute_run(
    run: ComputeRun,
    structures: Sequence[str],
    deg_in: np.ndarray,
    deg_out: np.ndarray,
    ctx: ExecutionContext,
    neighbor_degree_query: bool = False,
) -> Dict[str, ComputePricing]:
    """Price ``run`` as if it had executed on each of ``structures``.

    Returns one :class:`ComputePricing` per distinct structure name, in
    the order given.

    Parameters
    ----------
    deg_in, deg_out:
        Per-vertex in/out-degree arrays of the graph *as of this
        batch* (the traversal costs are degree-driven).
    neighbor_degree_query:
        True for PageRank, whose vertex function additionally queries
        the out-degree of every in-neighbor (the normalization in
        Table I) -- particularly expensive on DAH (Section V-B).
    """
    if isinstance(structures, str):
        raise TypeError(
            f"structures must be a sequence of names, got the string {structures!r}"
        )
    names = list(dict.fromkeys(structures))
    for name in names:
        if name not in STRUCTURES:
            raise StructureError(f"unknown structure {name!r}")
    cost = ctx.cost_model
    threads = ctx.threads
    scale = work_scale(threads, ctx.machine.physical_cores, cost)
    groups: Dict[Signature, List[str]] = {}
    for name in names:
        key = (STRUCTURES[name].vector_traversal_cost, _degree_query_cost(name, cost))
        groups.setdefault(key, []).append(name)
    signatures = list(groups)

    deg_in = np.asarray(deg_in)
    deg_out = np.asarray(deg_out)
    kernels = ckernels.get("price")
    if (
        kernels is not None
        and all(fn in _KERNEL_SHAPES for fn, _ in signatures)
        and deg_in.dtype == np.int64
        and deg_out.dtype == np.int64
    ):
        latency, work = _price_compiled(
            kernels, run, signatures, deg_in, deg_out, cost, threads, scale,
            neighbor_degree_query,
        )
    else:
        latency, work = _price_reference(
            run, signatures, deg_in, deg_out, cost, threads, scale,
            neighbor_degree_query,
        )

    # Whole-array scans (affected flags, new-vertex init, FS resets):
    # one light access per vertex, perfectly parallel.
    scan_work = run.linear_scans * len(deg_in) * cost.probe_element
    priced: Dict[str, ComputePricing] = {}
    for key, total_cycles, total_work in zip(signatures, latency, work):
        for name in groups[key]:
            priced[name] = ComputePricing(
                structure=name,
                latency_cycles=float(total_cycles) + scan_work / threads,
                total_work_cycles=float(total_work) + scan_work,
                iteration_count=run.iteration_count,
            )
    return {name: priced[name] for name in names}


def _price_reference(
    run: ComputeRun,
    signatures: List[Signature],
    deg_in: np.ndarray,
    deg_out: np.ndarray,
    cost: CostModel,
    threads: int,
    scale: float,
    neighbor_degree_query: bool,
) -> Tuple[List[float], List[float]]:
    """Numpy pricing: the differential oracle and no-compiler fallback.

    Per non-empty iteration, the pull tasks then the push tasks form one
    ``parallel for``; its makespan is the Graham bound over their
    ``np.sum`` and ``np.max`` plus the amortized dispatch overhead.
    """
    latency = [0.0] * len(signatures)
    work = [0.0] * len(signatures)
    for it in run.iterations:
        n = len(it.pull_vertices) + len(it.push_vertices)
        if n == 0:
            continue
        d_in = deg_in[it.pull_vertices]
        d_out = deg_out[it.push_vertices]
        dispatch = cost.task_dispatch * n / PARALLEL_FOR_CHUNK
        extra = it.pushes * cost.queue_push
        for s, (vector_cost, dq) in enumerate(signatures):
            pull_costs = (
                cost.vertex_task_base
                + vector_cost(d_in, cost)
                + d_in * cost.neighbor_visit
                + cost.property_write
            )
            if neighbor_degree_query:
                pull_costs = pull_costs + d_in * dq
            push_costs = vector_cost(d_out, cost) + d_out * cost.cas
            per_task = np.concatenate([pull_costs, push_costs])
            total = float(per_task.sum()) + dispatch
            longest = float(per_task.max())
            latency[s] += graham_makespan(total, longest, threads, scale) + extra / threads
            work[s] += total + extra
    return latency, work


def _price_compiled(
    kernels,
    run: ComputeRun,
    signatures: List[Signature],
    deg_in: np.ndarray,
    deg_out: np.ndarray,
    cost: CostModel,
    threads: int,
    scale: float,
    neighbor_degree_query: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """``saga_price_run`` over a zero-copy table of the iterations."""
    keep = []  # converted vertex arrays the table points into

    def address(vertices: np.ndarray) -> int:
        if not vertices.size:
            return 0
        if vertices.dtype != np.int64 or not vertices.flags.c_contiguous:
            vertices = np.ascontiguousarray(vertices, dtype=np.int64)
            keep.append(vertices)
        return vertices.ctypes.data

    table = np.array(
        [
            (
                address(it.pull_vertices),
                len(it.pull_vertices),
                address(it.push_vertices),
                len(it.push_vertices),
                it.pushes,
            )
            for it in run.iterations
        ],
        dtype=np.int64,
    ).reshape(-1, 5)
    return kernels.price_run(
        table,
        np.ascontiguousarray(deg_in),
        np.ascontiguousarray(deg_out),
        shapes=np.array([_KERNEL_SHAPES[fn] for fn, _ in signatures], dtype=np.int32),
        dq=np.array([dq for _, dq in signatures], dtype=np.float64),
        neighbor_degree_query=neighbor_degree_query,
        cost_fields=np.array(
            [getattr(cost, f) for f in ckernels.PRICE_COST_FIELDS], dtype=np.float64
        ),
        dah_threshold=LOW_DEGREE_THRESHOLD,
        block=BLOCK_CAPACITY,
        threads=threads,
        scale=scale,
        dispatch_chunk=PARALLEL_FOR_CHUNK,
    )
