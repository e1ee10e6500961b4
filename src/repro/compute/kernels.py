"""Vectorized compute-phase kernels: columnar CSR views + frontier ops.

PR 2 made the *update* phase columnar; this module does the same for
the *compute* phase.  The per-vertex engines (``run_incremental``'s
Python loop, ``frontier_relaxation``'s per-edge relaxations) become
frontier-at-a-time kernels over a :class:`ComputeView` -- indptr /
indices / weights CSR arrays exported by every graph structure or
maintained per batch by the streaming driver -- in the GraphBolt /
KickStarter shape: expand the frontier with ``np.repeat``, gather
neighbor values, reduce with segment operations.

The kernels are **bit-identical** to the legacy per-vertex engines:
same float values, same per-round ``IterationStats`` arrays, same
triggered counts, and therefore the same priced cycles.  Two things
make that non-trivial:

1. **Sequential in-round semantics.**  The legacy engines are
   Gauss-Seidel within a round: a vertex late in the iteration order
   observes the *updated* values of vertices processed earlier in the
   same round.  The kernels reproduce this with *prefix waves*: the
   ordered frontier is cut into contiguous position ranges such that
   no range contains a position that depends on an earlier position in
   the same range (:func:`prefix_waves`).  Contiguity matters -- it
   also preserves the *reverse* constraint that a vertex reads its
   inputs before any later-positioned vertex overwrites them.
2. **Sequential float accumulation.**  ``np.add.reduce`` and
   ``np.add.reduceat`` use pairwise summation, which is *not* the
   bit pattern of a sequential Python ``+=`` loop.  ``np.bincount``
   and ``np.cumsum`` are sequential, so ordered segment sums (PR) use
   ``bincount`` and whole-array sums (SSSP's delta pick) ``cumsum``.
   Min/max reductions are order-free bitwise and use ``reduceat``.

The legacy path stays available behind ``SAGA_BENCH_LEGACY_COMPUTE=1``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.compute import ckernels
from repro.compute.stats import ComputeRun, IterationStats
from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER

#: Set to "1" to run the legacy per-vertex compute engines.
LEGACY_COMPUTE_ENV = "SAGA_BENCH_LEGACY_COMPUTE"

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def use_legacy_compute() -> bool:
    """True when the environment selects the per-vertex compute path."""
    return os.environ.get(LEGACY_COMPUTE_ENV) == "1"


# ----------------------------------------------------------------------
# Columnar views
# ----------------------------------------------------------------------


class CSRArrays(NamedTuple):
    """One direction of adjacency in CSR form.

    ``indices[indptr[u] : indptr[u] + degrees[u]]`` are u's neighbors
    in the exact order the source view iterates them (required for
    bit-identity of sequential accumulations); ``weights`` is parallel
    to ``indices``.  Rows are usually packed (``degrees`` is
    ``np.diff(indptr)``), but the incrementally-maintained views of
    :mod:`repro.compute.csrstore` export rows with slack between them;
    every kernel therefore reads row extents from ``indptr[u]`` +
    ``degrees[u]``, never from ``indptr[u + 1]``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray


def csr_from_rows(rows, num_nodes: int) -> CSRArrays:
    """Build :class:`CSRArrays` from per-vertex ``(neighbor, weight)`` rows.

    ``rows`` yields one neighbor sequence per vertex id in order; the
    generic fallback used by views without a columnar fast path.
    """
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    indices: List[int] = []
    weights: List[float] = []
    for u, pairs in enumerate(rows):
        for v, w in pairs:
            indices.append(v)
            weights.append(w)
        indptr[u + 1] = len(indices)
    return CSRArrays(
        indptr=indptr,
        indices=np.asarray(indices, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        degrees=np.diff(indptr),
    )


def csr_from_edges(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray, num_nodes: int, by_src: bool
) -> CSRArrays:
    """Group an edge list into CSR by source (out) or destination (in).

    The grouping sort is stable, so per-vertex neighbor order equals
    the chronological order of the edge list -- which is how the
    driver's incidence buffer and the reference graph's dicts iterate.
    """
    keys = src if by_src else dst
    vals = dst if by_src else src
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_nodes).astype(np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRArrays(
        indptr=indptr,
        indices=vals[order],
        weights=weight[order],
        degrees=counts,
    )


class ComputeView:
    """Both adjacency directions of one graph snapshot, columnar.

    The batch-granular artifact the kernels run against: built once per
    batch by the streaming driver (from its incidence buffer) or on
    demand from any view exposing ``csr_arrays`` /
    ``out_neigh``/``in_neigh``.
    """

    __slots__ = (
        "num_nodes",
        "out_csr",
        "in_csr",
        "packed",
        "version",
        "_packed_in",
        "_packed_out_w",
    )

    def __init__(
        self,
        num_nodes: int,
        out_csr: CSRArrays,
        in_csr: CSRArrays,
        packed: bool = True,
    ) -> None:
        self.num_nodes = num_nodes
        self.out_csr = out_csr
        self.in_csr = in_csr
        #: True when both CSRs are slack-free (indices/weights have
        #: exactly E live entries in row-major order).  Incremental
        #: views from csrstore leave slack and set this False.
        self.packed = packed
        #: Monotonic snapshot id assigned by the maintainer (0 = ad hoc).
        self.version = 0
        self._packed_in = None
        self._packed_out_w = None

    @property
    def out_degree(self) -> np.ndarray:
        return self.out_csr.degrees

    @classmethod
    def from_edges(
        cls, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, num_nodes: int
    ) -> "ComputeView":
        """Build from insertion-ordered incidence arrays (driver path).

        For undirected graphs the arrays must already contain both
        orientations (the driver's reverse-interleaved buffer does).
        """
        return cls(
            num_nodes,
            out_csr=csr_from_edges(src, dst, weight, num_nodes, by_src=True),
            in_csr=csr_from_edges(src, dst, weight, num_nodes, by_src=False),
        )

    @classmethod
    def of(cls, view) -> "ComputeView":
        """Columnar export of any graph view.

        Prefers the view's own ``csr_arrays(direction)``; falls back to
        per-vertex ``out_neigh``/``in_neigh`` iteration for foreign
        views, so every view type the legacy engines accepted works.
        """
        n = view.num_nodes
        exporter = getattr(view, "csr_arrays", None)
        if exporter is not None:
            out_csr = _as_csr(exporter("out"), n)
            in_csr = _as_csr(exporter("in"), n)
        else:
            out_csr = csr_from_rows((view.out_neigh(u) for u in range(n)), n)
            in_csr = csr_from_rows((view.in_neigh(u) for u in range(n)), n)
        return cls(n, out_csr=out_csr, in_csr=in_csr)


def _as_csr(arrays, num_nodes: int) -> CSRArrays:
    if isinstance(arrays, CSRArrays):
        return arrays
    indptr, indices, weights = arrays
    return CSRArrays(indptr, indices, weights, np.diff(indptr))


def csr_from_pair_rows(rows, num_nodes: int) -> CSRArrays:
    """:class:`CSRArrays` from materialized per-vertex pair rows.

    Like :func:`csr_from_rows` but requires ``rows`` to be an indexable
    sequence of ``len()``-able ``(neighbor, weight)`` collections, which
    lets the columns come from one bulk ``np.array`` conversion instead
    of a per-pair Python loop.  Neighbor ids survive the float64 round
    trip exactly (they are far below 2**53).
    """
    counts = np.fromiter(
        (len(rows[u]) for u in range(num_nodes)), dtype=np.int64, count=num_nodes
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    if total == 0:
        return CSRArrays(indptr, _EMPTY_I64, _EMPTY_F64, counts)
    flat = np.array(
        [pair for u in range(num_nodes) for pair in rows[u]], dtype=np.float64
    ).reshape(total, 2)
    return CSRArrays(
        indptr=indptr,
        indices=flat[:, 0].astype(np.int64),
        weights=np.ascontiguousarray(flat[:, 1]),
        degrees=counts,
    )


def _flat_row_slots(csr: CSRArrays, num_nodes: int) -> np.ndarray:
    """Heap positions of all live entries of rows 0..n, row-major."""
    counts = csr.degrees[:num_nodes]
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(csr.indptr[:num_nodes], counts) + within


def packed_in_edges(cv: ComputeView) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` of every edge, grouped by destination.

    Within one destination the edges keep the view's neighbor order --
    the order the legacy in-edge extraction iterates.  Zero-copy when
    the view is packed; a single flat gather otherwise.  Cached on the
    view, which is immutable once published.
    """
    cached = cv._packed_in
    if cached is None:
        csr = cv.in_csr
        n = cv.num_nodes
        dst = np.repeat(np.arange(n, dtype=np.int64), csr.degrees[:n])
        if cv.packed:
            cached = (csr.indices, dst, csr.weights)
        else:
            flat = _flat_row_slots(csr, n)
            cached = (csr.indices[flat], dst, csr.weights[flat])
        cv._packed_in = cached
    return cached


def packed_out_weights(cv: ComputeView) -> np.ndarray:
    """All live out-edge weights in row-major order (slack squeezed out).

    SSSP's delta pick needs a sequential ``cumsum`` over exactly the
    live weights in the order the packed view would store them.
    """
    weights = cv._packed_out_w
    if weights is None:
        if cv.packed:
            weights = cv.out_csr.weights
        else:
            weights = cv.out_csr.weights[_flat_row_slots(cv.out_csr, cv.num_nodes)]
        cv._packed_out_w = weights
    return weights


# -- driver-scoped view sharing ---------------------------------------
#
# The driver builds one ComputeView per batch and shares it across
# every algorithm x model run of that batch without threading it
# through third-party ``fs_run`` signatures: it registers the view for
# the duration of the compute phase and the engines look it up.

_SCOPED_VIEWS: Dict[int, "ComputeView"] = {}


@contextmanager
def view_scope(view, compute_view: Optional["ComputeView"]):
    """Register ``compute_view`` as the columnar twin of ``view``."""
    if compute_view is None:
        yield
        return
    key = id(view)
    previous = _SCOPED_VIEWS.get(key)
    _SCOPED_VIEWS[key] = compute_view
    try:
        yield
    finally:
        if previous is None:
            _SCOPED_VIEWS.pop(key, None)
        else:
            _SCOPED_VIEWS[key] = previous


def scoped_view(view) -> Optional["ComputeView"]:
    """The ComputeView registered for ``view``, if any (no building)."""
    return _SCOPED_VIEWS.get(id(view))


def resolve_view(view, compute_view: Optional["ComputeView"] = None) -> "ComputeView":
    """The ComputeView to use for ``view``: given > scoped > built."""
    if compute_view is not None:
        return compute_view
    scoped = _SCOPED_VIEWS.get(id(view))
    if scoped is not None:
        return scoped
    return ComputeView.of(view)


# ----------------------------------------------------------------------
# Frontier primitives
# ----------------------------------------------------------------------


def expand_frontier(
    csr: CSRArrays, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All adjacency rows of ``frontier``, in sequential iteration order.

    Returns ``(seg, nbr, wt)``: for row r, frontier position ``seg[r]``
    touches neighbor ``nbr[r]`` with weight ``wt[r]``.  ``seg`` is
    non-decreasing and rows within one position follow the view's
    neighbor order -- exactly the order the legacy per-vertex loop
    visits edges.  Robust to empty adjacency lists.
    """
    counts = csr.degrees[frontier]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
    ck = ckernels.get("expand")
    if ck is not None:
        return ck.expand(csr, frontier, total)
    seg = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts  # exclusive prefix per position
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    flat = csr.indptr[frontier][seg] + within
    return seg, csr.indices[flat], csr.weights[flat]


def segment_min(terms: np.ndarray, counts: np.ndarray, identity: float) -> np.ndarray:
    """Per-segment minimum with ``identity`` for empty segments.

    ``terms`` holds the segments back to back; ``counts[i]`` is segment
    i's length.  Min is order-free bitwise, so ``reduceat`` is safe
    (only the starts of non-empty segments are passed, which makes the
    spans between consecutive starts cover exactly one segment each).
    """
    ck = ckernels.get("segment_reduce")
    if ck is not None and identity == np.inf:
        # The C loop seeds every segment with the identity; that is
        # only a no-op for the direction's true identity, so other
        # identities keep the reduceat path.
        return ck.segment_reduce(terms, counts, identity, maximize=False)
    return _segment_reduce(np.minimum, terms, counts, identity)


def segment_max(terms: np.ndarray, counts: np.ndarray, identity: float) -> np.ndarray:
    """Per-segment maximum with ``identity`` for empty segments."""
    ck = ckernels.get("segment_reduce")
    if ck is not None and identity == -np.inf:
        return ck.segment_reduce(terms, counts, identity, maximize=True)
    return _segment_reduce(np.maximum, terms, counts, identity)


def _segment_reduce(op, terms, counts, identity):
    out = np.full(len(counts), identity, dtype=np.float64)
    if terms.size == 0 or len(counts) == 0:
        return out
    nonempty = counts > 0
    starts = np.cumsum(counts) - counts
    out[nonempty] = op.reduceat(terms, starts[nonempty])
    return out


def segment_sum_ordered(
    terms: np.ndarray, seg: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment sum accumulating in row order (sequential bit pattern).

    ``np.bincount`` adds elements into each bin in array order, so the
    result carries the same float bits as a Python ``+=`` loop over the
    rows -- unlike ``np.add.reduceat``, which sums pairwise.
    """
    if terms.size == 0:
        return np.zeros(num_segments, dtype=np.float64)
    ck = ckernels.get("segment_sum")
    if ck is not None:
        return ck.segment_sum(terms, seg, num_segments)
    return np.bincount(seg, weights=terms, minlength=num_segments)


def scatter_extreme(
    out: np.ndarray, idx: np.ndarray, terms: np.ndarray, maximize: bool
) -> None:
    """In-place per-index min/max scatter (``np.minimum.at`` twin).

    Min/max are order-free bitwise, so the compiled loop and the ufunc
    ``.at`` form are interchangeable; the C path is skipped under the
    legacy env so the legacy engines' timings stay untouched.
    """
    ck = None if use_legacy_compute() else ckernels.get("scatter")
    if ck is not None and idx.size:
        ck.scatter_extreme(
            out,
            np.ascontiguousarray(idx, dtype=np.int64),
            np.ascontiguousarray(terms, dtype=np.float64),
            maximize,
        )
        return
    (np.maximum if maximize else np.minimum).at(out, idx, terms)


def prefix_waves(
    size: int, dep_src: np.ndarray, dep_dst: np.ndarray
) -> List[Tuple[int, int]]:
    """Cut positions ``0..size`` into sequentially-safe contiguous waves.

    A dependency ``(p, q)`` with ``p < q`` means position q must run in
    a strictly later wave than position p (q reads a value p writes).
    Waves are *prefix ranges*: contiguity guarantees both directions of
    the sequential contract -- a dependent position runs after its
    writer, and a position's inputs are read before any later position
    overwrites them.  A greedy "ready set" partition would violate the
    second property.

    Each wave starts at the previous cut s and ends before the first
    position q > s whose latest writer ``maxdep[q]`` lies at or after
    s.  ``maxdep[q] < q`` always, so every wave is non-empty.
    """
    if size <= 1 or len(dep_src) == 0:
        return [(0, size)] if size else []
    maxdep = np.full(size, -1, dtype=np.int64)
    np.maximum.at(maxdep, dep_dst, dep_src)
    waves: List[Tuple[int, int]] = []
    start = 0
    while start < size:
        tail = maxdep[start + 1 :]
        violating = tail >= start
        end = start + 1 + int(np.argmax(violating)) if violating.any() else size
        waves.append((start, end))
        start = end
    return waves


def dependency_levels(
    size: int,
    fwd_src: np.ndarray,
    fwd_dst: np.ndarray,
    anti_src: np.ndarray,
    anti_dst: np.ndarray,
) -> np.ndarray:
    """Exact sequential-equivalence levels for one Gauss-Seidel round.

    Position q of an (ascending, unique) frontier must observe the new
    value of every in-frontier in-neighbor at an earlier position
    (forward dependency: ``lvl[q] > lvl[p]``) and the *old* value of
    every in-frontier in-neighbor at a later position (anti dependency:
    the later writer runs no earlier, ``lvl[writer] >= lvl[reader]``;
    equality is safe because a wave gathers all inputs before it
    writes).  The least fixpoint of those constraints is the longest
    dependency-chain depth -- far fewer waves than contiguous prefix
    cuts, which split on *positions* rather than chains.

    Monotone iteration to the fixpoint: each sweep extends every chain
    by at least one step, so the sweep count is the final depth + 1.
    """
    lvl = np.zeros(size, dtype=np.int64)
    if fwd_src.size == 0:
        return lvl
    if anti_src.size:
        src = np.concatenate([fwd_src, anti_src])
        dst = np.concatenate([fwd_dst, anti_dst])
        bump = np.zeros(src.size, dtype=np.int64)
        bump[: fwd_src.size] = 1
    else:
        src, dst, bump = fwd_src, fwd_dst, 1
    before = np.int64(-1)
    while True:
        np.maximum.at(lvl, dst, lvl[src] + bump)
        # Levels only grow, so an unchanged sum means a fixpoint.
        total = lvl.sum()
        if total == before:
            return lvl
        before = total


def writer_reader_deps(
    frontier: np.ndarray, writer_pos: np.ndarray, writer_tgt: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward dependencies of push-style rounds (FS relaxation).

    Row r at frontier position ``writer_pos[r]`` may write vertex
    ``writer_tgt[r]``; frontier position q reads the base value of
    ``frontier[q]`` at its turn.  Returns ``(dep_src, dep_dst)`` pairs
    ``(p, q)`` where p is the *latest* writer position below q that
    targets ``frontier[q]`` -- sufficient for :func:`prefix_waves`.
    Handles duplicate frontier entries (SSSP's settled list may revisit
    a vertex), which is why this is a sorted join rather than a single
    position scatter.
    """
    if writer_pos.size == 0 or size <= 1:
        return _EMPTY_I64, _EMPTY_I64
    order = np.lexsort((writer_pos, writer_tgt))
    tgt_sorted = writer_tgt[order]
    pos_sorted = writer_pos[order]
    # Composite key (target, writer position): positions are < size, so
    # target * size + position sorts by target then position.
    keys = tgt_sorted * size + pos_sorted
    positions = np.arange(size, dtype=np.int64)
    queries = frontier * size + positions
    idx = np.searchsorted(keys, queries)
    group_start = np.searchsorted(tgt_sorted, frontier)
    has_dep = idx > group_start
    dep_dst = positions[has_dep]
    dep_src = pos_sorted[idx[has_dep] - 1]
    return dep_src, dep_dst


# ----------------------------------------------------------------------
# INC: frontier-at-a-time Algorithm 1
# ----------------------------------------------------------------------


def as_frontier(affected, num_nodes: int) -> np.ndarray:
    """Normalize an affected set to a unique ascending int64 array."""
    if isinstance(affected, np.ndarray):
        arr = affected.astype(np.int64, copy=False)
    else:
        arr = np.fromiter(affected, dtype=np.int64)
    return np.unique(arr[arr < num_nodes])


def _observe_frontier(run: ComputeRun, size: int) -> None:
    """Per-round frontier accounting: run totals + optional histogram.

    The run totals (``frontier_rounds`` / ``frontier_vertices``) are
    the per-batch features the cost-model fitter consumes; they are two
    integer adds, so they stay on even when observability is off.
    """
    run.frontier_rounds += 1
    run.frontier_vertices += int(size)
    if METRICS.enabled:
        METRICS.histogram(
            "compute_frontier_size",
            "frontier size per compute-kernel round",
            algorithm=run.algorithm,
            model=run.model,
        ).observe(float(size))


def _observe_expansion(run: ComputeRun, edges: int) -> None:
    """Record one round's expanded-edge count (numpy paths only --
    the fused C rounds never materialize the expansion)."""
    if METRICS.enabled:
        METRICS.histogram(
            "compute_expanded_edges",
            "edges expanded per compute-kernel round",
            algorithm=run.algorithm,
            model=run.model,
        ).observe(float(edges))


def run_incremental_frontier(
    view,
    values: np.ndarray,
    affected,
    algorithm,
    source: Optional[int] = None,
    compute_view: Optional[ComputeView] = None,
    max_rounds: int = 10_000,
) -> ComputeRun:
    """Algorithm 1, one frontier at a time (bit-identical to the loop).

    ``algorithm`` supplies ``recalculate_batch`` (the vectorized Table
    I vertex function), ``epsilon``, and source pinning.  Per round:
    expand the ascending frontier over the in-CSR, schedule it into
    dependency-level waves so Gauss-Seidel reads see exactly the values
    the sequential loop would, recalculate wave-at-a-time, then derive
    ``triggered``/``cas_ops``/``pushes`` from vectorized masks over the
    out-expansion (the legacy visited bitvector becomes ``np.unique``).

    When the algorithm declares a compiled vertex function
    (``ckernel_op``) and the compute kernels built, the whole round --
    expansion, Gauss-Seidel recalculation, trigger test, next-frontier
    dedup -- runs as one C call: the C loop IS sequential, so the wave
    machinery (whose entire purpose is reproducing sequential reads
    with vector ops) disappears rather than being translated.
    """
    cv = resolve_view(view, compute_view)
    n = cv.num_nodes
    run = ComputeRun(algorithm=algorithm.name, model="INC", values=values)
    run.linear_scans = 2
    epsilon = algorithm.epsilon
    pinned = source if algorithm.needs_source and source is not None else None
    frontier = as_frontier(affected, n)
    rounds = 0
    ck = ckernels.get("inc_round")
    ck_op = getattr(algorithm, "ckernel_op", None)
    if ck is not None and ck_op is not None:
        pin = int(pinned) if pinned is not None and pinned < n else -1
        pr_base, damping = algorithm.ckernel_constants(n)
        seen = np.zeros(n, dtype=np.uint8)
        with TRACER.span(
            "compute.kernel", args={"algorithm": algorithm.name, "model": "INC"}
        ):
            while frontier.size:
                rounds += 1
                if rounds > max_rounds:
                    raise SimulationError(
                        f"incremental {algorithm.name} exceeded {max_rounds} "
                        "rounds; the vertex function is probably not convergent"
                    )
                _observe_frontier(run, frontier.size)
                triggered, cas_ops, next_frontier = ck.inc_round(
                    cv, frontier, values, ck_op, epsilon, pin, pr_base, damping, seen
                )
                run.iterations.append(
                    IterationStats.make(
                        pull=frontier,
                        push=triggered,
                        pushes=int(next_frontier.size),
                        cas_ops=cas_ops,
                    )
                )
                frontier = next_frontier
        return run
    with TRACER.span(
        "compute.kernel", args={"algorithm": algorithm.name, "model": "INC"}
    ):
        while frontier.size:
            rounds += 1
            if rounds > max_rounds:
                raise SimulationError(
                    f"incremental {algorithm.name} exceeded {max_rounds} rounds; "
                    "the vertex function is probably not convergent"
                )
            _observe_frontier(run, frontier.size)
            k = frontier.size
            seg, nbr, nwt = expand_frontier(cv.in_csr, frontier)
            _observe_expansion(run, nbr.size)
            # Forward deps: reading an in-neighbor that sits earlier in
            # this (ascending, unique) frontier sees its new value.
            position = np.full(n, -1, dtype=np.int64)
            position[frontier] = np.arange(k, dtype=np.int64)
            pin_pos = int(position[pinned]) if pinned is not None and pinned < n else -1
            writer = position[nbr]
            in_front = writer >= 0
            forward = in_front & (writer < seg)
            # inf - inf (unreached stays unreached) is NaN: not a
            # change, exactly as the scalar engine treats it.
            with np.errstate(invalid="ignore"):
                if not forward.any():
                    # No position reads an earlier position's write:
                    # the whole round is one wave.
                    old = values[frontier].copy()
                    new = algorithm.recalculate_batch(
                        frontier, cv, values, rows=(seg, nbr, nwt)
                    )
                    if pin_pos >= 0:
                        # The source keeps its pinned value: old ==
                        # new, so it never triggers (matching the
                        # scalar closure).
                        new[pin_pos] = values[pinned]
                    values[frontier] = new
                    changed = np.abs(old - new) > epsilon
                else:
                    anti = in_front & (writer > seg)
                    lvl = dependency_levels(
                        k, writer[forward], seg[forward], seg[anti], writer[anti]
                    )
                    order = np.argsort(lvl, kind="stable")
                    levels, pos_counts = np.unique(lvl, return_counts=True)
                    pos_ends = np.cumsum(pos_counts)
                    row_lvl = lvl[seg]
                    row_order = np.argsort(row_lvl, kind="stable")
                    row_ends = np.searchsorted(
                        row_lvl[row_order], levels, side="right"
                    )
                    changed = np.zeros(k, dtype=bool)
                    pa = ra = 0
                    for w in range(levels.size):
                        pb, rb = int(pos_ends[w]), int(row_ends[w])
                        # Stable sorts keep both slices ascending, so
                        # the wave's vertices stay in frontier order
                        # and each vertex's rows keep their edge order.
                        wave_pos = order[pa:pb]
                        rows = row_order[ra:rb]
                        ids = frontier[wave_pos]
                        old = values[ids].copy()
                        new = algorithm.recalculate_batch(
                            ids,
                            cv,
                            values,
                            rows=(
                                np.searchsorted(wave_pos, seg[rows]),
                                nbr[rows],
                                nwt[rows],
                            ),
                        )
                        if pin_pos >= 0 and lvl[pin_pos] == levels[w]:
                            new[
                                int(np.searchsorted(wave_pos, pin_pos))
                            ] = values[pinned]
                        values[ids] = new
                        changed[wave_pos] = np.abs(old - new) > epsilon
                        pa, ra = pb, rb
            triggered = frontier[changed]
            _, targets, _ = expand_frontier(cv.out_csr, triggered)
            next_frontier = np.unique(targets)
            run.iterations.append(
                IterationStats.make(
                    pull=frontier,
                    push=triggered,
                    pushes=int(next_frontier.size),
                    cas_ops=int(targets.size),
                )
            )
            frontier = next_frontier
    return run


def invalidate_frontier(
    view,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    supports_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    init_fn,
    pinned=(),
    compute_view: Optional[ComputeView] = None,
) -> np.ndarray:
    """Vectorized KickStarter-style invalidation (see ``incremental``).

    Flags every deletion target whose value the algorithm's vectorized
    derivation test ``supports_batch(src_values, weights, dst_values)``
    says could rest on the deleted edge, then takes the forward closure
    over the out-CSR with boolean masks.  Returns the tainted vertex
    ids ascending, after resetting their values to ``init_fn``.
    """
    cv = resolve_view(view, compute_view)
    n = cv.num_nodes
    pinned_mask = np.zeros(n, dtype=bool)
    for p in pinned:
        if 0 <= p < n:
            pinned_mask[p] = True
    tainted = np.zeros(n, dtype=bool)
    if len(src):
        eligible = (dst < n) & ~pinned_mask[np.minimum(dst, n - 1)] if n else dst < n
        if eligible.any():
            es, ed, ew = src[eligible], dst[eligible], weight[eligible]
            supported = supports_batch(values[es], ew, values[ed])
            tainted[ed[supported]] = True
    frontier = np.nonzero(tainted)[0]
    while frontier.size:
        _, targets, _ = expand_frontier(cv.out_csr, frontier)
        fresh = targets[~(tainted[targets] | pinned_mask[targets])]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        tainted[fresh] = True
        frontier = fresh
    ids = np.nonzero(tainted)[0]
    if ids.size:
        values[ids] = init_fn(ids)
    return ids


# ----------------------------------------------------------------------
# FS: push-style relaxation kernels (BFS, SSWP, SSSP passes)
# ----------------------------------------------------------------------


def relax_pass(
    cv: ComputeView,
    values: np.ndarray,
    frontier: np.ndarray,
    relax: Callable[[np.ndarray, np.ndarray], np.ndarray],
    optimize: str,
    edge_mask: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sequential-order relaxation pass over ``frontier``.

    Expands the frontier's out-edges (optionally filtered by
    ``edge_mask`` over the weights -- delta-stepping's light/heavy
    split), schedules prefix waves so each relaxer's *base* value
    reflects exactly the in-round updates the sequential loop would
    have applied, and scatter-min/maxes the candidates into ``values``.

    Returns ``(candidates, targets, start_values)`` per row in
    sequential relaxation order; the final values are already applied
    (min/max scatter equals the sequential conditional update), and the
    row arrays let callers reconstruct order-dependent bookkeeping
    (first improvements, relaxation events) exactly.
    """
    seg, tgt, wts = expand_frontier(cv.out_csr, frontier)
    if edge_mask is not None and seg.size:
        keep = edge_mask(wts)
        seg, tgt, wts = seg[keep], tgt[keep], wts[keep]
    start_values = values[tgt]  # gathered before any in-pass write
    candidates = np.empty(seg.size, dtype=np.float64)
    dep_src, dep_dst = writer_reader_deps(frontier, seg, tgt, len(frontier))
    scatter = np.minimum if optimize == "min" else np.maximum
    for a, b in prefix_waves(len(frontier), dep_src, dep_dst):
        lo = int(np.searchsorted(seg, a, side="left"))
        hi = int(np.searchsorted(seg, b, side="left"))
        if lo == hi:
            continue
        base = values[frontier[seg[lo:hi]]]
        cand = relax(base, wts[lo:hi])
        candidates[lo:hi] = cand
        scatter.at(values, tgt[lo:hi], cand)
    return candidates, tgt, start_values


def first_improvements(
    candidates: np.ndarray,
    targets: np.ndarray,
    start_values: np.ndarray,
    better: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Rows where a target first improves, in sequential order.

    In a monotone pass a target's value stays at its start value until
    the first candidate strictly better than it, so the legacy "append
    on first improvement" frontier is exactly: per target, the earliest
    row whose candidate beats the start value; rows sorted ascending
    reproduce the append order.
    """
    improving = np.nonzero(better(candidates, start_values))[0]
    if improving.size == 0:
        return _EMPTY_I64
    order = np.argsort(targets[improving], kind="stable")
    tgt_sorted = targets[improving][order]
    rows_sorted = improving[order]
    first = np.ones(tgt_sorted.size, dtype=bool)
    first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
    return np.sort(rows_sorted[first])


def relaxation_events(
    candidates: np.ndarray,
    targets: np.ndarray,
    start_values: np.ndarray,
    minimize: bool = True,
) -> np.ndarray:
    """Rows that would win a sequential compare-and-update, in order.

    The legacy loop counts a push whenever ``candidate`` beats the
    target's *current* value, which during a pass equals the best of
    its start value and all earlier candidates.  Computed exactly with
    a target-grouped exclusive running min/max: group rows by target
    (stable, preserving sequential order), seed each group with the
    start value, and scan with Hillis-Steele doubling (min/max are
    idempotent, so the shifted-inclusive scan is exact).
    """
    m = candidates.size
    if m == 0:
        return _EMPTY_I64
    order = np.argsort(targets, kind="stable")
    cand = candidates[order]
    tgt = targets[order]
    seed = start_values[order]
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = tgt[1:] != tgt[:-1]
    group = np.cumsum(new_group) - 1
    combine = np.minimum if minimize else np.maximum
    identity = np.inf if minimize else -np.inf
    # Exclusive scan: each row sees the best of the group's earlier
    # candidates (identity at group starts), then fold in the seed.
    shifted = np.empty(m, dtype=np.float64)
    shifted[0] = identity
    shifted[1:] = np.where(new_group[1:], identity, cand[:-1])
    step = 1
    while step < m:
        same = group[step:] == group[:-step]
        shifted[step:] = combine(
            shifted[step:], np.where(same, shifted[:-step], identity)
        )
        step *= 2
    running = combine(seed, shifted)
    wins = cand < running if minimize else cand > running
    return np.sort(order[np.nonzero(wins)[0]])


def frontier_relaxation_kernel(
    view,
    values: np.ndarray,
    source: int,
    relax: Callable[[np.ndarray, np.ndarray], np.ndarray],
    better: Callable[[np.ndarray, np.ndarray], np.ndarray],
    optimize: str,
    algorithm: str,
    compute_view: Optional[ComputeView] = None,
    relax_op: Optional[int] = None,
) -> ComputeRun:
    """Vectorized :func:`repro.algorithms.base.frontier_relaxation`.

    ``relax_op`` is the compiled twin of ``relax`` (a
    ``ckernels.RELAX_*`` code); when given and the compute kernels
    built, each round is one sequential C pass -- relaxation, update,
    and first-improvement discovery fused, in the exact order the
    legacy per-edge loop runs.
    """
    cv = resolve_view(view, compute_view)
    run = ComputeRun(algorithm=algorithm, model="FS", values=values, source=source)
    run.linear_scans = 1
    if source >= cv.num_nodes:
        return run
    frontier = np.array([source], dtype=np.int64)
    ck = ckernels.get("relax_round") if relax_op is not None else None
    improved = np.zeros(cv.num_nodes, dtype=np.uint8) if ck is not None else None
    with TRACER.span("compute.kernel", args={"algorithm": algorithm, "model": "FS"}):
        while frontier.size:
            _observe_frontier(run, frontier.size)
            if ck is not None:
                next_frontier = ck.relax_round(
                    cv.out_csr, frontier, values, relax_op, optimize == "max", improved
                )
            else:
                candidates, targets, start_values = relax_pass(
                    cv, values, frontier, relax, optimize
                )
                _observe_expansion(run, candidates.size)
                rows = first_improvements(candidates, targets, start_values, better)
                next_frontier = targets[rows]
            run.iterations.append(
                IterationStats.make(
                    push=frontier,
                    pushes=int(next_frontier.size),
                    cas_ops=int(next_frontier.size),
                )
            )
            frontier = next_frontier
    return run
