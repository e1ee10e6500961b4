"""Bit-identity of the compiled compute kernels vs their numpy twins.

Every C kernel in ``repro.compute.ckernels`` must reproduce the numpy
path it replaces *exactly* -- identical float64 bits and identical
iteration statistics -- because the simulated latencies the benchmark
reports are priced from those numbers.  Each kernel is exercised
through its real dispatch site (the public ``repro.compute.kernels``
functions and the algorithm engines) under two settings of
``SAGA_BENCH_NO_CCOMPUTE``: compiled on, and forced numpy fallback.

The suite skips (with a reason) when the compiled library is
unavailable -- no working C compiler -- except for the env-gate parsing
tests, which need no library at all.
"""

import contextlib
import os

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.compute import ckernels
from repro.compute.csrstore import DynamicCSR
from repro.compute.kernels import (
    csr_from_edges,
    expand_frontier,
    scatter_extreme,
    segment_max,
    segment_min,
    segment_sum_ordered,
)
from repro.graph import EdgeBatch, ReferenceGraph
from tests.test_compute_kernels import _hub, _snapshot_run, _stream

ALGOS = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")

needs_ckernels = pytest.mark.skipif(
    not ckernels.loaded(),
    reason="compiled compute kernels unavailable (no working C compiler)",
)


@contextlib.contextmanager
def _ccompute(setting):
    """Re-probe the compiled kernels under one DISABLE_ENV setting."""
    previous = os.environ.pop(ckernels.DISABLE_ENV, None)
    if setting is not None:
        os.environ[ckernels.DISABLE_ENV] = setting
    ckernels.reset()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ckernels.DISABLE_ENV, None)
        else:
            os.environ[ckernels.DISABLE_ENV] = previous
        ckernels.reset()


def _both_paths(fn):
    """Evaluate ``fn`` on the compiled path and the numpy fallback."""
    with _ccompute(None):
        assert ckernels.loaded()
        compiled = fn()
    with _ccompute("1"):
        assert not ckernels.loaded()
        fallback = fn()
    return compiled, fallback


def _random_edges(num_nodes, num_edges, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    dst = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    wt = np.round(rng.uniform(0.5, 4.0, size=num_edges), 2)
    return src, dst, wt


def _slack_csr(num_nodes, src, dst, wt, delete_first=0):
    """A genuinely-slack CSR: rebuild + append + optional deletions."""
    store = DynamicCSR(num_nodes)
    half = len(src) // 2
    store.rebuild(src[:half], dst[:half], wt[:half])
    store.insert(src[half:], dst[half:], wt[half:])
    if delete_first:
        store.delete(src[:delete_first], dst[:delete_first])
    return store


@needs_ckernels
class TestDirectKernels:
    """The array kernels, through their public dispatch sites."""

    def test_expand_packed_and_slack(self):
        num_nodes = 40
        src, dst, wt = _random_edges(num_nodes, 200, seed=5)
        # Unique pairs only, so the slack store and the packed rebuild
        # describe the same multiset of edges.
        _, keep = np.unique(src * num_nodes + dst, return_index=True)
        keep.sort()
        src, dst, wt = src[keep], dst[keep], wt[keep]
        store = _slack_csr(num_nodes, src, dst, wt)
        packed = csr_from_edges(src, dst, wt, num_nodes, by_src=True)
        assert store.check_against(packed, num_nodes)
        frontier = np.unique(src)[::2].astype(np.int64)
        for csr in (packed, store.export(num_nodes)):
            (c_seg, c_nbr, c_wt), (n_seg, n_nbr, n_wt) = _both_paths(
                lambda csr=csr: expand_frontier(csr, frontier)
            )
            assert np.array_equal(c_seg, n_seg)
            assert np.array_equal(c_nbr, n_nbr)
            assert c_wt.tobytes() == n_wt.tobytes()

    def test_expand_empty_frontier_and_single_vertex(self):
        csr = csr_from_edges(
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([2.5]),
            1,
            by_src=True,
        )
        for frontier in (np.empty(0, dtype=np.int64), np.array([0], dtype=np.int64)):
            compiled, fallback = _both_paths(
                lambda f=frontier: expand_frontier(csr, f)
            )
            for a, b in zip(compiled, fallback):
                assert np.array_equal(a, b)

    def test_expand_all_deleted_edges(self):
        """Frontier rows whose every edge was deleted expand to nothing."""
        num_nodes = 10
        src = np.arange(num_nodes, dtype=np.int64)
        dst = (src + 1) % num_nodes
        wt = np.ones(num_nodes)
        store = _slack_csr(num_nodes, src, dst, wt, delete_first=num_nodes)
        assert store.live == 0
        frontier = np.arange(num_nodes, dtype=np.int64)
        compiled, fallback = _both_paths(
            lambda: expand_frontier(store.export(num_nodes), frontier)
        )
        assert compiled[0].size == 0
        for a, b in zip(compiled, fallback):
            assert np.array_equal(a, b)

    def test_segment_reduce_with_nan_and_empty_segments(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 5, size=50).astype(np.int64)
        terms = rng.normal(size=int(counts.sum()))
        terms[::7] = np.nan  # np.minimum/np.maximum propagate NaN
        for fn, identity in ((segment_min, np.inf), (segment_max, -np.inf)):
            compiled, fallback = _both_paths(lambda fn=fn, i=identity: fn(terms, counts, i))
            assert compiled.tobytes() == fallback.tobytes()

    def test_segment_reduce_non_identity_seed_stays_numpy(self):
        """Only the true identity routes to C (it always seeds with it)."""
        counts = np.array([0, 2], dtype=np.int64)
        terms = np.array([3.0, 1.0])
        compiled, fallback = _both_paths(lambda: segment_min(terms, counts, 5.0))
        assert compiled.tolist() == fallback.tolist() == [5.0, 1.0]

    def test_segment_sum_matches_bincount_order(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 6, size=40).astype(np.int64)
        seg = np.repeat(np.arange(40, dtype=np.int64), counts)
        terms = rng.normal(size=seg.size) * 1e-3 + 0.1
        compiled, fallback = _both_paths(
            lambda: segment_sum_ordered(terms, seg, 40)
        )
        assert compiled.tobytes() == fallback.tobytes()
        assert (
            compiled.tobytes()
            == np.bincount(seg, weights=terms, minlength=40).tobytes()
        )

    def test_scatter_extreme_duplicates_and_nan(self):
        rng = np.random.default_rng(13)
        idx = rng.integers(0, 8, size=64).astype(np.int64)
        terms = rng.normal(size=64)
        terms[5] = np.nan
        with np.errstate(invalid="ignore"):
            for maximize, ufunc in ((False, np.minimum), (True, np.maximum)):
                def run(maximize=maximize):
                    out = np.full(8, 0.0 if maximize else 10.0)
                    scatter_extreme(out, idx, terms, maximize=maximize)
                    return out

                compiled, fallback = _both_paths(run)
                expected = np.full(8, 0.0 if maximize else 10.0)
                ufunc.at(expected, idx, terms)
                assert compiled.tobytes() == fallback.tobytes() == expected.tobytes()

    def test_scatter_extreme_empty(self):
        out = np.array([1.0, 2.0])
        scatter_extreme(out, np.empty(0, dtype=np.int64), np.empty(0), maximize=False)
        assert out.tolist() == [1.0, 2.0]


def _replay_algorithms(num_nodes=64, seed=17):
    """All six algorithms, FS + INC + delete repair, on one stream."""
    batches = _stream(num_nodes=num_nodes, seed=seed)
    source = _hub(batches)
    snapshots = []
    reference = ReferenceGraph(num_nodes, directed=True)
    states = {a: get_algorithm(a).make_state(num_nodes) for a in ALGOS}
    for batch in batches:
        reference.update_collect(batch)
        for alg_name in ALGOS:
            algorithm = get_algorithm(alg_name)
            affected = algorithm.affected_from_batch(batch, reference)
            snapshots.append(_snapshot_run(algorithm.fs_run(reference, source=source)))
            snapshots.append(
                _snapshot_run(
                    algorithm.inc_run(
                        reference, states[alg_name], affected, source=source
                    )
                )
            )
    removed = reference.delete_collect(batches[0].slice(0, 40))
    assert removed
    for alg_name in ALGOS:
        algorithm = get_algorithm(alg_name)
        snapshots.append(
            _snapshot_run(
                algorithm.inc_delete_run(
                    reference, states[alg_name], removed, source=source
                )
            )
        )
        snapshots.append(_snapshot_run(algorithm.fs_run(reference, source=source)))
    return snapshots


@needs_ckernels
class TestFusedKernels:
    """inc_round / relax_round / delta_pass through whole algorithm runs."""

    def test_all_algorithms_bit_identical(self):
        compiled, fallback = _both_paths(_replay_algorithms)
        assert compiled == fallback

    def test_single_vertex_graph(self):
        def run():
            reference = ReferenceGraph(1, directed=True)
            reference.update_collect(EdgeBatch.from_edges([(0, 0, 1.5)]))
            return [
                _snapshot_run(get_algorithm(a).fs_run(reference, source=0))
                for a in ALGOS
            ]

        compiled, fallback = _both_paths(run)
        assert compiled == fallback

    def test_empty_affected_set(self):
        def run():
            reference = ReferenceGraph(8, directed=True)
            reference.update_collect(
                EdgeBatch.from_edges([(i, i + 1, 1.0) for i in range(7)])
            )
            out = []
            for a in ALGOS:
                algorithm = get_algorithm(a)
                state = algorithm.make_state(8)
                out.append(
                    _snapshot_run(
                        algorithm.inc_run(reference, state, set(), source=0)
                    )
                )
            return out

        compiled, fallback = _both_paths(run)
        assert compiled == fallback

    def test_fully_deleted_graph(self):
        def run():
            batch = EdgeBatch.from_edges([(i, (i + 3) % 16, 2.0) for i in range(16)])
            reference = ReferenceGraph(16, directed=True)
            reference.update_collect(batch)
            states = {a: get_algorithm(a).make_state(16) for a in ALGOS}
            for a in ALGOS:
                get_algorithm(a).inc_run(
                    reference,
                    states[a],
                    get_algorithm(a).affected_from_batch(batch, reference),
                    source=0,
                )
            removed = reference.delete_collect(batch)
            assert len(removed) == 16
            out = []
            for a in ALGOS:
                algorithm = get_algorithm(a)
                out.append(
                    _snapshot_run(
                        algorithm.inc_delete_run(
                            reference, states[a], removed, source=0
                        )
                    )
                )
                out.append(_snapshot_run(algorithm.fs_run(reference, source=0)))
            return out

        compiled, fallback = _both_paths(run)
        assert compiled == fallback


class TestEnvGates:
    """DISABLE_ENV / REQUIRE_ENV semantics (no compiler needed)."""

    @needs_ckernels
    def test_per_kernel_disable_list(self):
        with _ccompute("inc_round,expand"):
            assert ckernels.loaded()  # library still builds
            assert ckernels.get("inc_round") is None
            assert ckernels.get("expand") is None
            assert ckernels.get("relax_round") is not None
            assert ckernels.get("segment_sum") is not None

    def test_all_disables_everything(self):
        with _ccompute("all"):
            assert not ckernels.loaded()
            for name in ckernels.KERNEL_NAMES:
                assert ckernels.get(name) is None

    def test_unknown_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            with _ccompute("inc_round,typo"):
                ckernels.loaded()

    def test_require_env_turns_build_failure_into_error(self, monkeypatch):
        def broken(source, stem):
            raise OSError("no compiler on this box")

        monkeypatch.setattr(ckernels, "load_library", broken)
        monkeypatch.setenv(ckernels.REQUIRE_ENV, "1")
        monkeypatch.delenv(ckernels.DISABLE_ENV, raising=False)
        ckernels.reset()
        try:
            with pytest.raises(RuntimeError, match=ckernels.REQUIRE_ENV):
                ckernels.loaded()
        finally:
            monkeypatch.undo()
            ckernels.reset()

    def test_build_failure_falls_back_without_require(self, monkeypatch):
        def broken(source, stem, **kwargs):
            raise OSError("no compiler on this box")

        monkeypatch.setattr(ckernels, "load_library", broken)
        monkeypatch.delenv(ckernels.REQUIRE_ENV, raising=False)
        monkeypatch.delenv(ckernels.DISABLE_ENV, raising=False)
        ckernels.reset()
        try:
            with pytest.warns(RuntimeWarning, match="no compiler on this box"):
                assert not ckernels.loaded()
            assert ckernels.get("inc_round") is None
        finally:
            monkeypatch.undo()
            ckernels.reset()
