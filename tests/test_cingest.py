"""Differential tests for the compiled ingest and compute kernels.

The C batch-ingest kernels (``repro.sim.cingest``) and the stores'
per-edge Python twins (``SAGA_BENCH_NO_CINGEST=all``) must be
indistinguishable: identical per-row counters (hence identical task
prices and makespans), identical graph contents, identical
simulated-memory layouts (checked through traced addresses), for every
structure, under inserts, deletes, duplicate churn, and empty batches.
The threaded INC round must produce bit-identical float64 values at
every thread count.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.compute import ckernels
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph, make_structure
from repro.sim import cingest
from repro.sim.trace import TraceRecorder
from tests.conftest import SMALL_MACHINE, random_batch

ALL = ("AS", "AC", "Stinger", "DAH", "BA")

N = 48


def _ctx(**kwargs) -> ExecutionContext:
    return ExecutionContext(machine=SMALL_MACHINE, **kwargs)


def _empty_batch() -> EdgeBatch:
    return EdgeBatch(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        weight=np.empty(0, dtype=np.float64),
    )


def _run_scenario(name: str, directed: bool, gated: bool):
    """Build a structure (compiled, or gated to the twins) and run the script.

    The script covers fused inserts, duplicate churn, deletions of
    present and absent edges, empty batches, and one traced batch at
    the end (exercising the per-edge twins and the region layout).
    Returns the structure plus a comparable summary.
    """
    if gated:
        os.environ[cingest.DISABLE_ENV] = "all"
    cingest.reset()
    try:
        structure = make_structure(name, N, directed=directed)
        assert (structure._kernels is None) == (gated or not cingest.loaded()), name
        summary = []
        first = random_batch(N, 260, seed=7)
        growth = random_batch(N, 260, seed=8)
        for result in (
            structure.update(first, _ctx()),
            structure.update(growth, _ctx()),
            structure.update(first, _ctx()),  # duplicate churn
            structure.update(_empty_batch(), _ctx()),
            structure.delete(first, _ctx()),
            structure.delete(first, _ctx()),  # all misses now
            structure.delete(_empty_batch(), _ctx()),
            structure.update(first, _ctx()),  # reinsert after delete
        ):
            summary.append(
                (result.edges_inserted, result.duplicates, result.latency_cycles)
            )
        traced = structure.update(
            random_batch(N, 120, seed=9), _ctx(recorder=TraceRecorder())
        )
        return structure, summary, traced.trace
    finally:
        os.environ.pop(cingest.DISABLE_ENV, None)
        cingest.reset()


def _same_graph(a, b) -> None:
    assert a.num_edges == b.num_edges
    for v in range(N):
        assert dict(a.out_neigh(v)) == dict(b.out_neigh(v))
        assert dict(a.in_neigh(v)) == dict(b.in_neigh(v))
        assert a.out_degree(v) == b.out_degree(v)
        assert a.in_degree(v) == b.in_degree(v)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("directed", [True, False])
def test_native_matches_plain(name, directed):
    """The compiled kernel reproduces the per-edge twins bit for bit."""
    if cingest.get(name) is None:
        pytest.skip("compiled ingest kernels unavailable")
    native, native_summary, native_trace = _run_scenario(name, directed, gated=False)
    twin, twin_summary, twin_trace = _run_scenario(name, directed, gated=True)
    assert native_summary == twin_summary
    _same_graph(native, twin)
    # Traced addresses pin down the entire simulated-memory allocation
    # history (region bases are allocation-order dependent), which the
    # compiled path replays from its event log.
    assert np.array_equal(native_trace.addresses, twin_trace.addresses)
    assert np.array_equal(native_trace.is_write, twin_trace.is_write)
    assert np.array_equal(native_trace.task_ids, twin_trace.task_ids)


@pytest.mark.parametrize("name", ALL)
def test_native_matches_reference(name):
    """Native stores agree with ReferenceGraph over interleaved churn."""
    if cingest.get(name) is None:
        pytest.skip("compiled ingest kernels unavailable")
    structure = make_structure(name, N, directed=True)
    reference = ReferenceGraph(N, directed=True)
    for seed in range(3):
        batch = random_batch(N, 200, seed=seed)
        structure.update(batch, _ctx())
        reference.update(batch)
        drop = random_batch(N, 60, seed=seed + 10)
        structure.delete(drop, _ctx())
        reference.delete_collect(drop)
    assert structure.num_edges == reference.num_edges
    for v in range(N):
        assert dict(structure.out_neigh(v)) == reference.out_items(v)
        assert dict(structure.in_neigh(v)) == reference.in_items(v)


class TestGates:
    def test_unknown_structure_name_rejected(self, monkeypatch):
        monkeypatch.setenv(cingest.DISABLE_ENV, "AS,bogus")
        cingest.reset()
        try:
            with pytest.raises(ValueError, match="bogus"):
                cingest.get("AS")
        finally:
            monkeypatch.delenv(cingest.DISABLE_ENV)
            cingest.reset()

    def test_per_structure_gate(self, monkeypatch):
        if not cingest.loaded():
            pytest.skip("compiled ingest kernels unavailable")
        monkeypatch.setenv(cingest.DISABLE_ENV, "AS")
        cingest.reset()
        try:
            assert cingest.get("AS") is None
            assert cingest.get("DAH") is not None
            assert make_structure("AS", N)._kernels is None
            assert make_structure("DAH", N)._kernels is not None
        finally:
            monkeypatch.delenv(cingest.DISABLE_ENV)
            cingest.reset()

    def test_build_failure_warns_and_falls_back(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no compiler")

        monkeypatch.setattr(cingest, "load_library", broken)
        monkeypatch.delenv(cingest.DISABLE_ENV, raising=False)
        monkeypatch.delenv(cingest.REQUIRE_ENV, raising=False)
        cingest.reset()
        try:
            with pytest.warns(RuntimeWarning, match="OSError: no compiler"):
                assert cingest.get("AS") is None
            structure = make_structure("AS", N)
            assert structure._kernels is None
            result = structure.update(random_batch(N, 40, seed=1), _ctx())
            assert result.edges_inserted + result.duplicates == 40
        finally:
            cingest.reset()

    def test_build_failure_raises_when_required(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no compiler")

        monkeypatch.setattr(cingest, "load_library", broken)
        monkeypatch.delenv(cingest.DISABLE_ENV, raising=False)
        monkeypatch.setenv(cingest.REQUIRE_ENV, "1")
        cingest.reset()
        try:
            with pytest.raises(RuntimeError, match="no compiler"):
                cingest.get("AS")
        finally:
            cingest.reset()

    def test_disabled_on_purpose_is_silent(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("the build must not be attempted")

        monkeypatch.setattr(cingest, "load_library", broken)
        monkeypatch.setenv(cingest.DISABLE_ENV, "all")
        cingest.reset()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cingest.get("AS") is None
                assert not cingest.loaded()
        finally:
            cingest.reset()


class TestComputeThreadInvariance:
    """Threads {1, 2, 4} must produce identical float64 bits."""

    NODES = 1500
    ALGOS = ("BFS", "SSSP", "CC", "PR")

    def _stream_values(self, algo_name: str, threads: int) -> bytes:
        from repro.algorithms import get_algorithm

        ckernels.set_compute_threads(threads)
        try:
            algorithm = get_algorithm(algo_name)
            reference = ReferenceGraph(self.NODES, directed=True)
            state = algorithm.make_state(reference.max_nodes)
            blobs = []
            for seed in range(3):
                batch = random_batch(self.NODES, 6000, seed=seed)
                reference.update(batch)
                affected = algorithm.affected_from_batch(batch, reference)
                algorithm.inc_run(reference, state, affected, source=0)
                blobs.append(state.values.tobytes())
            return b"".join(blobs)
        finally:
            ckernels.set_compute_threads(1)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_bit_identical_across_thread_counts(self, algo):
        if ckernels.get("inc_round") is None:
            pytest.skip("compiled compute kernels unavailable")
        serial = self._stream_values(algo, 1)
        for threads in (2, 4):
            assert self._stream_values(algo, threads) == serial, (
                f"{algo} diverged at {threads} threads"
            )

    @staticmethod
    def _child_compute(queue):
        # Runs in a forked child while the parent's pool is live.  The
        # child must NOT call set_compute_threads first: the point is
        # that inherited pool state (g_threads > 1, zero workers) falls
        # back to the serial path instead of deadlocking.
        from repro.algorithms import get_algorithm

        algorithm = get_algorithm("PR")
        reference = ReferenceGraph(1500, directed=True)
        state = algorithm.make_state(reference.max_nodes)
        batch = random_batch(1500, 6000, seed=0)
        reference.update(batch)
        affected = algorithm.affected_from_batch(batch, reference)
        algorithm.inc_run(reference, state, affected, source=0)
        queue.put(state.values.tobytes())

    def test_forked_child_survives_live_pool(self):
        """fork() drops the pool's workers; the child must go serial.

        Regression test: multiprocessing sweep workers fork while the
        parent's pthread pool is spawned.  Without the atfork reset the
        child dispatches gather slices to workers that do not exist in
        its address space and waits on them forever.
        """
        if ckernels.get("inc_round") is None:
            pytest.skip("compiled compute kernels unavailable")
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        ckernels.set_compute_threads(4)  # spawns the workers now
        try:
            queue = ctx.Queue()
            child = ctx.Process(target=self._child_compute, args=(queue,))
            child.start()
            child.join(timeout=120)
            if child.is_alive():
                child.kill()
                child.join()
                pytest.fail("forked child deadlocked on the thread pool")
            assert child.exitcode == 0
            blob = queue.get(timeout=10)
        finally:
            ckernels.set_compute_threads(1)
        expected = ctx.Queue()
        self._child_compute(expected)
        assert blob == expected.get(timeout=10)

    def test_env_threads_parsing(self, monkeypatch):
        monkeypatch.setenv(ckernels.THREADS_ENV, "3")
        assert ckernels._env_threads() == 3
        monkeypatch.setenv(ckernels.THREADS_ENV, "0")
        assert ckernels._env_threads() == 1
        monkeypatch.setenv(ckernels.THREADS_ENV, "nope")
        with pytest.raises(ValueError, match="SAGA_BENCH_COMPUTE_THREADS"):
            ckernels._env_threads()
