"""Unit tests for per-structure compute pricing.

Beyond the pricing semantics, this suite pins the compiled pricer
(``saga_price_run``) to the numpy reference bit for bit: the simulated
compute cycles every artifact reports are priced by one or the other
depending on whether a C compiler is available.
"""

import contextlib
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.hardware_profile import HardwareProfiler
from repro.compute import ckernels
from repro.compute.pricing import price_compute_run
from repro.compute.stats import ComputeRun, IterationStats
from repro.datasets import load_dataset
from repro.errors import StructureError
from repro.graph import STRUCTURES, ExecutionContext
from repro.streaming import StreamConfig, StreamDriver
from tests.conftest import SMALL_MACHINE

needs_ckernels = pytest.mark.skipif(
    not ckernels.loaded(),
    reason="compiled compute kernels unavailable (no working C compiler)",
)

needs_price_kernel = pytest.mark.skipif(
    ckernels.get("price") is None,
    reason="compiled pricer unavailable or disabled (SAGA_BENCH_NO_CCOMPUTE)",
)


def make_run(pull_iterations, push_iterations=(), linear_scans=0):
    run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
    for pull in pull_iterations:
        run.iterations.append(IterationStats.make(pull=pull))
    for push in push_iterations:
        run.iterations.append(IterationStats.make(push=push))
    run.linear_scans = linear_scans
    return run


def price(run, structure, deg_in, deg_out, ctx, **kwargs):
    """Price ``run`` on one structure."""
    return price_compute_run(run, [structure], deg_in, deg_out, ctx, **kwargs)[
        structure
    ]


@pytest.fixture
def ctx():
    return ExecutionContext(machine=SMALL_MACHINE, threads=4)


DEGREES = np.array([2, 8, 30, 1, 0], dtype=np.int64)


class TestPricing:
    def test_unknown_structure(self, ctx):
        with pytest.raises(StructureError):
            price(make_run([[0]]), "CSR", DEGREES, DEGREES, ctx)

    def test_bare_string_rejected(self, ctx):
        with pytest.raises(TypeError):
            price_compute_run(make_run([[0]]), "AS", DEGREES, DEGREES, ctx)

    def test_empty_run_prices_only_scans(self, ctx):
        run = make_run([], linear_scans=2)
        pricing = price(run, "AS", DEGREES, DEGREES, ctx)
        expected = 2 * len(DEGREES) * ctx.cost_model.probe_element
        assert pricing.total_work_cycles == pytest.approx(expected)

    def test_latency_positive_for_work(self, ctx):
        run = make_run([[0, 1, 2]])
        pricing = price(run, "AS", DEGREES, DEGREES, ctx)
        assert pricing.latency_cycles > 0
        assert pricing.latency_seconds(SMALL_MACHINE) > 0

    def test_more_iterations_cost_more(self, ctx):
        one = price(make_run([[0, 1]]), "AS", DEGREES, DEGREES, ctx)
        two = price(make_run([[0, 1], [0, 1]]), "AS", DEGREES, DEGREES, ctx)
        assert two.latency_cycles > one.latency_cycles

    def test_dah_costs_more_than_as(self, ctx):
        run = make_run([[0, 1, 2, 3]])
        priced = price_compute_run(run, ["DAH", "AS"], DEGREES, DEGREES, ctx)
        assert priced["DAH"].latency_cycles > priced["AS"].latency_cycles

    def test_pr_degree_queries_hit_dah_hardest(self, ctx):
        """Section V-B: the PR normalization is extra painful on DAH."""
        run = make_run([[2]])  # degree-30 vertex
        plain = price_compute_run(run, STRUCTURES, DEGREES, DEGREES, ctx)
        pr = price_compute_run(
            run, STRUCTURES, DEGREES, DEGREES, ctx, neighbor_degree_query=True
        )
        ratios = {
            name: pr[name].latency_cycles / plain[name].latency_cycles
            for name in STRUCTURES
        }
        assert ratios["DAH"] > ratios["AS"]
        assert ratios["DAH"] > ratios["Stinger"]

    def test_push_side_priced(self, ctx):
        quiet = price(make_run([[0]]), "AS", DEGREES, DEGREES, ctx)
        noisy = price(
            make_run([[0]], push_iterations=[[2]]), "AS", DEGREES, DEGREES, ctx
        )
        assert noisy.latency_cycles > quiet.latency_cycles

    def test_threads_reduce_latency(self):
        run = make_run([list(range(5)) * 20])
        slow = price(
            run, "AS", DEGREES, DEGREES,
            ExecutionContext(machine=SMALL_MACHINE, threads=1),
        )
        fast = price(
            run, "AS", DEGREES, DEGREES,
            ExecutionContext(machine=SMALL_MACHINE, threads=8),
        )
        assert fast.latency_cycles < slow.latency_cycles

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_work_scales_with_degree(self, ctx, structure):
        low = price(make_run([[3]]), structure, DEGREES, DEGREES, ctx)
        high = price(make_run([[2]]), structure, DEGREES, DEGREES, ctx)
        assert high.total_work_cycles > low.total_work_cycles

    def test_one_entry_per_distinct_structure_in_order(self, ctx):
        run = make_run([[0, 1, 2]], push_iterations=[[3, 4]])
        priced = price_compute_run(
            run, ["DAH", "AS", "DAH", "Stinger"], DEGREES, DEGREES, ctx
        )
        assert list(priced) == ["DAH", "AS", "Stinger"]
        assert {name: p.structure for name, p in priced.items()} == {
            name: name for name in priced
        }
        assert all(p.iteration_count == 2 for p in priced.values())

    def test_contiguous_structures_share_one_price(self, ctx):
        run = make_run([[0, 1, 2]], push_iterations=[[2, 3]], linear_scans=1)
        priced = price_compute_run(run, ["AS", "AC", "BA"], DEGREES, DEGREES, ctx)
        assert len({p.latency_cycles for p in priced.values()}) == 1
        assert len({p.total_work_cycles for p in priced.values()}) == 1


class TestVectorScalarConsistency:
    """The vectorized cost formulas must match the live structures."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_consistency(self, name):
        from repro.graph import EdgeBatch, make_structure
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        structure = make_structure(name, 64)
        edges = [(0, v + 1) for v in range(30)] + [(1, 40), (2, 41), (2, 42)]
        structure.update(
            EdgeBatch.from_edges(edges), ExecutionContext(machine=SMALL_MACHINE)
        )
        degrees = np.array(
            [structure.out_degree(v) for v in range(4)], dtype=np.float64
        )
        vector = type(structure).vector_traversal_cost(degrees, DEFAULT_COST_MODEL)
        for v in range(4):
            assert structure.out_traversal_cost(v) == pytest.approx(vector[v]), (
                f"{name} vertex {v}"
            )


# ---------------------------------------------------------------------------
# Compiled pricer vs numpy reference
# ---------------------------------------------------------------------------

#: Degrees on the DAH threshold and on Stinger block edges.
EDGE_DEGREES = (0, 1, 15, 16, 17, 31, 32, 33, 48, 49)


@contextlib.contextmanager
def _numpy_pricing():
    """Route pricing through the numpy reference (compiled kernel off)."""
    real_get = ckernels.get
    with mock.patch.object(
        ckernels, "get", lambda name: None if name == "price" else real_get(name)
    ):
        yield


def _bits(priced):
    latency = np.array([p.latency_cycles for p in priced.values()])
    work = np.array([p.total_work_cycles for p in priced.values()])
    return latency.view(np.int64).tolist(), work.view(np.int64).tolist()


def _assert_compiled_matches_reference(run, structures, deg_in, deg_out, ctx, ndq):
    assert ckernels.get("price") is not None
    compiled = price_compute_run(
        run, structures, deg_in, deg_out, ctx, neighbor_degree_query=ndq
    )
    with _numpy_pricing():
        reference = price_compute_run(
            run, structures, deg_in, deg_out, ctx, neighbor_degree_query=ndq
        )
    assert list(compiled) == list(reference)
    assert _bits(compiled) == _bits(reference)


@st.composite
def priced_runs(draw):
    """A random run over degree arrays salted with boundary degrees."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_nodes = draw(st.integers(1, 60))
    salted = np.array(EDGE_DEGREES, dtype=np.int64)
    deg_in = np.where(
        rng.random(num_nodes) < 0.5,
        rng.choice(salted, num_nodes),
        rng.integers(0, 400, num_nodes),
    ).astype(np.int64)
    deg_out = rng.permutation(deg_in)
    shape = st.sampled_from(["both", "pull", "push", "empty"])
    length = st.one_of(st.integers(0, 20), st.integers(0, 300))
    run = ComputeRun(algorithm="X", model="INC", values=np.zeros(num_nodes))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(shape)
        pull = rng.integers(0, num_nodes, draw(length)) if kind in ("both", "pull") else ()
        push = rng.integers(0, num_nodes, draw(length)) if kind in ("both", "push") else ()
        run.iterations.append(
            IterationStats.make(
                pull=pull, push=push, pushes=draw(st.integers(0, 50))
            )
        )
    run.linear_scans = draw(st.integers(0, 3))
    return run, deg_in, deg_out


@needs_price_kernel
class TestCompiledMatchesReference:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        case=priced_runs(),
        structures=st.permutations(sorted(STRUCTURES)).flatmap(
            lambda names: st.integers(1, len(names)).map(lambda k: names[:k])
        ),
        threads=st.sampled_from([1, 3, 8, 12, 16]),
        ndq=st.booleans(),
    )
    def test_random_runs_bit_identical(self, case, structures, threads, ndq):
        run, deg_in, deg_out = case
        # SMALL_MACHINE has 8 physical cores: 12 and 16 take the SMT scale.
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=threads)
        _assert_compiled_matches_reference(run, structures, deg_in, deg_out, ctx, ndq)

    @pytest.mark.parametrize("ndq", [False, True])
    @pytest.mark.parametrize("threads", [4, 16])
    def test_every_segment_length_to_300(self, threads, ndq):
        """Crosses numpy's 8- and 128-element pairwise boundaries."""
        rng = np.random.default_rng(threads)
        degrees = rng.integers(0, 200, 500).astype(np.int64)
        run = ComputeRun(algorithm="X", model="FS", values=np.zeros(500))
        for n in range(301):
            split = int(rng.integers(0, n + 1))
            vertices = rng.integers(0, 500, n)
            run.iterations.append(
                IterationStats.make(pull=vertices[:split], push=vertices[split:], pushes=n)
            )
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=threads)
        _assert_compiled_matches_reference(run, STRUCTURES, degrees, degrees[::-1].copy(), ctx, ndq)

    def test_long_segments(self):
        rng = np.random.default_rng(5)
        degrees = rng.integers(0, 5000, 30_000).astype(np.int64)
        run = make_run(
            [rng.integers(0, 30_000, 10_001), rng.integers(0, 30_000, 65_537)],
            push_iterations=[rng.integers(0, 30_000, 24_000)],
            linear_scans=2,
        )
        run.iterations.append(
            IterationStats.make(
                pull=rng.integers(0, 30_000, 12_345), push=rng.integers(0, 30_000, 7_000)
            )
        )
        ctx = ExecutionContext(machine=SMALL_MACHINE)
        for ndq in (False, True):
            _assert_compiled_matches_reference(run, STRUCTURES, degrees, degrees, ctx, ndq)

    def test_boundary_degrees(self, ctx):
        degrees = np.array(EDGE_DEGREES, dtype=np.int64)
        everyone = np.arange(len(degrees))
        run = make_run([everyone], push_iterations=[everyone[::-1]], linear_scans=1)
        _assert_compiled_matches_reference(run, STRUCTURES, degrees, degrees, ctx, True)

    def test_empty_run_and_empty_iterations(self, ctx):
        empty = make_run([], linear_scans=0)
        _assert_compiled_matches_reference(empty, STRUCTURES, DEGREES, DEGREES, ctx, False)
        hollow = make_run([[], [1, 2], []], push_iterations=[[]], linear_scans=3)
        _assert_compiled_matches_reference(hollow, STRUCTURES, DEGREES, DEGREES, ctx, True)

    def test_non_contiguous_vertex_arrays(self, ctx):
        run = ComputeRun(algorithm="X", model="FS", values=np.zeros(5))
        run.iterations.append(
            IterationStats(
                pull_vertices=np.arange(5, dtype=np.int64)[::2],
                push_vertices=np.array([4, 1], dtype=np.int32),
                pushes=3,
            )
        )
        _assert_compiled_matches_reference(run, STRUCTURES, DEGREES, DEGREES, ctx, False)

    def test_out_of_range_vertex_raises(self, ctx):
        with pytest.raises(IndexError):
            price_compute_run(make_run([[0, 7]]), ["AS"], DEGREES, DEGREES, ctx)


@needs_price_kernel
class TestPairwiseSumGuard:
    """The kernel's sum must regroup exactly like ``np.sum``.

    A numpy release that changes its pairwise grouping fails here, by
    name, rather than only as a digest mismatch downstream.
    """

    @staticmethod
    def _check(kernels, values):
        expected = np.float64(np.sum(values)).view(np.int64)
        assert np.float64(kernels.pairwise_sum(values)).view(np.int64) == expected, (
            f"n={values.size}"
        )

    def test_every_length_to_1100(self):
        kernels = ckernels.get("price")
        rng = np.random.default_rng(0)
        for n in range(1101):
            # Mixed magnitudes make every regrouping visible in the bits.
            values = rng.random(n) * 10.0 ** rng.integers(-3, 9, n)
            self._check(kernels, values)

    def test_random_lengths_to_200k(self):
        kernels = ckernels.get("price")
        rng = np.random.default_rng(1)
        for n in [200_000, 8192, 8193, 131_072, *rng.integers(1101, 200_001, 12)]:
            values = rng.random(int(n)) * 10.0 ** rng.integers(-3, 9, int(n))
            self._check(kernels, values)


# ---------------------------------------------------------------------------
# The SAGA_BENCH_NO_CCOMPUTE=price gate and the build-failure warning
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _disable_env(setting):
    previous = os.environ.pop(ckernels.DISABLE_ENV, None)
    if setting is not None:
        os.environ[ckernels.DISABLE_ENV] = setting
    ckernels.reset()
    try:
        yield
    finally:
        os.environ.pop(ckernels.DISABLE_ENV, None)
        if previous is not None:
            os.environ[ckernels.DISABLE_ENV] = previous
        ckernels.reset()


def _both_gates(fn):
    """``fn()`` with the compiled pricer on, then gated off by name."""
    with _disable_env(None):
        compiled = fn()
    with _disable_env("price"):
        assert ckernels.get("price") is None
        reference = fn()
    return compiled, reference


@needs_ckernels
class TestPriceGate:
    def test_all_structures_stream_cycles_identical(self):
        dataset = load_dataset("Talk", seed=4, size_factor=0.05)
        config = StreamConfig(
            batch_size=600,
            machine=SMALL_MACHINE,
            structures=tuple(STRUCTURES),
        )

        def stream():
            return StreamDriver(config).run(dataset).compute_cycles

        compiled, reference = _both_gates(stream)
        assert compiled.shape == reference.shape
        assert np.array_equal(compiled.view(np.int64), reference.view(np.int64))

    def test_hardware_profile_counters_identical(self):
        profiler = HardwareProfiler(
            machine=SMALL_MACHINE,
            core_counts=(2, 8),
            algorithms=("BFS", "PR"),
            batch_size=600,
            trace_cap=5_000,
        )

        def cell():
            meta, arrays = profiler.profile_cell("Talk", "DAH", 0.05).to_payload()
            return meta, arrays

        (meta_c, arrays_c), (meta_r, arrays_r) = _both_gates(cell)
        assert meta_c == meta_r
        assert sorted(arrays_c) == sorted(arrays_r)
        for key in arrays_c:
            assert np.array_equal(arrays_c[key], arrays_r[key]), key


class TestBuildFailureWarning:
    @staticmethod
    def _broken_build(*args, **kwargs):
        raise OSError("cc: command not found")

    def test_warns_once_and_prices_like_the_reference(self, monkeypatch, ctx):
        run = make_run([[0, 1, 2], [4]], push_iterations=[[2, 3]], linear_scans=1)
        with _numpy_pricing():
            expected = price_compute_run(run, STRUCTURES, DEGREES, DEGREES, ctx)
        monkeypatch.delenv(ckernels.REQUIRE_ENV, raising=False)
        monkeypatch.delenv(ckernels.DISABLE_ENV, raising=False)
        monkeypatch.setattr(ckernels, "load_library", self._broken_build)
        ckernels.reset()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = price_compute_run(run, STRUCTURES, DEGREES, DEGREES, ctx)
                second = price_compute_run(run, STRUCTURES, DEGREES, DEGREES, ctx)
                assert not ckernels.loaded()
        finally:
            ckernels.reset()
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "cc: command not found" in str(runtime[0].message)
        assert _bits(first) == _bits(expected)
        assert _bits(second) == _bits(expected)

    def test_silent_when_disabled_on_purpose(self, monkeypatch, ctx):
        monkeypatch.delenv(ckernels.REQUIRE_ENV, raising=False)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        monkeypatch.setattr(ckernels, "load_library", self._broken_build)
        ckernels.reset()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                price(make_run([[0]]), "AS", DEGREES, DEGREES, ctx)
                assert not ckernels.loaded()
        finally:
            ckernels.reset()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
