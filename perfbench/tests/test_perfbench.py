"""Tests of the benchmark's own code: spans, the output gate, isolation.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math

import numpy as np
import pytest

from perfbench import gate, run
from perfbench.spans import (
    Instrumentation,
    SpanRecorder,
    Target,
    defining_classes,
    is_wrapped,
)
from perfbench.workloads import (
    WORKLOADS,
    BatchClock,
    StreamWorkload,
    _rmat,
    layer_targets,
)


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Base:
    def work(self, inner=None):
        return inner() if inner else 1


class Child(Base):
    def work(self, inner=None):
        return super().work(inner)


TINY = StreamWorkload(
    name="tiny",
    generate=_rmat(10, 4_000),
    config=dict(
        batch_size=400,
        structures=("AS", "Stinger"),
        algorithms=("PR", "CC"),
        models=("FS", "INC"),
        churn_fraction=0.3,
    ),
)
TINY_BATCHES = 10


def _prepared(seed=3):
    clock = BatchClock()
    prepared = TINY.build(TINY.generate(seed), seed, clock)
    return clock, prepared


def test_nested_wrappers_do_not_double_count():
    recorder = SpanRecorder(clock=FakeClock())
    helper = type("Helper", (), {"step": lambda self: 2})
    targets = [Target("outer", cls, "work") for cls in defining_classes([Child], "work")]
    targets.append(Target("inner", helper, "step"))
    assert {t.owner for t in targets} == {Base, Child, helper}
    with Instrumentation(recorder, targets):
        assert Child().work(inner=helper().step) == 2
    # Child.work -> Base.work is one span, not two.
    assert recorder.calls == {"outer": 1, "inner": 1}
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent == -1
    # outer: clock 1 -> 4, inner: 2 -> 3.
    assert recorder.inclusive_times() == {"outer": 3.0, "inner": 1.0}
    assert recorder.self_times() == {"outer": 2.0, "inner": 1.0}
    assert sum(recorder.self_times().values()) == outer.duration


def test_wrappers_restore_originals_even_on_error():
    original = vars(Base)["work"]
    recorder = SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with Instrumentation(recorder, [Target("outer", Base, "work")]):
            assert is_wrapped(Base, "work")
            Base().work(inner=lambda: 1 / 0)
    assert vars(Base)["work"] is original
    assert not is_wrapped(Base, "work")
    assert recorder.spans[0].end > 0.0


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))
    value, percentile = run.tail(values)
    assert value == 30 and percentile == 75.0
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_corrupted_digest_raises_failed_frac():
    digests = ["a", "b", "c", "d"]
    clean = gate.check_passes([digests, digests], digests)
    assert clean.correct and clean.failed_frac == 0.0
    assert clean.digest_status == "checked"
    corrupted = ["a", "x", "c", "d"]
    verdict = gate.check_passes([digests, digests], corrupted)
    assert not verdict.correct
    assert verdict.failed == 2 and verdict.failed_frac == 0.25


def test_corrupted_committed_digest_fails_a_run(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "DIGEST_FILE", tmp_path / "digests.json")
    recorded, _ = run.run_workload(TINY, seed=3, seconds=0, trace=0, record=True)
    digests = gate.load_committed()["tiny"]["3"]
    assert recorded["correct"] and len(digests) == TINY_BATCHES
    checked, lines = run.run_workload(TINY, seed=3, seconds=0, trace=0)
    assert checked["correct"] and "digests checked" in lines[0]
    digests[5] = "0" * len(digests[5])
    gate.DIGEST_FILE.write_text(json.dumps({"tiny": {"3": digests}}))
    corrupted, lines = run.run_workload(TINY, seed=3, seconds=0, trace=0)
    passes = corrupted["attempted"] // TINY_BATCHES
    assert corrupted["failed"] == passes and not corrupted["correct"]
    assert "failed_frac 0.1000" in lines[0]


def test_seed_without_digest_is_unchecked_not_passing():
    verdict = gate.check_passes([["a", "b"], ["a", "b"]], None)
    assert verdict.digest_status == "unchecked"
    # An unchecked seed still fails on a nondeterministic pass.
    flaky = gate.check_passes([["a", "b"], ["a", "z"]], None)
    assert flaky.failed == 1 and not flaky.correct


def test_edge_count_mismatch_fails_the_unit():
    verdict = gate.check_passes([["a", "b"]], ["a", "b"], [[True, False]])
    assert verdict.failed == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_stream(name):
    workload = WORKLOADS[name]

    def stream(seed):
        generated = workload.generate(seed)
        datasets = generated if isinstance(generated, list) else [generated]
        return np.concatenate([np.stack([d.edges.src, d.edges.dst]) for d in datasets], 1)

    first = stream(1)
    assert np.array_equal(first, stream(1))
    other = stream(2)
    assert first.shape != other.shape or not np.array_equal(first, other)


def test_independent_counts_match_the_program():
    clock, prepared = _prepared()
    assert TINY.batch_count(prepared) == TINY_BATCHES
    expected = TINY.expected(prepared)
    result = TINY.run_pass(prepared, clock, expected)
    assert all(result.counts_ok) and len(result.counts_ok) == TINY_BATCHES
    inserted, live = expected
    wrong = (inserted, live + np.eye(1, len(live), 4, dtype=np.int64)[0])
    bad = TINY.run_pass(prepared, clock, wrong)
    assert bad.counts_ok.count(False) == 1 and not bad.counts_ok[4]
    assert bad.digests == result.digests


def test_self_times_and_driver_self_sum_to_traced_wall():
    clock, prepared = _prepared()
    expected = TINY.expected(prepared)
    untraced = TINY.run_pass(prepared, clock, expected)
    recorder = SpanRecorder()
    clock.recorder = recorder
    with Instrumentation(recorder, layer_targets(hardware=False)):
        traced = TINY.run_pass(prepared, clock, expected)
    assert traced.digests == untraced.digests
    assert {span.batch for span in recorder.spans} == set(range(TINY_BATCHES))
    values, _ = run.layer_metrics(recorder, [traced], [untraced], [0.5])
    total = sum(values[name] for name in run.WALL_PARTITION)
    assert math.isclose(total, traced.wall, rel_tol=1e-9)
    calls = TINY_BATCHES * len(TINY.config["structures"])
    assert values["graph.update_calls"] == values["graph.delete_calls"] == calls
    assert values["algorithms.fs_s"] > 0 and values["algorithms.inc_delete_s"] > 0
    assert 0 < values["graph.insert_yield"] <= 1
    assert set(values) == set(run.PER_LAYER)


def test_wrappers_are_gone_before_untraced_timing():
    targets = layer_targets(hardware=False) + layer_targets(hardware=True)
    seen = []

    class Probe(StreamWorkload):
        def run_pass(self, prepared, clock, expected):
            seen.append(any(is_wrapped(t.owner, t.attr) for t in targets))
            return super().run_pass(prepared, clock, expected)

    probe = Probe(**{k: getattr(TINY, k) for k in ("name", "generate", "config")})
    result, lines = run.run_workload(probe, seed=3, seconds=0, trace=1)
    assert seen == [False, True]
    assert not any(is_wrapped(t.owner, t.attr) for t in targets)
    assert result["correct"] and set(result["metrics"]) == set(run.PER_LAYER)

    seen.clear()
    result, _ = run.run_workload(probe, seed=3, seconds=0, trace=0)
    assert seen == [False, False]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"][1:] == ["perfbench/run.py"]
