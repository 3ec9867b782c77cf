"""Tests for the benchmark's own helpers. Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, covered_length, self_times  # noqa: E402
from stats import hash_mismatches, median, percentile, sha256_file  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, golden  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_once():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [3.5, 6];
    # b overlaps a, so root's children cover [1, 6]
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 3.5, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.5])


def test_self_time_clips_children_to_the_parent():
    spans = [Span("p", 0.0, 2.0), Span("c", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_covered_length_merges_and_ignores_empty_intervals():
    assert covered_length([(0, 1), (0.5, 2), (3, 3), (4, 5)]) == pytest.approx(3.0)
    assert covered_length([]) == 0.0


def test_tracer_nests_spans_and_shares_replication_ids():
    class Target:
        @staticmethod
        def start():
            return "population"

        @staticmethod
        def step():
            return "pool"

        @staticmethod
        def outer(target):
            target.start()
            target.step()
            target.start()
            target.step()

    tracer = Tracer(clock=FakeClock(float(t) for t in range(100)))
    original = Target.start
    tracer.wrap(Target, "outer", "outer", ends_replication=True)
    tracer.wrap(Target, "start", "start", count=lambda a, k, r: {"seen": r}, starts_replication=True)
    tracer.wrap(Target, "step", "step")
    Target.outer(Target)
    tracer.restore()
    assert Target.start is original

    named = [(s.name, s.replication) for s in tracer.spans if s.name != "trace.count"]
    assert named == [("outer", None), ("start", 0), ("step", 0), ("start", 1), ("step", 1)]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.spans[1].attrs == {"seen": "population"}
    # counting is its own span, so it is never part of a layer's self time
    counts = [s for s in tracer.spans if s.name == "trace.count"]
    assert len(counts) == 2 and all(s.parent == 0 for s in counts)


def test_percentile_reports_sample_count():
    assert median([3.0, 1.0, 2.0]) == (2.0, 3)
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == (2.5, 4)
    value, count = percentile(range(1, 101), 99)
    assert count == 100 and value == pytest.approx(99.01)
    assert percentile([], 99) == (0.0, 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_hash_check_fails_on_a_one_byte_change(tmp_path):
    artifact = tmp_path / "summary.json"
    artifact.write_bytes(b'{"sensitivity": 0.9}\n')
    expected = {"summary.json": sha256_file(artifact)}
    assert hash_mismatches({"summary.json": sha256_file(artifact)}, expected) == []
    artifact.write_bytes(b'{"sensitivity": 0.8}\n')
    assert hash_mismatches({"summary.json": sha256_file(artifact)}, expected) == ["summary.json"]
    assert hash_mismatches({}, expected) == ["summary.json"]


def test_per_layer_metrics_follow_the_span_tree():
    spans = [
        Span("theory.delta_prime", 0.0, 10.0, attrs={"kept": 70}),
        Span("viral.sample", 1.0, 2.0, parent=0, attrs={"draws": 100}),
        Span("pcr.binomial_tail", 2.0, 5.0, parent=0, attrs={"elems": 100, "betainc_elems": 80, "sure_one": 60}),
        Span("viral.sample", 11.0, 12.0, attrs={"draws": 1000}),
    ]
    metrics = layers.per_layer_metrics(spans, iterations=1, workers=2, overhead_ratio=0.05)
    assert list(metrics) == list(layers.PER_LAYER_UNITS)
    assert metrics["theory.delta_prime.self_s"] == (pytest.approx(6.0), 1)
    assert metrics["theory.delta_prime.accept_ratio"][0] == pytest.approx(0.7)
    assert metrics["viral.sample.draws"][0] == 1100
    assert metrics["pcr.binomial_tail.sure_one_ratio"][0] == pytest.approx(0.75)
    assert metrics["pooling.correlated.ms_p50"] == (0.0, 0)
    assert metrics["runner.workers"][0] == 2


def test_benchmark_json_names_the_metrics_the_code_prints():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_every_workload_has_recorded_default_seed_hashes():
    recorded = golden()
    assert DEFAULT_SEED == 0
    for name, workload in WORKLOADS.items():
        assert set(recorded[name]) == set(workload.artifacts)
