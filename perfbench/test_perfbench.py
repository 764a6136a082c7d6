"""Tests for the benchmark's own helpers: spans, percentiles, verdicts."""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
from spans import Span, Tracer, patched, self_times, totals_by_name  # noqa: E402


def _span(name, start, end, parent, op=1):
    sp = Span(name, start, parent, op)
    sp.end = end
    return sp


def test_self_time_subtracts_children():
    spans = [_span("root", 0.0, 10.0, None),
             _span("a", 1.0, 3.0, 0),
             _span("b", 4.0, 8.0, 0),
             _span("b.inner", 5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # a generator-driven child can overlap a sibling; the union is covered
    spans = [_span("root", 0.0, 10.0, None),
             _span("pass", 2.0, 6.0, 0),
             _span("probe", 5.0, 7.0, 0),
             _span("late", 9.0, 12.0, 0)]       # clipped at the parent's end
    assert self_times(spans)[0] == 10.0 - (5.0 + 1.0)


def test_self_time_of_a_slice_uses_absolute_parents():
    spans = [_span("old", 0.0, 1.0, None, op=0),
             _span("root", 2.0, 5.0, None),
             _span("child", 3.0, 4.0, 1)]
    assert self_times(spans[1:], base=1) == [2.0, 1.0]
    table = totals_by_name(spans[1:], 1, op=1)
    assert table["root"] == {"calls": 1, "wall_s": 3.0, "self_s": 2.0}
    assert "old" not in table


def test_tracer_nests_and_closes_generator_spans_out_of_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    gen_span = tracer.begin("pass")
    probe = tracer.begin("probe")
    tracer.end(gen_span)                  # the pass ends while probe is open
    tracer.end(probe)
    tracer.end(outer)
    assert [sp.parent for sp in tracer.spans] == [None, 0, 1]
    assert all(sp.end is not None for sp in tracer.spans)
    assert tracer._open == []


def test_count_only_tracer_records_no_spans():
    tracer = Tracer(record=False)
    traced = tracer.wrap(lambda x: x + 1, "inc",
                         note=lambda t, a, k, r: t.count("calls"))
    assert traced(1) == 2
    assert tracer.spans == []
    assert tracer.op_counts(0) == {"calls": 1}


class _Owner:
    @classmethod
    def make(cls):
        return cls.__name__

    def method(self):
        return "orig"


def test_patched_restores_methods_and_classmethods():
    tracer = Tracer()
    targets = [
        (_Owner, "method", lambda fn: tracer.wrap(fn, "method")),
        (_Owner, "make", lambda cm: classmethod(tracer.wrap(cm.__func__, "make"))),
    ]
    before = dict(vars(_Owner))
    with patched(targets):
        assert _Owner().method() == "orig"
        assert _Owner.make() == "_Owner"
    assert [sp.name for sp in tracer.spans] == ["method", "make"]
    assert vars(_Owner)["method"] is before["method"]
    assert vars(_Owner)["make"] is before["make"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert summary.tail_percentile(19) is None
    assert summary.tail_percentile(20) == 50.0
    assert summary.tail_percentile(99) == 75.0
    assert summary.tail_percentile(100) == 90.0
    assert summary.tail_percentile(200) == 95.0
    assert summary.tail_percentile(1000) == 99.0
    assert summary.tail_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert summary.percentile(values, 90) == 90
    assert summary.percentile(values, 50) == 50
    assert summary.percentile([3.0], 99) == 3.0


def test_spread_is_quartile_distance_over_median():
    assert summary.spread([1.0, 1.0, 1.0]) == 0.0
    assert math.isinf(summary.spread([2.0]))
    values = [9.0, 10.0, 10.0, 11.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert summary.spread(values) == (q3 - q1) / 10.0


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert summary.verdict(steady, [10.2] * 6, 0.1, "lower") == summary.WITHIN
    assert summary.verdict(steady, [12.0] * 6, 0.1, "lower") == summary.REGRESSED
    assert summary.verdict(steady, [8.0] * 6, 0.1, "lower") == summary.IMPROVED
    # higher is better: the same drop is a regression
    assert summary.verdict(steady, [8.0] * 6, 0.1, "higher") == summary.REGRESSED
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0, 20.0]
    assert summary.verdict(noisy, [10.0] * 6, 0.1, "lower") == summary.UNRESOLVED
    assert summary.verdict(noisy, [1.0] * 6, 0.1, "lower") == summary.IMPROVED
    assert summary.verdict(noisy, [40.0] * 6, 0.1, "lower") == summary.REGRESSED
    # a gain inside the parent's own spread, or won too rarely, is no gain
    assert summary.verdict(steady, [9.95] * 6, 0.1, "lower") == summary.WITHIN
    assert summary.verdict([3.0] * 4, [3.0] * 4, 0.1, "lower") == summary.WITHIN


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert e2e == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == layers.PER_LAYER
    from workloads import WORKLOADS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
