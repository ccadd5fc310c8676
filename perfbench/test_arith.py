"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_arith.py
"""

import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import select_metrics  # noqa: E402
from serve_open import max_rate  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    due_latencies,
    percentile,
    self_times,
    summarize,
    tail_quantile,
    uncovered,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),  # the median has only 9.5 samples beyond it
        (20, 0.5),
        (99, 0.5),
        (100, 0.9),
        (999, 0.9),
        (1000, 0.99),
        (9999, 0.99),
        (10000, 0.999),
        (100000, 0.9999),
    ],
)
def test_tail_quantile_needs_ten_samples_beyond(count, expected):
    assert tail_quantile(count) == expected


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 101))
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["tail_q"] == 0.9
    assert summary["tail"] == pytest.approx(90.1)
    assert summarize([3.0])["tail"] is None


def test_percentile_interpolates_linearly():
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0.0) == 1
    assert percentile([1, 2, 3, 4, 5], 1.0) == 5
    assert percentile([10, 20], 0.25) == 12.5


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild: charged to the child only
        (6.0, 8.0, 0),  # second child
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_uncovered_is_the_unattributed_row():
    assert uncovered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert uncovered((0.0, 10.0), []) == 10.0
    assert uncovered((5.0, 6.0), [(0.0, 1.0)]) == 1.0


def test_due_time_latency_charges_generator_lateness():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 1.9]  # the second frame went out half a second late
    replied = [0.1, 1.6, 2.2]
    latency, late = due_latencies(due, sent, replied)
    assert latency == pytest.approx([0.1, 0.6, 0.2])
    assert late == pytest.approx([0.0, 0.5, 0.0])


def test_max_rate_interpolates_on_log_latency():
    points = [(100.0, 10.0), (200.0, 20.0), (300.0, 80.0)]
    # log-midpoint of 20 and 80 is 40
    assert max_rate(points, 40.0) == pytest.approx(250.0)
    assert max_rate(points, 100.0) == 300.0
    assert max_rate([(100.0, 10.0), (400.0, math.inf)], 50.0) == 100.0
    assert max_rate([(100.0, 200.0)], 50.0) == pytest.approx(25.0)


def test_tracer_records_absent_entry_points_and_restores():
    module = types.ModuleType("repro_fake_module")
    sys.modules["repro_fake_module"] = module

    class Thing:
        def work(self, value):
            return value * 2

    module.Thing = Thing
    tracer = Tracer()
    try:
        tracer.wrap("repro_fake_module:Thing.work", "fake.work")
        tracer.wrap("repro_fake_module:Thing.gone", "fake.gone")
        tracer.wrap("repro_no_such_module:f", "fake.f")
        assert Thing().work(3) == 6
    finally:
        tracer.restore()
        del sys.modules["repro_fake_module"]
    assert "work" in vars(Thing) and not hasattr(Thing.work, "__wrapped__")
    assert tracer.absent == ["repro_fake_module:Thing.gone", "repro_no_such_module:f"]
    assert [span.name for span in tracer.spans] == ["fake.work"]


def test_tracer_load_keeps_spans_inside_the_window():
    data = {
        "spans": [
            ["serve.score", 0.0, 2.0, -1],  # before the window
            ["serve.score", 5.0, 9.0, -1],
            ["serve.encode", 6.0, 7.0, 1],
            ["serve.encode", 9.5, 11.0, -1],  # runs past the window
        ],
        "absent": ["repro.x:y"],
    }
    tracer = Tracer.load(data, (4.0, 10.0))
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("serve.score", 5.0, 9.0, -1),
        ("serve.encode", 6.0, 7.0, 0),
    ]
    assert tracer.self_ms("serve.score") == pytest.approx(3000.0)
    assert tracer.roots() == [(5.0, 9.0)]
    assert tracer.absent == ["repro.x:y"]


def test_tracer_dump_round_trips():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    again = Tracer.load(tracer.dump(), (-math.inf, math.inf))
    assert [(s.name, s.start, s.end, s.parent) for s in again.spans] == [
        (s.name, s.start, s.end, s.parent) for s in tracer.spans
    ]


def test_select_metrics_zeroes_only_metrics_the_workload_does_not_measure():
    wanted = [
        {"name": "isa.interpret_ms", "unit": "ms"},
        {"name": "serve.encode_ms", "unit": "ms"},
        {"name": "sim.family_ms.tage", "unit": "ms"},
        {"name": "isa.interpret_msec", "unit": "ms"},  # misspelt: no map entry
    ]
    metrics, missing = select_metrics(wanted, {"isa.interpret_ms": 12.5}, "cold_trace")
    assert metrics == {
        "isa.interpret_ms": {"value": 12.5, "unit": "ms"},
        "serve.encode_ms": {"value": 0.0, "unit": "ms"},
        "sim.family_ms.tage": {"value": 0.0, "unit": "ms"},
    }
    assert missing == ["isa.interpret_msec"]
    # a metric the workload does measure must be there
    _metrics, missing = select_metrics(wanted[:1], {}, "warm_sweep")
    assert missing == ["isa.interpret_ms"]


def test_select_metrics_end_to_end_has_no_defaults():
    wanted = [{"name": "setup_s", "unit": "s"}, {"name": "op_p50_ms", "unit": "ms"}]
    metrics, missing = select_metrics(wanted, {"setup_s": 1.5}, None)
    assert metrics == {"setup_s": {"value": 1.5, "unit": "s"}}
    assert missing == ["op_p50_ms"]
