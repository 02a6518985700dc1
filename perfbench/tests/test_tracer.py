import json

import numpy as np
import pytest

import repro.graph.peripheral as peripheral
import repro.graph.traversal as traversal
from repro.collections.meshes import grid2d_pattern
from repro.orderings.registry import ORDERING_ALGORITHMS
from suite_child import layer_metrics
from tracer import Span, Target, Tracer, layer_totals, self_times, write_chrome


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 5.0, 9.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 4.0, parent=0),
             Span("y", 3.0, 6.0, parent=0), Span("z", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_sum_calls_time_and_counts():
    spans = [Span("f", 0.0, 2.0, counts={"iterations": 5}), Span("g", 0.5, 1.0, parent=0),
             Span("f", 3.0, 4.0, counts={"iterations": 7})]
    totals = layer_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["self_s"] == pytest.approx(2.5)
    assert totals["f"]["total_s"] == pytest.approx(3.0)
    assert totals["f"]["iterations"] == 12


def test_wrapper_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: 1, "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer", cell=lambda: "cell-1")
    assert outer() == 2
    assert [span.name for span in tracer.spans] == ["outer", "inner", "inner"]
    assert [span.parent for span in tracer.spans] == [None, 0, 0]
    assert all(span.cell == "cell-1" for span in tracer.spans)
    assert self_times(tracer.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_missing_functions_are_absent_not_fatal():
    tracer = Tracer()
    tracer.install([
        Target("gone.module", "repro.no_such_module", "f"),
        Target("gone.function", "repro.graph.traversal", "no_such_function"),
        Target("gone.registry", "repro.orderings.registry", "ORDERING_ALGORITHMS", key="nope"),
    ])
    tracer.uninstall()
    assert tracer.absent == ["gone.module", "gone.function", "gone.registry"]


def test_absent_layer_reads_zero_and_is_listed():
    tracer = Tracer()
    tracer.absent = ["graph.pseudo_diameter"]
    tracer.spans = [Span("graph.breadth_first_levels", 0.0, 1.0, cell="X/rcm")]
    values, absent, _details = layer_metrics(tracer, 1.0, 0.0, {"wall": 1.0, "cell_sum": 1.0})
    assert absent == ["graph.pseudo_diameter.s"]
    assert values["graph.pseudo_diameter.s"] == 0
    assert values["graph.breadth_first_levels.calls"] == 1
    assert values["graph.breadth_first_levels.rcm_cell_max_calls"] == 1


def test_install_patches_every_reference_and_uninstall_restores(tmp_path):
    original_bfs = traversal.breadth_first_levels
    original_rcm = ORDERING_ALGORITHMS["rcm"]
    tracer = Tracer()
    tracer.install([
        Target("graph.breadth_first_levels", "repro.graph.traversal", "breadth_first_levels"),
        Target("orderings.rcm", "repro.orderings.registry", "ORDERING_ALGORITHMS", key="rcm"),
    ])
    try:
        assert peripheral.breadth_first_levels is not original_bfs
        ordering = ORDERING_ALGORITHMS["rcm"](grid2d_pattern(6, 5))
    finally:
        tracer.uninstall()
    assert traversal.breadth_first_levels is original_bfs
    assert peripheral.breadth_first_levels is original_bfs
    assert ORDERING_ALGORITHMS["rcm"] is original_rcm
    assert np.array_equal(np.sort(ordering.perm), np.arange(30))
    names = [span.name for span in tracer.spans]
    assert names[0] == "orderings.rcm" and names.count("graph.breadth_first_levels") >= 2
    assert all(span.parent == 0 for span in tracer.spans[1:])

    path = tmp_path / "trace.json"
    write_chrome(path, tracer.spans, {"seed": 1})
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == len(names)
    assert {event["ph"] for event in document["traceEvents"]} == {"X"}
    assert document["otherData"] == {"seed": 1}
