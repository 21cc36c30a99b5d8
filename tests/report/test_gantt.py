"""Tests for the Gantt renderer."""

from repro.report import render_gantt
from repro.runtime.schedule import PipelineSchedule, ScheduledNode


def _node(name, engine, start, end):
    return ScheduledNode(
        id=0, run=0, op_index=0, name=name, engine=engine,
        start_us=start, end_us=end,
    )


def result(ops, serial=100.0):
    return PipelineSchedule(
        program="hand-built", runs=1, depth=1, serialize=False,
        serial_us=serial, nodes=tuple(ops),
    )


def test_empty_schedule():
    assert "(empty schedule)" in render_gantt(result([]))


def test_engines_rendered_with_busy_totals():
    ops = [
        _node("a", "h2d", 0.0, 40.0),
        _node("k", "compute", 40.0, 100.0),
        _node("b", "d2h", 100.0, 110.0),
    ]
    text = render_gantt(result(ops, serial=110.0), width=22)
    assert "h2d" in text and "compute" in text and "d2h" in text
    assert "40 us busy" in text
    assert "60 us busy" in text
    assert "1.00x" in text


def test_idle_engines_omitted():
    ops = [_node("k", "compute", 0.0, 50.0)]
    text = render_gantt(result(ops, serial=50.0))
    assert "h2d" not in text


def test_bars_reflect_intervals():
    ops = [
        _node("k1", "compute", 0.0, 50.0),
        _node("k2", "compute", 50.0, 100.0),
        _node("t", "h2d", 0.0, 50.0),
    ]
    text = render_gantt(result(ops, serial=150.0), width=10)
    lines = {l.split("|")[0].strip(): l for l in text.splitlines() if "|" in l}
    compute_bar = lines["compute"].split("|")[1]
    h2d_bar = lines["h2d"].split("|")[1]
    assert compute_bar.count("#") == 10  # busy throughout
    assert h2d_bar.count("#") == 5  # first half only
