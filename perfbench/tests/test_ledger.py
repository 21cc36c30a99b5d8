import json
from pathlib import Path

import pytest

from perfbench import ledger as L

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # a[0..10] { b[1..4]  c[5..9] { b[6..7] } }
    ledger = L.Ledger(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    ledger.enter("a")
    ledger.enter("b")
    assert ledger.exit() == 3
    ledger.enter("c")
    ledger.enter("b")
    assert ledger.exit() == 1
    assert ledger.exit() == 4
    assert ledger.exit() == 10
    assert ledger.self_times["a"] == [10 - 3 - 4]
    assert ledger.self_times["b"] == [3, 1]
    assert ledger.self_times["c"] == [4 - 1]
    assert ledger.calls("b") == 2
    # self times partition the root span exactly
    assert ledger.attributed_s() == 10


@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert L.tail_percentile(n) == pct


def test_summary_reports_median_tail_and_count():
    s = L.summary(range(1, 201))
    assert s["n"] == 200
    assert s["p50"] == 100.5
    assert s["tail_pct"] == 95.0
    assert sum(1 for v in range(1, 201) if v > s["tail"]) == 10
    few = L.summary([3.0, 1.0, 2.0])
    assert (few["p50"], few["tail"], few["tail_pct"]) == (2.0, 2.0, 0.0)


def test_install_wraps_every_binding_and_undo_restores():
    import repro.ir as ir
    import repro.ir.validate as v
    from repro.runtime.cache import CompileCache

    original_fn = v.validate_program
    original_method = CompileCache.get_or_compile
    ledger = L.Ledger()
    undo = L.install(ledger)
    try:
        assert v.validate_program is not original_fn
        assert ir.validate_program is v.validate_program
        cache = CompileCache()
        assert cache.get_or_compile(("k",), lambda: 1) == 1
        assert cache.get_or_compile(("k",), lambda: 2) == 1
    finally:
        undo()
    assert v.validate_program is original_fn and ir.validate_program is original_fn
    assert CompileCache.get_or_compile is original_method
    assert ledger.calls("runtime.cache") == 2
    assert ledger.counters["runtime.cache.misses"] == 1
    assert ledger.counters["runtime.cache.hits"] == 1


def test_benchmark_json_declares_exactly_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(L.layer_metrics(L.Ledger(), 0.0)) | {"host.trace_overhead_s"}
    for route in ("sac", "gaspard"):
        produced |= {f"{route}.model_us", f"{route}.model.fps",
                     f"{route}.model.transfer_share", f"{route}.model.compute_occupancy"}
    declared = [m["name"] for m in spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert set(declared) == produced
    for layer in L.LAYERS:
        assert {f"{layer.name}.calls", f"{layer.name}.self_s"} <= set(declared)
