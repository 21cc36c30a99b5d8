"""Per-layer wall-time ledger, recorded from outside the program.

The program itself is not modified: :func:`install` wraps the public
entry points of each layer (the :data:`LAYERS` table) in place, and every
wrapped call becomes one span on a :class:`Ledger` stack.  A layer's
*self* time is a span's duration minus the part of it covered by spans
nested inside, so ``sum(self)`` over all layers never exceeds the wall
time of the workload; the difference is reported as
``host.unattributed_s`` and shows a layer left unwrapped.

Timings are summarised as a median plus the highest percentile of
:data:`TAIL_LADDER` that still has at least ten samples beyond it
(:func:`tail_percentile`), together with the sample count.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Layer",
    "LAYERS",
    "TAIL_LADDER",
    "Ledger",
    "install",
    "layer_metrics",
    "preload",
    "summary",
    "tail_percentile",
]

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Layer:
    """One layer of the system and the public entry points that time it.

    ``entries`` are ``"module:qualname"`` references; ``predicts`` is the
    end-to-end metric (and workload) a change to this layer should move,
    written down before any change is measured.
    """

    name: str
    entries: tuple[str, ...]
    predicts: str


LAYERS: tuple[Layer, ...] = (
    Layer("sac.frontend",
          ("repro.sac.parser:parse", "repro.sac.semantics:check_program",
           "repro.sac.typecheck:typecheck_program"),
          "setup_s on every workload; sac.ops_per_s on tune-cif"),
    Layer("sac.opt", ("repro.sac.opt.pipeline:optimize_program",),
          "sac.ops_per_s on tune-cif (dominant); nothing on video-hd after set-up"),
    Layer("sac.backend", ("repro.sac.backend.driver:compile_function",),
          "sac.ops_per_s on tune-cif; setup_s"),
    Layer("arrayol",
          ("repro.arrayol.transform.chain:TransformationChain.run",
           "repro.arrayol.validate:validate_model"),
          "setup_s on video-hd; gaspard.ops_per_s on tune-cif"),
    Layer("opt",
          ("repro.opt.pipeline:optimize_program", "repro.opt.pipeline:certify_program"),
          "*.ops_per_s on tune-cif"),
    Layer("analysis",
          ("repro.analysis.regions:kernel_access_boxes",
           "repro.analysis.regions:launch_access_boxes"),
          "*.ops_per_s on tune-cif; setup_s"),
    Layer("ir.validate", ("repro.ir.validate:validate_program",),
          "setup_s; *.ops_per_s on tune-cif"),
    Layer("gpu.cost", ("repro.gpu.executor:GPUExecutor.kernel_cost_inputs",),
          "setup_s on video-hd (most of it); nothing on serve-cif after set-up"),
    Layer("gpu.exec", ("repro.gpu.executor:GPUExecutor.run",),
          "*.ops_per_s on video-hd and serve-cif"),
    Layer("ir.eval",
          ("repro.ir.evalvec:evaluate_kernel", "repro.ir.fused:evaluate_fused"),
          "*.ops_per_s on video-hd and serve-cif; nothing on tune-cif"),
    Layer("runtime.cache", ("repro.runtime.cache:CompileCache.get_or_compile",),
          "setup_s; *.ops_per_s on tune-cif"),
    Layer("runtime.schedule", ("repro.runtime.schedule:build_schedule",),
          "*.ops_per_s on tune-cif; modelled numbers must not move"),
    Layer("runtime.pipeline", ("repro.runtime.pipeline:FramePipeline.run",),
          "*.ops_per_s on video-hd"),
    Layer("serve", ("repro.serve.loadgen:run_open_loop",),
          "*.ops_per_s on serve-cif"),
    Layer("tune", ("repro.tune.search:tune",),
          "*.ops_per_s on tune-cif"),
)

#: modules whose bindings of an entry point stay unwrapped: the cost
#: probe (``repro.ir.metrics``) evaluates kernels to observe their
#: accesses, and that evaluation is part of ``gpu.cost``, not ``ir.eval``
_UNWRAPPED_IN = frozenset({"repro.ir.metrics"})


def tail_percentile(n: int) -> float | None:
    """Highest :data:`TAIL_LADDER` percentile with >= 10 of ``n`` samples
    beyond it, or ``None`` when even the median has fewer."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return None


def summary(samples) -> dict[str, float]:
    """Median, tail (see :func:`tail_percentile`) and sample count.

    Without a qualifying tail percentile the tail repeats the median and
    ``tail_pct`` is 0.
    """
    values = list(samples)
    n = len(values)
    if not n:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    p50 = statistics.median(values)
    pct = tail_percentile(n)
    tail = p50 if pct is None else float(np.percentile(values, pct))
    return {"p50": p50, "tail": tail, "tail_pct": pct or 0.0, "n": n}


class Ledger:
    """A stack of open spans plus per-layer totals.

    ``clock`` is injectable so the self-time arithmetic can be tested on
    a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [layer, start, covered-by-children]
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_times[layer].append(duration - covered)
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def calls(self, layer: str) -> int:
        return len(self.self_times.get(layer, ()))

    def self_s(self, layer: str) -> float:
        return float(sum(self.self_times.get(layer, ())))

    def attributed_s(self) -> float:
        return float(sum(sum(v) for v in self.self_times.values()))


# -- installing the wrappers ---------------------------------------------------


def _resolve(ref: str):
    module_name, qualname = ref.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _hook(ledger: Ledger, layer: str):
    """(before, after) callbacks that record a layer's extra counters."""
    c = ledger.counters
    if layer == "gpu.cost":
        def before(args, kwargs):
            return len(args[0]._kernel_cache)

        def after(args, kwargs, result, state, duration):
            c["gpu.cost.misses"] += len(args[0]._kernel_cache) > state
        return before, after
    if layer == "gpu.exec":
        def after(args, kwargs, result, state, duration):
            functional = kwargs.get("functional", args[3] if len(args) > 3 else True)
            c["gpu.exec.functional_runs"] += bool(functional)
            ledger.samples["gpu.exec.run_ms"].append(duration * 1e3)
        return None, after
    if layer == "runtime.cache":
        def before(args, kwargs):
            return args[0].stats.misses

        def after(args, kwargs, result, state, duration):
            miss = args[0].stats.misses > state
            c["runtime.cache.misses"] += miss
            c["runtime.cache.hits"] += not miss
        return before, after
    if layer == "runtime.schedule":
        def after(args, kwargs, result, state, duration):
            c["runtime.schedule.nodes"] += len(result.nodes)
        return None, after
    if layer == "serve":
        def after(args, kwargs, result, state, duration):
            report = result[1]
            c["serve.batches"] += report.batches
            c["serve.batched_requests"] += report.batch_size_mean * report.batches
            c["serve.rejected"] += report.rejected
        return None, after
    if layer == "tune":
        def after(args, kwargs, result, state, duration):
            c["tune.candidates"] += result.candidates
            c["tune.evaluations"] += result.evaluations
            c["tune.rejected"] += result.rejected
        return None, after
    return None, None


def _wrap(ledger: Ledger, layer: str, fn):
    before, after = _hook(ledger, layer)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        state = before(args, kwargs) if before else None
        ledger.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = ledger.exit()
        if after:
            after(args, kwargs, result, state, duration)
        return result

    return timed


def preload() -> None:
    """Import the module of every entry point (what :func:`install` does
    first), so an untraced run can pay the same imports up front."""
    for layer in LAYERS:
        for ref in layer.entries:
            _resolve(ref)


def install(ledger: Ledger) -> Callable[[], None]:
    """Wrap every entry point of :data:`LAYERS`; returns the undo callable.

    A method is replaced on its class.  A function is replaced in every
    loaded ``repro`` module that binds it (``from x import f`` copies the
    reference), so import the modules that use it first.
    """
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        for ref in layer.entries:
            owner, attr = _resolve(ref)
            original = getattr(owner, attr)
            wrapped = _wrap(ledger, layer.name, original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or name in _UNWRAPPED_IN:
                    continue
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(ledger: Ledger, wall_s: float) -> dict[str, float]:
    """Every per-layer figure of one traced workload, by metric name."""
    out: dict[str, float] = {}
    c = ledger.counters
    for layer in LAYERS:
        name = layer.name
        out[f"{name}.calls"] = ledger.calls(name)
        out[f"{name}.self_s"] = ledger.self_s(name)
        s = summary(t * 1e3 for t in ledger.self_times.get(name, ()))
        out[f"{name}.self_ms.p50"] = s["p50"]
        out[f"{name}.self_ms.tail"] = s["tail"]
        out[f"{name}.self_ms.tail_pct"] = s["tail_pct"]
    probes = ledger.calls("gpu.cost")
    out["gpu.cost.misses"] = c["gpu.cost.misses"]
    out["gpu.cost.hit_ratio"] = (
        (probes - c["gpu.cost.misses"]) / probes if probes else 0.0
    )
    out["gpu.exec.functional_runs"] = c["gpu.exec.functional_runs"]
    runs = summary(ledger.samples.get("gpu.exec.run_ms", ()))
    for key in ("p50", "tail", "tail_pct", "n"):
        out[f"gpu.exec.run_ms.{key}"] = runs[key]
    lookups = c["runtime.cache.hits"] + c["runtime.cache.misses"]
    out["runtime.cache.hits"] = c["runtime.cache.hits"]
    out["runtime.cache.misses"] = c["runtime.cache.misses"]
    out["runtime.cache.hit_ratio"] = c["runtime.cache.hits"] / lookups if lookups else 0.0
    out["runtime.schedule.nodes"] = c["runtime.schedule.nodes"]
    out["serve.batches"] = c["serve.batches"]
    out["serve.batch_size_mean"] = (
        c["serve.batched_requests"] / c["serve.batches"] if c["serve.batches"] else 0.0
    )
    out["serve.rejected"] = c["serve.rejected"]
    for key in ("candidates", "evaluations", "rejected"):
        out[f"tune.{key}"] = c[f"tune.{key}"]
    out["host.wall_s"] = wall_s
    out["host.unattributed_s"] = wall_s - ledger.attributed_s()
    return out
