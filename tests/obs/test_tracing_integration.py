"""Tracing threaded through the runtime: span coverage, zero perturbation."""

import pytest

from repro.apps.downscaler import CIF
from repro.apps.downscaler.serving import downscaler_job
from repro.obs import Tracer
from repro.opt import OptOptions
from repro.runtime import FramePipeline


def _report_key(report):
    d = report.as_dict()
    d.pop("cache", None)  # identical anyway, but keep the key minimal
    return d


def test_tracing_does_not_perturb_the_report():
    """Acceptance: fps/p50/p95 and every other reported number are
    identical with tracing on and off — all durations are modelled, the
    tracer only measures host wall clock alongside."""
    plain = FramePipeline(validate="none").run(
        downscaler_job("sac", size=CIF), frames=3
    )
    traced_pipe = FramePipeline(validate="none", tracer=Tracer())
    traced = traced_pipe.run(downscaler_job("sac", size=CIF), frames=3)
    assert _report_key(traced) == _report_key(plain)
    assert traced.frames_per_second == plain.frames_per_second
    assert traced.latency_p95_us == plain.latency_p95_us


def test_pipeline_run_records_every_stage():
    tracer = Tracer()
    pipe = FramePipeline(tracer=tracer)
    pipe.run(downscaler_job("gaspard", size=CIF), frames=2)

    (root,) = tracer.roots()
    assert root.name == "pipeline:gaspard"
    stages = [s.name for s in tracer.children(root)]
    assert stages == [
        "placement-stage", "compile-stage", "validate-stage", "schedule-stage",
    ]

    (compile_stage,) = tracer.find("compile-stage")
    assert compile_stage.attrs == {"hits": 1, "misses": 1}
    # the cache recorded the miss as a compile span, the hit as an instant
    compile_spans = tracer.find("compile:gaspard")
    assert [s.attrs["cache"] for s in compile_spans] == ["miss", "hit"]
    assert compile_spans[0].parent_id == compile_stage.id

    # validation executed the program under the executor's span
    (execute,) = tracer.find("execute:Downscaler_opencl")
    assert execute.attrs["functional"] is True
    assert execute.attrs["total_us"] > 0

    # the scheduler recorded its node count and makespan
    (sched,) = tracer.find("build_schedule:Downscaler_opencl")
    assert sched.attrs["runs"] == 2
    assert sched.attrs["nodes"] > 0
    assert sched.attrs["makespan_us"] > 0


def test_opt_passes_record_spans():
    tracer = Tracer()
    pipe = FramePipeline(validate="none", tracer=tracer)
    pipe.run(
        downscaler_job("sac", size=CIF, opt=OptOptions()), frames=1
    )
    (opt_span,) = tracer.find("opt:downscale_cuda")
    passes = [s.name for s in tracer.children(opt_span)]
    # passes iterate to fixpoint, so names repeat; coverage and the
    # bookend order (dce first, certification last) are what matter
    assert set(passes) == {
        "opt-pass:dce",
        "opt-pass:transfer-elimination",
        "opt-pass:fusion",
        "opt-pass:sibling-fusion",
        "opt-pass:pooling",
        "opt-pass:certify",
    }
    assert passes[0] == "opt-pass:dce"
    assert passes[-1] == "opt-pass:certify"
    assert opt_span.attrs["ops_after"] <= opt_span.attrs["ops_before"]
    # all of it happened inside the cache's compile-miss span
    (miss,) = [s for s in tracer.find("compile:sac")
               if s.attrs.get("cache") == "miss"]
    assert opt_span.start_us >= miss.start_us
    assert opt_span.end_us <= miss.end_us


def test_ambient_tracer_reaches_pipeline_without_constructor_arg():
    with Tracer() as tracer:
        FramePipeline(validate="none").run(
            downscaler_job("gaspard", size=CIF), frames=1
        )
    assert tracer.find("pipeline:gaspard")
    assert tracer.find("build_schedule:Downscaler_opencl")


def test_stream_executor_records_span():
    from repro.apps.downscaler import NONGENERIC, downscaler_program_source
    from repro.apps.downscaler.video import channels_of, synthetic_frame
    from repro.gpu import GTX480_CALIBRATED, CostModel
    from repro.runtime.executor import StreamExecutor
    from repro.sac.backend import CompileOptions, compile_function
    from repro.sac.parser import parse

    cf = compile_function(
        parse(downscaler_program_source(CIF, NONGENERIC)), "downscale",
        CompileOptions(target="cuda"),
    )
    env = {"frame": channels_of(synthetic_frame(CIF, 0))["r"]}
    with Tracer() as tracer:
        StreamExecutor(CostModel(GTX480_CALIBRATED)).run(cf.program, env, runs=2)
    (span,) = tracer.find("stream-execute:downscale_cuda")
    assert span.attrs["runs"] == 2
    assert span.attrs["overlapped_us"] > 0


def test_cost_probe_span_on_each_cache_miss():
    """The cost probe is its own span, opened on a miss only, so its time
    is no longer charged to whichever execute span first priced a kernel."""
    import uuid

    from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
    from repro.ir import ArrayParam, IndexSpace, Kernel, Read, Store, ThreadIdx

    kernel = Kernel(  # a name no other test uses: a guaranteed cache miss
        name=f"probe_{uuid.uuid4().hex}",
        space=IndexSpace((0,), (8,)),
        arrays=(ArrayParam("a", (8,)), ArrayParam("b", (8,), intent="out")),
        body=(Store("b", (ThreadIdx(0),), Read("a", (ThreadIdx(0),))),),
    )
    ex = GPUExecutor(CostModel(GTX480_CALIBRATED))
    with Tracer() as tracer:
        first = ex.kernel_cost_inputs(kernel)
        assert ex.kernel_cost_inputs(kernel) is first  # hit: no second span
    (span,) = tracer.find("cost-probe")
    assert span.category == "cost"
    assert span.attrs == {"kernel": kernel.name}
    assert span.end_us >= span.start_us


def test_launch_plan_span_on_each_plan_miss():
    """Planning a kernel's accesses is its own span, opened once per
    (kernel, space, scalars); a relaunch reuses the plan without one."""
    import numpy as np

    from repro.ir import (
        ArrayParam, BinOp, IndexSpace, Kernel, ParamRef, Read, ScalarParam, Store,
        ThreadIdx, evaluate_kernel,
    )

    kernel = Kernel(
        name="plan_span",
        space=IndexSpace((0,), (4,)),
        arrays=(ArrayParam("a", (8,)), ArrayParam("b", (4,), intent="out")),
        scalars=(ScalarParam("s"),),
        body=(
            Store("b", (ThreadIdx(0),), Read("a", (BinOp("+", ThreadIdx(0), ParamRef("s")),))),
        ),
    )
    bufs = {"a": np.arange(8, dtype=np.int32), "b": np.zeros(4, np.int32)}
    with Tracer() as tracer:
        for s in (0, 0, 3, 0, 3):
            evaluate_kernel(kernel, bufs, {"s": s})
            np.testing.assert_array_equal(bufs["b"], np.arange(s, s + 4))
    spans = tracer.find("launch-plan")
    assert len(spans) == 2  # one per scalar binding
    for span in spans:
        assert span.category == "ir"
        assert span.attrs == {"kernel": "plan_span"}
        assert span.end_us >= span.start_us


def test_equal_kernels_share_a_launch_plan():
    """Plans are keyed by the kernel's value: a recompiled, equal kernel is
    a new object but reuses the plan without a new span."""
    import numpy as np

    from repro.ir import ArrayParam, IndexSpace, Kernel, Read, Store, ThreadIdx, evaluate_kernel

    def compile_kernel():
        return Kernel(
            name="plan_shared",
            space=IndexSpace((0,), (4,)),
            arrays=(ArrayParam("a", (4,)), ArrayParam("b", (4,), intent="out")),
            body=(Store("b", (ThreadIdx(0),), Read("a", (ThreadIdx(0),))),),
        )

    with Tracer() as tracer:
        for start in (0, 5):
            bufs = {"a": np.arange(start, start + 4, dtype=np.int32), "b": np.zeros(4, np.int32)}
            evaluate_kernel(compile_kernel(), bufs)
            np.testing.assert_array_equal(bufs["b"], np.arange(start, start + 4))
    assert len(tracer.find("launch-plan")) == 1


def test_arrayol_validation_records_span():
    from repro.apps.downscaler.arrayol_model import downscaler_model
    from repro.arrayol import validate_model

    model = downscaler_model(CIF)
    with Tracer() as tracer:
        validate_model(model)
    (span,) = tracer.find("arrayol-validate")
    assert span.category == "arrayol"
    assert span.attrs == {"model": model.name}

    # in a pipeline, the ArrayOL chain validates inside the compile miss
    tracer = Tracer()
    FramePipeline(validate="none", tracer=tracer).run(
        downscaler_job("gaspard", size=CIF), frames=1
    )
    (miss,) = [s for s in tracer.find("compile:gaspard")
               if s.attrs.get("cache") == "miss"]
    spans = tracer.find("arrayol-validate")
    assert spans
    assert all(miss.start_us <= s.start_us <= s.end_us <= miss.end_us for s in spans)
