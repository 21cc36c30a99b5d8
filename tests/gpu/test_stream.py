"""Stream overlap (pipelining frames across the copy and compute engines),
timed by the runtime scheduler with unbounded buffering."""

import numpy as np
import pytest

from repro.gpu import (
    CostModel,
    GPUExecutor,
    UNCALIBRATED,
)
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
)
from repro.runtime import build_schedule, schedule_violations


def pipeline_program(n=64):
    k = Kernel(
        name="work",
        space=IndexSpace((0,), (n,)),
        arrays=(
            ArrayParam("src", (n,), intent="in"),
            ArrayParam("dst", (n,), intent="out"),
        ),
        body=(
            Store("dst", (ThreadIdx(0),), BinOp("+", Read("src", (ThreadIdx(0),)), Const(1))),
        ),
    )
    return DeviceProgram(
        name="pipe",
        ops=(
            AllocDevice("d_in", (n,)),
            AllocDevice("d_out", (n,)),
            HostToDevice("h_in", "d_in"),
            LaunchKernel(k, (("src", "d_in"), ("dst", "d_out"))),
            DeviceToHost("d_out", "h_out"),
            FreeDevice("d_in"),
            FreeDevice("d_out"),
        ),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )


def overlap(program, executor, frames):
    """Schedule ``frames`` back-to-back runs with unbounded buffering."""
    s = build_schedule(program, executor, runs=frames, depth=None)
    assert schedule_violations(s) == []
    return s


@pytest.fixture()
def executor():
    ex = GPUExecutor(CostModel(UNCALIBRATED))
    ex.run(pipeline_program(), {"h_in": np.zeros(64, np.int32)})
    return ex


class TestOverlap:
    def test_single_frame_cannot_overlap(self, executor):
        r = overlap(pipeline_program(), executor, frames=1)
        assert r.makespan_us == pytest.approx(r.serial_us)
        assert r.speedup == pytest.approx(1.0)

    def test_many_frames_pipeline(self, executor):
        r = overlap(pipeline_program(), executor, frames=50)
        assert r.makespan_us < r.serial_us
        # steady state is bounded below by the busiest engine
        busiest = max(
            r.engine_busy_us(e) for e in ("h2d", "compute", "d2h")
        )
        assert r.makespan_us >= busiest
        assert r.makespan_us < busiest * 1.5  # most of the rest is hidden

    def test_serial_total_matches_executor(self, executor):
        prog = pipeline_program()
        res = executor.run(prog, functional=False)
        r = overlap(prog, executor, frames=1)
        assert r.serial_us == pytest.approx(res.total_us)

    def test_dependences_respected(self, executor):
        r = overlap(pipeline_program(), executor, frames=3)
        for f in range(3):
            by_name = {s.name: s for s in r.run_nodes(f)}
            h2d = by_name["h2d:d_in"]
            kernel = by_name["work"]
            d2h = by_name["d2h:d_out"]
            assert kernel.start_us >= h2d.end_us
            assert d2h.start_us >= kernel.end_us

    def test_host_step_blocks_pipeline(self, executor):
        """A per-frame host step (the generic output tiler) serialises."""
        base = pipeline_program()

        def sink(env):
            pass

        ops = list(base.ops[:-2])  # keep allocs/copies/launch
        ops.append(
            HostCompute("host:ot", sink, reads=("h_out",), writes=("done",),
                        work=HostWork(items=1000, flops_per_item=1,
                                      reads_per_item=0, writes_per_item=0))
        )
        prog = DeviceProgram(
            name="pipe_host",
            ops=tuple(ops),
            host_inputs=("h_in",),
            host_outputs=("h_out",),
        )
        executor.run(prog, {"h_in": np.zeros(64, np.int32)})
        r = overlap(prog, executor, frames=20)
        # the host step forces every next frame to wait: no pipelining win
        assert r.speedup == pytest.approx(1.0, abs=0.05)


class TestDownscalerOverlap:
    def test_nongeneric_pipelines_generic_does_not(self):
        """Follow-up experiment: streaming hides the transfers only for the
        fully-fused variant; the generic variant's host tiler blocks."""
        from repro.apps.downscaler import NONGENERIC, GENERIC, downscaler_program_source
        from repro.apps.downscaler.config import FrameSize
        from repro.apps.downscaler.video import synthetic_frame
        from repro.gpu import GTX480_CALIBRATED
        from repro.sac.backend import CompileOptions, compile_function
        from repro.sac.parser import parse

        size = FrameSize(rows=18, cols=16, name="tiny")
        frame = synthetic_frame(size, 0)[..., 0]
        # transfer-heavy parameters make the pipelining headroom visible at
        # this tiny test size (at HD the calibrated model gives ~1.9x for
        # the non-generic variant — see EXPERIMENTS.md)
        params = GTX480_CALIBRATED.with_overrides(
            launch_overhead_us=5.0,
            h2d_bandwidth=10.0,
            d2h_bandwidth=10.0,
            transfer_latency_us=50.0,
        )
        speedups = {}
        for variant in (NONGENERIC, GENERIC):
            prog = parse(downscaler_program_source(size, variant))
            cf = compile_function(prog, "downscale", CompileOptions(target="cuda"))
            ex = GPUExecutor(CostModel(params))
            ex.run(cf.program, {"frame": frame})
            speedups[variant] = overlap(cf.program, ex, frames=30).speedup
        assert speedups[NONGENERIC] > 1.3
        assert speedups[GENERIC] == pytest.approx(1.0, abs=0.05)
