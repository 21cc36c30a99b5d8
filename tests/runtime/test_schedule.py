"""The three-engine scheduler: pipelining, knobs and dependence safety."""

import pytest

from repro.apps.downscaler import GENERIC, NONGENERIC
from repro.runtime import build_schedule, schedule_violations


# (serial_us, overlapped_us) of the retired ``gpu.stream`` what-if
# analysis on the CIF fixtures, recorded before it was removed.
_OVERLAPPED_MAKESPAN_US = {
    (NONGENERIC, 1): (1026.7575488202774, 1026.7571361087628),
    (NONGENERIC, 3): (3080.272646460833, 2875.5078821214543),
    (NONGENERIC, 7): (7187.302841741938, 6573.009374146834),
    (GENERIC, 1): (824.2860404869718, 824.2852150639426),
    (GENERIC, 3): (2472.8581214609158, 2472.8556451918275),
    (GENERIC, 7): (5770.0022834088, 5769.996505447595),
}


@pytest.mark.parametrize("variant", [NONGENERIC, GENERIC])
@pytest.mark.parametrize("frames", [1, 3, 7])
def test_generalises_overlapped_makespan(sac_programs, executor, sac_env,
                                         variant, frames):
    """With unbounded buffering (depth=None) the scheduler reproduces the
    retired ``gpu.stream`` what-if analysis exactly, serial and overlapped."""
    program = sac_programs[variant]
    executor.run(program, sac_env)
    serial_us, overlapped_us = _OVERLAPPED_MAKESPAN_US[variant, frames]
    schedule = build_schedule(program, executor, runs=frames, depth=None)
    assert schedule.serial_us == pytest.approx(serial_us, abs=1e-6)
    assert schedule.makespan_us == pytest.approx(overlapped_us, abs=1e-6)
    assert schedule_violations(schedule) == []


def test_serialize_knob_restores_serial_total(sac_programs, executor):
    program = sac_programs[NONGENERIC]
    schedule = build_schedule(program, executor, runs=3, serialize=True)
    assert schedule.makespan_us == pytest.approx(schedule.serial_us, abs=1e-6)
    assert schedule.serialize


def test_overlap_never_exceeds_serial(sac_programs, gaspard_program, executor):
    for program in (*sac_programs.values(), gaspard_program):
        # the serial total is exactly the executor's per-run total
        run_us = executor.run(program, functional=False).total_us
        for depth in (1, 2, None):
            s = build_schedule(program, executor, runs=4, depth=depth)
            assert s.serial_us == pytest.approx(4 * run_us, rel=1e-9)
            assert s.makespan_us <= s.serial_us + 1e-6
            assert schedule_violations(s) == []


def test_deeper_buffering_never_slower(toy_program, executor):
    """More slots can only relax WAR constraints: makespan is monotonically
    non-increasing in depth (on the host-step-free streaming program)."""
    spans = [
        build_schedule(toy_program, executor, runs=6, depth=d).makespan_us
        for d in (1, 2, 3, None)
    ]
    assert spans == sorted(spans, reverse=True)
    assert spans[0] > spans[-1]  # depth actually binds on this program


def test_recycled_slots_shared_across_runs(toy_program, executor):
    s = build_schedule(toy_program, executor, runs=4, depth=2)
    assert s.depth == 2
    slots = {r for n in s.nodes for _, r in n.writes if "@s" in r}
    assert all(r.rsplit("@s", 1)[1] in ("0", "1") for r in slots)


def test_engine_metrics(sac_programs, executor):
    s = build_schedule(sac_programs[NONGENERIC], executor, runs=3)
    occ = s.engine_occupancy()
    for engine in ("h2d", "compute", "d2h"):
        assert 0.0 < occ[engine] <= 1.0 + 1e-9
        assert s.engine_busy_us(engine) > 0.0
    lat = s.latencies_us(batch=1)
    assert len(lat) == 3
    assert all(v > 0 for v in lat)


def _schedule_of(nodes):
    from repro.runtime.schedule import PipelineSchedule

    return PipelineSchedule(
        program="hand-built", runs=1, depth=1, serialize=False,
        serial_us=sum(n.end_us - n.start_us for n in nodes), nodes=tuple(nodes),
    )


def _node(id, engine, start, end):
    from repro.runtime.schedule import ScheduledNode

    return ScheduledNode(
        id=id, run=0, op_index=id, name=f"{engine}{id}", engine=engine,
        start_us=start, end_us=end,
    )


def test_host_barrier_violations_still_detected():
    """Regression guard for the single-pass host check: a node issued
    after a host step but starting before it ends, and a host step
    overlapping an earlier one, are both reported."""
    bad = _schedule_of([
        _node(0, "host", 0.0, 10.0),
        _node(1, "compute", 5.0, 8.0),   # issued after host 0, starts inside it
        _node(2, "host", 8.0, 12.0),     # starts before host 0 ends
    ])
    problems = schedule_violations(bad)
    assert any(p.startswith("host barrier: node 1") for p in problems)
    assert any(p.startswith("host: node 2") for p in problems)

    good = _schedule_of([
        _node(0, "host", 0.0, 10.0),
        _node(1, "compute", 10.0, 12.0),
        _node(2, "host", 12.0, 13.0),
        _node(3, "d2h", 13.0, 14.0),
    ])
    assert schedule_violations(good) == []


def test_host_barrier_tracks_latest_ending_host_step():
    """The barrier is the latest-*ending* host step issued so far, not
    merely the last one issued."""
    bad = _schedule_of([
        _node(0, "host", 0.0, 20.0),
        _node(1, "host", 20.0, 21.0),
        _node(2, "compute", 20.5, 22.0),  # clears host 0, not host 1
    ])
    assert any("node 2" in p for p in schedule_violations(bad))
    ok = _schedule_of([
        _node(0, "host", 0.0, 20.0),
        _node(1, "host", 20.0, 21.0),
        _node(2, "compute", 21.0, 22.0),
    ])
    assert schedule_violations(ok) == []


def test_rejects_bad_arguments(sac_programs, executor):
    with pytest.raises(ValueError):
        build_schedule(sac_programs[NONGENERIC], executor, runs=0)
    with pytest.raises(ValueError):
        build_schedule(sac_programs[NONGENERIC], executor, runs=1, depth=-1)


def test_reupload_waits_for_the_download_it_stages(executor):
    """Per-kernel transfer placement downloads ``d__output_13`` to the
    host and re-uploads it for the next WITH-loop.  The re-upload reads
    the host array the download writes (RAW) and overwrites a buffer the
    kernels k0-k4 are writing (WAW), so it may start only after both —
    a schedule that starts it right after the first upload is invalid."""
    from repro.apps.downscaler import CIF, downscaler_program_source
    from repro.sac.backend import CompileOptions, compile_function
    from repro.sac.parser import parse

    program = compile_function(
        parse(downscaler_program_source(CIF, NONGENERIC)),
        "downscale",
        CompileOptions(target="cuda", transfers="per_kernel"),
    ).program
    s = build_schedule(program, executor, runs=12, depth=None)
    assert schedule_violations(s) == []
    for run in range(12):
        nodes = s.run_nodes(run)
        (down,) = [n for n in nodes if n.name == "d2h:d__output_13"]
        (up,) = [n for n in nodes if n.name == "h2d:d__output_13"]
        assert down.writes == up.reads == (("host", f"_output_13@r{run}"),)
        assert up.start_us >= down.end_us - 1e-9
        writers = [n for n in nodes if n.name.startswith("downscale__output_13_k")]
        assert len(writers) == 5
        assert all(up.start_us >= k.end_us - 1e-9 for k in writers)
