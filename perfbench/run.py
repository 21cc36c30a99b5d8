"""The repository's benchmark: two clocks over three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload {video-hd,tune-cif,serve-cif} \\
        --seed N --seconds S --trace {0,1}

Every workload runs both compilation routes (``sac``: SaC->CUDA,
``gaspard``: ArrayOL->OpenCL) on inputs generated from ``--seed``, checks
every output bit for bit against a NumPy golden, and reports on two
clocks: *wall* seconds the Python system spends, and the *modelled*
GTX480 time, which must repeat exactly and match
``benchmarks/BENCH_pipeline.json``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  Their
wall seconds are normalised to a reference host speed sampled while they
run (:mod:`perfbench.hostclock`), because the machines this runs on drift
by up to ~1.8x in speed from minute to minute:

* ``setup_s`` — median over fresh interpreters of the time from the
  workload's first call into the program to its first completed
  operation on each route (cold compile, cost probe, first frame,
  request or priced default configuration);
* ``peak_rss_mb`` — peak resident memory of the measuring interpreter;
* ``<route>.ops_per_s`` — throughput of the workload's operation after
  set-up: HD frames (video-hd), complete tuning searches (tune-cif), or
  bit-checked requests (serve-cif).

``--trace 1`` runs the workload twice with a fixed amount of work, once
plain and once with every layer's entry points timed
(:mod:`perfbench.ledger`), and prints the per-layer metrics (raw wall
time, including the host-speed probes' ~1.5 %), the modelled figures and
``host.trace_overhead_s`` (traced minus plain, normalised).

All work runs in child interpreters, one at a time, so the benchmark
never loads more than one core.  A summary under the names the figures
usually go by (``sac.frames_per_s``, ``gaspard.model_fps``, ...) goes to
standard error; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("sac", "gaspard")
WORKLOADS = ("video-hd", "tune-cif", "serve-cif")
#: fresh interpreters whose set-up is timed per run (HD set-up is ~30 s)
SETUP_RUNS = {"video-hd": 1, "tune-cif": 3, "serve-cif": 3}
#: a run must end within this many seconds
TIME_LIMIT_S = 175.0

#: the names these figures usually go by, per workload: wall-clock name
#: and conversion from ops/s, modelled name and conversion from model_us
USUAL_NAMES = {
    "video-hd": (("frames_per_s", "1/s", lambda r: r),
                 ("model_fps", "1/s", lambda us: 1e6 / us)),
    "tune-cif": (("tune_s", "s", lambda r: 1.0 / r),
                 ("model_tuned_us", "us", lambda us: us)),
    "serve-cif": (("requests_per_s", "1/s", lambda r: r),
                  ("model_p95_ms", "ms", lambda us: us / 1e3)),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(workload: str, seed: int, mode: str, deadline: float,
           seconds: float = 0.0, trace: bool = False) -> dict:
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} run")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: {mode} run exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} run exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for why in result["errors"]:
        print(f"FAILED {workload}: {why}", file=sys.stderr)
    return result


def _agree(tally: list[int], runs: list[dict], key: str, what: str) -> None:
    """One operation: every run's modelled ``key`` figures are identical."""
    tally[0] += 1
    first = runs[0][key]
    if any(r[key] != first for r in runs[1:]):
        tally[1] += 1
        print(f"FAILED modelled {what} differ across processes: "
              f"{[r[key] for r in runs]}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[int], dict]:
    runs = [_child(workload, seed, "setup", deadline)
            for _ in range(SETUP_RUNS[workload] - 1)]
    main = _child(workload, seed, "measure", deadline, seconds=seconds)
    runs.append(main)
    tally = [sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)]
    _agree(tally, runs, "figures", "first operations")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": main["rss_mb"],
    }
    for route in ROUTES:
        values[f"{route}.ops_per_s"] = main["ops_per_s"][route]
    return values, tally, main["model"]


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list[int], dict]:
    plain = _child(workload, seed, "fixed", deadline)
    traced = _child(workload, seed, "fixed", deadline, trace=True)
    runs = [plain, traced]
    tally = [sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)]
    _agree(tally, runs, "figures", "first operations")
    _agree(tally, runs, "model", "figures")
    values = dict(traced["layers"])
    values.update(traced["model"])
    values["host.trace_overhead_s"] = traced["workload_s"] - plain["workload_s"]
    return values, tally, traced["model"]


def _summarise(workload: str, values: dict, model: dict) -> None:
    """The figures under their usual names, on standard error."""
    (wall_name, wall_unit, from_rate), (model_name, model_unit, from_us) = USUAL_NAMES[workload]
    for route in ROUTES:
        parts = []
        rate = values.get(f"{route}.ops_per_s")
        if rate:
            parts.append(f"{route}.{wall_name}={from_rate(rate):.6g} {wall_unit}")
        modelled = model.get(f"{route}.model_us")
        if modelled is not None:
            parts.append(f"{route}.{model_name}={from_us(modelled):.6g} {model_unit}")
        print(f"{workload}: " + "  ".join(parts), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    needed = [ROOT / "src" / "repro", ROOT / "benchmarks" / "BENCH_pipeline.json", spec_path]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # byte-compile once, so the first run's set-up is not also compiling
    compileall.compile_dir(ROOT / "src", quiet=1)

    try:
        if args.trace:
            values, tally, model = trace(args.workload, args.seed, deadline)
        else:
            values, tally, model = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    _summarise(args.workload, values, model)
    names = [m["name"] for m in declared]
    absent = sorted(set(names) - set(values))
    if absent:
        print(f"perfbench: no value for declared metrics {absent}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": tally[1] == 0,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
