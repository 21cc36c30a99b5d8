"""The benchmark's three workloads, each over both compilation routes.

* ``video-hd`` — the paper's own 1080x1920 frames through
  :class:`~repro.runtime.pipeline.FramePipeline`, every frame compiled
  (a cache hit), executed, bit-checked and scheduled.  Cold set-up is the
  cost probe and the ArrayOL chain; steady state is IR interpretation.
* ``tune-cif`` — a fixed-budget :func:`repro.tune.tune` of the
  downscaler at CIF: the first 10 (sac) or 30 (gaspard) candidates of its
  exhaustive optimiser-pass phase compiled, optimised, certified and
  scheduled (whole-resource ``regions=False`` replays), with functional
  execution only for the winner's bit-exact check.  The search's seed
  only steers its second, hill-climbing phase, which these budgets never
  reach; the seed still picks the frame the winner is checked on.
* ``serve-cif`` — an open loop through :class:`~repro.serve.ServeBroker`
  at 80 % of each route's modelled capacity with seeded exponential
  arrivals, every request executed and bit-checked: small arrays, where
  per-launch overhead and the broker's own work weigh most.

A workload sets up (its first completed operation per route, timed as
``setup_s``), then repeats its operation until a deadline or a fixed
count, timing each route's operations on a :class:`HostClock`.  Every
workload finally prices each route's default program on the modelled
clock and checks it against ``benchmarks/BENCH_pipeline.json``.

A failed operation is a bit-exact mismatch, a ``ReproError`` (a tune
winner that fails its certified, bit-exact re-run raises one), a request
not served ``ok`` and validated, a tune winner worse than the default,
or a modelled figure that does not repeat exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.downscaler.config import CIF, HD
from repro.errors import ReproError

from perfbench.hostclock import HostClock
from perfbench.inputs import FramePool, SeededFrameJob, SeededSubject

__all__ = ["ROUTES", "WORKLOADS", "Tally", "bench_pipeline"]

ROUTES = ("sac", "gaspard")

_BENCH_PIPELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_pipeline.json"


def bench_pipeline() -> dict:
    """The repository's recorded modelled pipeline figures."""
    return json.loads(_BENCH_PIPELINE.read_text())


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(why)
        return ok


def _more(done: int, deadline: float | None, reps: int | None) -> bool:
    """Whether a steady loop runs another round: ``reps`` rounds exactly,
    else at least one and until the deadline."""
    if reps is not None:
        return done < reps
    return done < 1 or time.perf_counter() < deadline


class _Repeats:
    """Checks that a modelled figure repeats exactly across operations."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.first: dict[str, float] = {}

    def check(self, key: str, value: float) -> None:
        want = self.first.setdefault(key, value)
        self.tally.check(
            value == want, f"{key}: modelled {value!r} != first {want!r}"
        )


class Workload:
    """One workload; subclasses fill in set-up and the steady operation."""

    name: str
    size = CIF
    pool_frames = 1
    #: modelled pipeline run whose fps is recorded in BENCH_pipeline.json
    model_frames = 4
    #: steady rounds of a fixed-work (traced or trace-baseline) run
    fixed_rounds = 1

    def inputs(self, seed: int) -> FramePool:
        return FramePool.generate(self.size, self.pool_frames, seed)

    def setup(self, pool: FramePool, seed: int, tally: Tally) -> tuple[dict, dict]:
        """First completed operation per route: ``(state, modelled figure)``."""
        raise NotImplementedError

    def steady(self, state: dict, seed: int, tally: Tally, clock: HostClock,
               deadline: float | None, reps: int | None) -> dict[str, int]:
        """Run operations, timing each route's under its name on ``clock``;
        returns how many completed per route."""
        raise NotImplementedError

    def model(self, state: dict, pool: FramePool, tally: Tally) -> dict[str, float]:
        """Modelled figures of each route's default program at this size.

        The fps of a ``model_frames`` pipeline run must equal the
        ``<route>-<size>-<frames>`` entry of BENCH_pipeline.json.
        """
        from repro.runtime.pipeline import FramePipeline

        recorded = bench_pipeline()
        out: dict[str, float] = {}
        for route in ROUTES:
            job = SeededFrameJob(route, pool)
            report = FramePipeline(validate="none", cache=state["cache"]).run(
                job, self.model_frames
            )
            key = f"{route}-{self.size.name.lower()}-{self.model_frames}"
            want = recorded[key]["frames_per_second"]
            tally.check(
                round(report.frames_per_second, 3) == want,
                f"{key}: modelled fps {report.frames_per_second!r} != recorded {want}",
            )
            out[f"{route}.model.fps"] = report.frames_per_second
            out[f"{route}.model.transfer_share"] = report.transfer_share_serial
            out[f"{route}.model.compute_occupancy"] = report.engine_occupancy["compute"]
        return out


class VideoHD(Workload):
    name = "video-hd"
    size = HD
    pool_frames = 2
    model_frames = 300
    fixed_rounds = 3

    def _frame(self, route: str, state: dict, tally: Tally):
        job, pipe = state[route]
        try:
            report = pipe.run(job, 1)
        except ReproError as err:
            tally.check(False, f"{route} frame {job.offset}: {err}")
            return None
        ok = tally.check(
            report.validated_instances == job.instances_per_frame,
            f"{route} frame {job.offset}: {report.validated_instances} of "
            f"{job.instances_per_frame} runs validated",
        )
        return report if ok else None

    def setup(self, pool, seed, tally):
        from repro.runtime.cache import CompileCache
        from repro.runtime.pipeline import FramePipeline

        cache = CompileCache()
        state: dict = {"cache": cache}
        figures = {}
        for route in ROUTES:
            state[route] = (
                SeededFrameJob(route, pool),
                FramePipeline(validate="all", cache=cache),
            )
            report = self._frame(route, state, tally)
            figures[route] = report.overlapped_us if report else float("nan")
        return state, figures

    def steady(self, state, seed, tally, clock, deadline, reps):
        frames = dict.fromkeys(ROUTES, 0)
        done = 0
        while _more(done, deadline, reps):
            done += 1
            for route in ROUTES:
                state[route][0].offset = done
                with clock.block(route):
                    ok = self._frame(route, state, tally) is not None
                frames[route] += ok
        return frames

    def model(self, state, pool, tally):
        out = super().model(state, pool, tally)
        for route in ROUTES:
            out[f"{route}.model_us"] = 1e6 / out[f"{route}.model.fps"]
        return out


class TuneCIF(Workload):
    name = "tune-cif"
    #: candidates visited per search; below the 131 of the exhaustive
    #: phase, so a search is the same work on every seed (the seeded
    #: hill-climbing phase after it varies up to threefold in cost from
    #: seed to seed on sac).  A gaspard candidate costs about a fifth of
    #: a sac one: the larger budget gives both routes a few seconds of
    #: search to time
    budget = {"sac": 10, "gaspard": 30}

    def setup(self, pool, seed, tally):
        from repro.runtime.cache import CompileCache
        from repro.tune import tune

        cache = CompileCache()
        state: dict = {"cache": cache}
        figures = {}
        for route in ROUTES:
            subject = SeededSubject(route, pool)
            try:
                result = tune(subject, budget=1, seed=seed, cache=cache, validate=False)
            except ReproError as err:
                tally.check(False, f"{route} default config: {err}")
                figures[route] = float("nan")
            else:
                tally.check(True, "")
                figures[route] = result.default_cost.makespan_us
            state[route] = subject
        state["winners"] = _Repeats(tally)
        return state, figures

    def steady(self, state, seed, tally, clock, deadline, reps):
        from repro.gpu import executor as gpu_executor
        from repro.runtime.cache import CompileCache
        from repro.tune import tune

        searches = dict.fromkeys(ROUTES, 0)
        done = 0
        while _more(done, deadline, reps):
            done += 1
            for route in ROUTES:
                # every search starts as cold as the first: no compiled
                # programs and no kernel cost probes carried over
                gpu_executor._GLOBAL_KERNEL_CACHE.clear()
                try:
                    with clock.block(route):
                        result = tune(
                            state[route], budget=self.budget[route], seed=seed,
                            cache=CompileCache(),
                        )
                except ReproError as err:
                    tally.check(False, f"{route} tune: {err}")
                    continue
                searches[route] += tally.check(
                    not result.default_cost < result.winner_cost,
                    f"{route} tune: winner {result.winner_cost} is worse than "
                    f"the default {result.default_cost}",
                )
                state["winners"].check(f"{route}.model_us", result.winner_cost.makespan_us)
        return searches

    def model(self, state, pool, tally):
        out = super().model(state, pool, tally)
        out.update(state["winners"].first)
        return out


class ServeCIF(Workload):
    name = "serve-cif"
    pool_frames = 8
    #: requests per route per loop; 200 leaves ten beyond the p95
    requests = 200
    #: offered load as a share of the route's modelled capacity
    load = 0.8

    def _loop(self, route: str, state: dict, seed: int, requests: int):
        from repro.serve import ServeBroker, ServeConfig, run_open_loop

        broker = ServeBroker(
            state["jobs"][route], ServeConfig(execute="all"), cache=state["cache"]
        )
        return run_open_loop(
            broker, rate_rps=state["rates"][route], requests=requests, jitter_seed=seed
        )

    def _served(self, route: str, responses, tally: Tally) -> int:
        ok = 0
        for r in responses:
            ok += tally.check(
                r.ok and r.validated,
                f"{route} request {r.request.rid}: status={r.status} "
                f"reason={r.reason} validated={r.validated}",
            )
        return ok

    def setup(self, pool, seed, tally):
        from repro.runtime.cache import CompileCache

        recorded = bench_pipeline()
        state: dict = {
            "cache": CompileCache(),
            "jobs": {r: SeededFrameJob(r, pool) for r in ROUTES},
            "rates": {
                r: self.load * recorded[f"{r}-cif-4"]["frames_per_second"] for r in ROUTES
            },
            "p95": _Repeats(tally),
        }
        figures = {}
        for route in ROUTES:
            try:
                responses, _report = self._loop(route, state, seed, 1)
            except ReproError as err:
                tally.check(False, f"{route} first request: {err}")
                figures[route] = float("nan")
                continue
            self._served(route, responses, tally)
            figures[route] = responses[0].latency_us
        return state, figures

    def steady(self, state, seed, tally, clock, deadline, reps):
        served = dict.fromkeys(ROUTES, 0)
        done = 0
        while _more(done, deadline, reps):
            done += 1
            for route in ROUTES:
                try:
                    with clock.block(route):
                        responses, report = self._loop(route, state, seed, self.requests)
                except ReproError as err:
                    tally.check(False, f"{route} open loop: {err}")
                    continue
                served[route] += self._served(route, responses, tally)
                state["p95"].check(f"{route}.model_us", report.latency_p95_us)
        return served

    def model(self, state, pool, tally):
        out = super().model(state, pool, tally)
        out.update(state["p95"].first)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (VideoHD, TuneCIF, ServeCIF)
}
