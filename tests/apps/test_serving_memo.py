"""Frame-synthesis and compile-key memoisation in the downscaler pipeline jobs.

``env()`` and ``golden()`` are called independently per (frame, instance);
before memoisation every call re-synthesised and re-split the frame, so a
three-channel SaC frame paid for six syntheses.  The jobs now memoise per
frame behind a small LRU: exactly one synthesis per distinct frame, an
LRU bound on memory, and frozen arrays so a mutating consumer faults.
The Gaspard job also keeps its model and content key between compiles,
so a compile-cache hit does not re-canonicalise the model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.downscaler import serving
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.apps.downscaler.config import FrameSize
from repro.apps.downscaler.serving import GaspardDownscalerJob, SacDownscalerJob
from repro.opt import OptOptions
from repro.runtime import CompileCache
from repro.runtime import cache as cache_mod
from repro.runtime.cache import gaspard_chain_key
from repro.runtime.pipeline import FramePipeline

TINY = FrameSize(18, 16, "tiny")


@pytest.fixture
def synth_calls(monkeypatch):
    """Count calls into ``synthetic_frame`` as the serving jobs see it."""
    calls: list[int] = []
    real = serving.synthetic_frame

    def counting(size, t):
        calls.append(t)
        return real(size, t)

    monkeypatch.setattr(serving, "synthetic_frame", counting)
    return calls


def test_sac_job_synthesises_each_frame_once(synth_calls):
    job = SacDownscalerJob(TINY)
    program = job.compile(FramePipeline().cache)
    for frame in range(3):
        for instance in range(3):
            job.env(frame, instance)
            job.golden(frame, instance, program)
    # 3 frames x 3 instances x (env + golden) = 18 consumer calls,
    # but each distinct frame is synthesised exactly once
    assert sorted(synth_calls) == [0, 1, 2]


def test_gaspard_pipeline_run_synthesises_each_frame_once(synth_calls):
    pipe = FramePipeline(validate="all")
    report = pipe.run(GaspardDownscalerJob(TINY), frames=4)
    assert report.validated_instances == 4
    assert sorted(synth_calls) == [0, 1, 2, 3]


def test_lru_bound_evicts_oldest_frame(synth_calls):
    job = GaspardDownscalerJob(TINY, frame_cache=2)
    job.env(0, 0)
    job.env(1, 0)
    job.env(2, 0)  # evicts frame 0
    job.env(0, 0)  # re-synthesised
    assert synth_calls == [0, 1, 2, 0]


def test_memoised_arrays_are_frozen():
    job = GaspardDownscalerJob(TINY)
    env = job.env(0, 0)
    with pytest.raises(ValueError):
        env["in_r"][0, 0] = 99
    golden = job.golden(0, 0, None)
    with pytest.raises(ValueError):
        golden["out_r"][0, 0] = 99
    # the cache still serves intact values afterwards
    assert np.array_equal(env["in_r"], job.env(0, 0)["in_r"])


def test_gaspard_job_canonicalises_its_model_once(monkeypatch):
    calls = [0]
    real = cache_mod.canonical

    def counting(value):
        calls[0] += 1
        return real(value)

    monkeypatch.setattr(cache_mod, "canonical", counting)
    job, cache = GaspardDownscalerJob(TINY), CompileCache()
    first = job.compile(cache)
    after_first = calls[0]
    assert after_first > 0
    assert job.compile(cache) is first
    assert job.compile(CompileCache()) is not first  # another cache misses
    assert calls[0] == after_first
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    # the held key is the content key of a freshly built model
    assert gaspard_chain_key(downscaler_model(TINY), downscaler_allocation()) in cache


def test_gaspard_job_rekeys_when_a_compile_input_changes():
    job, cache = GaspardDownscalerJob(TINY), CompileCache()
    plain = job.compile(cache)
    job.opt = OptOptions()
    optimised = job.compile(cache)
    assert optimised is not plain
    assert (cache.stats.hits, cache.stats.misses) == (0, 2)
    assert gaspard_chain_key(
        downscaler_model(TINY), downscaler_allocation(), opt=OptOptions()
    ) in cache
