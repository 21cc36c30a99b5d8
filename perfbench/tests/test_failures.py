import dataclasses

import numpy as np

from repro.apps.downscaler import CIF
from repro.runtime.pipeline import FramePipeline

from perfbench.inputs import FramePool, SeededFrameJob
from perfbench.workloads import ROUTES, Tally, VideoHD, _Repeats


def _corrupt(pool: FramePool, channel: str) -> FramePool:
    golden = pool.goldens[0][channel].copy()
    golden[0, 0] += 1
    goldens = ({**pool.goldens[0], channel: golden},) + pool.goldens[1:]
    return dataclasses.replace(pool, goldens=goldens)


def test_corrupted_golden_counts_one_failed_frame_per_route():
    pool = FramePool.generate(CIF, 1, seed=5)
    bad = _corrupt(pool, "b")
    tally = Tally()
    state = {
        route: (SeededFrameJob(route, p), FramePipeline(validate="all"))
        for route, p in (("sac", pool), ("gaspard", bad))
    }
    for route in ROUTES:
        VideoHD()._frame(route, state, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "gaspard" in tally.errors[0] and "bit-exact" in tally.errors[0]


def test_modelled_figure_that_does_not_repeat_is_a_failure():
    tally = Tally()
    repeats = _Repeats(tally)
    for value in (1.5, 1.5, np.nextafter(1.5, 2.0)):
        repeats.check("sac.model_us", value)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert repeats.first == {"sac.model_us": 1.5}
