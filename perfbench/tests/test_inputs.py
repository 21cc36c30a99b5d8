import numpy as np

from repro.apps.downscaler import CIF, reference

from perfbench.inputs import CHANNELS, FramePool


def test_same_seed_same_inputs_and_goldens():
    a = FramePool.generate(CIF, 2, seed=7)
    b = FramePool.generate(CIF, 2, seed=7)
    c = FramePool.generate(CIF, 2, seed=8)
    for fa, fb, fc in zip(a.channels, b.channels, c.channels):
        for ch in CHANNELS:
            assert np.array_equal(fa[ch], fb[ch])
            assert not np.array_equal(fa[ch], fc[ch])
    for ga, gb in zip(a.goldens, b.goldens):
        for ch in CHANNELS:
            assert np.array_equal(ga[ch], gb[ch])


def test_goldens_are_the_reference_and_read_only():
    pool = FramePool.generate(CIF, 1, seed=3)
    chan = pool.channels[0]["g"]
    assert chan.dtype == np.int32 and chan.shape == CIF.shape
    assert np.array_equal(pool.goldens[0]["g"], reference.downscale_frame(chan, CIF))
    assert not chan.flags.writeable and not pool.goldens[0]["g"].flags.writeable
