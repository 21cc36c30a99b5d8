"""Seeded inputs, their NumPy goldens, and the adapters that serve them.

Everything here runs before a workload's clock starts.  Frames are
uniform random 24-bit RGB drawn from ``numpy.random.default_rng(seed)``;
each channel's golden output comes from the independent NumPy reference
:func:`repro.apps.downscaler.reference.downscale_frame`.  The program
only ever sees these arrays, and every output it produces is compared
with the golden bit for bit.

The stock downscaler jobs synthesise frames and goldens on demand behind
an 8-entry LRU; validating every frame at HD would thrash it and put
~0.35 s of reference computation per channel inside the timed loop.
:class:`SeededFrameJob` serves the pre-computed pool instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.downscaler import reference
from repro.apps.downscaler.config import FrameSize
from repro.apps.downscaler.serving import downscaler_job
from repro.runtime.pipeline import PipelineJob
from repro.tune import DownscalerSubject

__all__ = ["FramePool", "SeededFrameJob", "SeededSubject", "CHANNELS"]

CHANNELS = "rgb"


@dataclass(frozen=True)
class FramePool:
    """``count`` seeded frames of one size, split per channel, with goldens."""

    size: FrameSize
    channels: tuple[dict[str, np.ndarray], ...]
    goldens: tuple[dict[str, np.ndarray], ...]

    @classmethod
    def generate(cls, size: FrameSize, count: int, seed: int) -> "FramePool":
        rng = np.random.default_rng(seed)
        channels, goldens = [], []
        for _ in range(count):
            frame = rng.integers(0, 256, size=(*size.shape, 3), dtype=np.int32)
            chans = {c: np.ascontiguousarray(frame[..., i]) for i, c in enumerate(CHANNELS)}
            golds = {c: reference.downscale_frame(chans[c], size) for c in CHANNELS}
            for arr in (*chans.values(), *golds.values()):
                arr.setflags(write=False)
            channels.append(chans)
            goldens.append(golds)
        return cls(size, tuple(channels), tuple(goldens))

    def __len__(self) -> int:
        return len(self.channels)


class SeededFrameJob(PipelineJob):
    """A route's stock downscaler job, fed from a :class:`FramePool`.

    Compilation is the stock job's (so the compile cache sees the same
    keys); frame ``f`` of a run is pool entry ``(offset + f) % len(pool)``.
    """

    def __init__(self, route: str, pool: FramePool):
        self._stock = downscaler_job(route, size=pool.size)
        self.route = route
        self.pool = pool
        self.size = pool.size
        self.name = self._stock.name
        self.instances_per_frame = self._stock.instances_per_frame
        self.offset = 0

    def compile(self, cache):
        return self._stock.compile(cache)

    def _entry(self, frame: int) -> int:
        return (self.offset + frame) % len(self.pool)

    def env(self, frame: int, instance: int) -> dict[str, np.ndarray]:
        chans = self.pool.channels[self._entry(frame)]
        if self.route == "sac":
            return {"frame": chans[CHANNELS[instance]]}
        return {f"in_{c}": chans[c] for c in CHANNELS}

    def golden(self, frame: int, instance: int, program) -> dict[str, np.ndarray]:
        golds = self.pool.goldens[self._entry(frame)]
        if self.route == "sac":
            return {program.host_outputs[0]: golds[CHANNELS[instance]]}
        return {f"out_{c}": golds[c] for c in CHANNELS}


class SeededSubject(DownscalerSubject):
    """The tuner's downscaler subject, validating winners on pool frame 0."""

    def __init__(self, route: str, pool: FramePool):
        super().__init__(route, size=pool.size)
        self._seeded = SeededFrameJob(route, pool)

    def env(self, instance: int) -> dict[str, np.ndarray]:
        return self._seeded.env(0, instance)

    def golden(self, instance: int, program) -> dict[str, np.ndarray]:
        return self._seeded.golden(0, instance, program)
