"""Wall-clock timing normalised to a reference host speed.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by up to ~1.8x over seconds to minutes
(measured on a 2-vCPU x86 VM: CPU time tracks wall time, so the
slowdown is in the core itself, not descheduling).  Raw wall times
taken minutes apart are therefore not comparable.

:class:`HostClock` samples the host's speed while a measurement runs:
every :data:`INTERVAL_S` a ``SIGALRM`` handler times a fixed
pure-Python loop (:func:`probe`).  Each wall-clock slice between samples
counts ``REF_PROBE_S / probe time`` reference seconds per wall second,
so a timed block reports the seconds it would take on a host whose probe
takes :data:`REF_PROBE_S`; probe time itself is not counted.  Faster
program code still reads as fewer seconds; a slower host does not.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["INTERVAL_S", "REF_PROBE_S", "HostClock", "probe"]

#: probe duration on the reference host (the VM above at its fastest)
REF_PROBE_S = 1.5e-3
#: seconds between speed samples
INTERVAL_S = 0.1
_PROBE_ITERS = 20_000


def probe() -> int:
    """A fixed amount of interpreter work."""
    s = 0
    for i in range(_PROBE_ITERS):
        s += i * i % 7
    return s


class HostClock:
    """Accumulates host-speed-normalised seconds per key.

    Use as a context manager around the whole measurement (it owns the
    interval timer and ``SIGALRM`` handler while open) and wrap each
    timed block in :meth:`block`.
    """

    def __init__(self):
        #: speed samples taken
        self.probes = 0
        #: reference seconds per wall second, from the latest sample
        self._speed = 1.0
        self._seconds: dict[str, float] = defaultdict(float)
        #: open blocks: key -> wall time counted up to
        self._open: dict[str, float] = {}
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self._speed = REF_PROBE_S / (end - start)
        self.probes += 1
        return start, end

    def _on_alarm(self, signum, frame) -> None:
        start, end = self._sample()
        for key, since in self._open.items():
            self._seconds[key] += (start - since) * self._speed
            self._open[key] = end

    @contextmanager
    def block(self, key: str):
        """Time the enclosed code under ``key``."""
        if key in self._open:
            raise ValueError(f"block {key!r} is already open")
        self._open[key] = time.perf_counter()
        try:
            yield
        finally:
            since = self._open.pop(key)
            self._seconds[key] += (time.perf_counter() - since) * self._speed

    def seconds(self, key: str) -> float:
        """Normalised seconds spent in ``key`` blocks so far."""
        return self._seconds[key]
