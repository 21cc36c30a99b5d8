import time

from perfbench.hostclock import HostClock


def test_sampled_clock_scales_by_probe_speed_and_excludes_probe_time():
    clock = HostClock()
    probes = []

    def sample():
        # a fake probe: takes 10 ms and says the host runs at twice the
        # reference speed
        start = time.perf_counter()
        while time.perf_counter() < start + 0.01:
            pass
        end = time.perf_counter()
        probes.append((start, end))
        clock._speed = 2.0
        clock.probes += 1
        return start, end

    clock._sample = sample
    with clock:
        with clock.block("a"):
            opened = time.perf_counter()
            while time.perf_counter() < opened + 0.6:
                pass
            closed = time.perf_counter()
    assert clock.probes > 4
    probed = sum(e - s for s, e in probes if s >= opened and e <= closed)
    # every wall second outside the probes counts as two reference seconds
    assert abs(clock.seconds("a") - 2.0 * (closed - opened - probed)) < 0.01
