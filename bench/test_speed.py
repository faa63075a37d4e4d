"""The speed sampler: the handler's time is left out of the part's time."""

import time

import speed


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_excludes_its_own_time():
    t0 = time.perf_counter()
    with speed.Sampler() as s:
        busy(1.0)
    outside = time.perf_counter() - t0
    # one kernel before, about four during, one after
    assert len(s.samples) >= 4
    # the busy loop ends at a fixed time, so handler time comes out of it
    assert abs(s.raw + s.spent - 1.0) < 0.02
    assert s.raw < 1.0 and outside > 1.0
    assert s.scaled == speed.scale(s.raw, s.samples)


def test_inactive_sampler_only_times():
    with speed.Sampler(active=False) as s:
        busy(0.3)
    assert s.samples == [] and s.spent == 0.0
    assert s.scaled == s.raw >= 0.3
