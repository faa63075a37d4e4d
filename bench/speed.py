"""The machine's speed, sampled while a timed part runs.

On a shared machine the speed of one core drifts by a third or more over tens
of seconds, because of what other tenants run.  A run of ten seconds cannot
average that out, and two runs a minute apart can differ by 40% with nothing
changed.  So every untraced part runs inside a ``Sampler``: a SIGALRM handler
times a fixed reference kernel (``kernel_s``, small numpy operations plus a
pure-Python loop, nothing of mfrn) every ``PERIOD_S`` seconds, and once more
before and after the part.  The part's time is reported at reference speed,

    scaled = raw × REF_S / median of the kernel's times,

where ``raw`` excludes the time spent in the handler.  A change to mfrn moves
``raw`` and leaves the kernel alone, so it shows in ``scaled`` in full; a
slowdown of the machine moves both, and cancels.  The raw times stay in the
detail line.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# The kernel's median time, in seconds, on the 2-vCPU Xeon KVM guest that the
# reference figures in README.md come from: scaled times read as seconds there.
REF_S = 0.008
_X = np.linspace(0.0, 1.0, 4096)


def kernel_s() -> float:
    """Time one run of the reference kernel (about REF_S at reference speed)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        acc += float((np.cumsum(_X) * 0.5 + np.roll(_X, 1))[-1])
    for i in range(15000):
        acc += i * 0.5
    return time.perf_counter() - t0


def scale(raw: float, samples: list[float]) -> float:
    return raw * REF_S / statistics.median(samples)


class Sampler:
    """Times the block it wraps and samples the kernel during it.

    ``raw`` is the block's time without the handler's; ``scaled`` is it at
    reference speed.  With ``active=False`` it only times the block, and
    ``scaled`` equals ``raw``."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0
        self.raw = self.scaled = 0.0

    def _tick(self, *_) -> None:
        d = kernel_s()
        self.samples.append(d)
        self.spent += d

    def __enter__(self) -> "Sampler":
        if self.active:
            self._tick()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.spent = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        elapsed = time.perf_counter() - self._t0
        self.raw = elapsed - self.spent
        if self.active:
            self._tick()
            self.scaled = scale(self.raw, self.samples)
        else:
            self.scaled = self.raw
