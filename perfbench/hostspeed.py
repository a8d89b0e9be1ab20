"""Host speed probe and the sampler that scales host seconds by it.

A shared host's speed drifts: between runs it stretched raw op times by
up to 1.5x, in phases from under a second to minutes long.  The
benchmark times a fixed pure-Python probe before, during and after each
timed section and reports the section in *reference seconds*: seconds on
a host where the probe takes ``REFERENCE_PROBE_S``.  Op time is linear in
host slowness, so the scale uses the mean of the probe samples.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Seconds the probe takes on the reference host.  Any fixed value works;
# this one is near the probe's fast-phase time on a 2-core x86 host.
REFERENCE_PROBE_S = 0.010


class _Slot:
    __slots__ = ("key", "value")


def host_probe_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python mix.

    The mix imitates the simulator's own host work (object allocation,
    attribute access, dict updates, float list building and sorting), so
    a slowdown stretches it about as much as it stretches an op.  It uses
    no imports, so it also runs while ``repro`` is being imported.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()  # a collection would time the heap, not the host
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            objects = []
            table = {}
            for i in range(20_000):
                slot = _Slot()
                slot.key = i
                slot.value = float(i)
                objects.append(slot)
                table[i] = slot.value
            for slot in objects:
                table[slot.key] += slot.value
            sorted([float(i) for i in range(20_000)], reverse=True)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Sampler:
    """Times one section with the host probe sampled around and inside it.

    Inside the ``with`` block a timer interrupts every ``interval``
    seconds to time the probe once; that time is taken off ``seconds``.
    After the block, ``seconds`` is the section's host seconds and
    ``scaled`` its reference seconds.  ``interval=None`` samples only
    before and after (for sections whose own spans the probe would
    pollute).
    """

    def __init__(self, interval: float | None) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.seconds = 0.0
        self._excluded = 0.0

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        self.samples.append(host_probe_s(repeats=1))
        self._excluded += time.perf_counter() - begin

    def __enter__(self) -> "Sampler":
        self.samples.append(host_probe_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # Read both before disarming: a probe that fires after the
        # section ended is neither in its time nor taken off it.
        self.seconds = time.perf_counter() - self._start - self._excluded
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(host_probe_s())

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_PROBE_S * len(self.samples) / sum(self.samples)
