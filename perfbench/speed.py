"""Machine speed sampled alongside the workload, and times scaled by it.

The benchmark shares a few cores of a busy host.  A fixed loop of
``Fraction`` additions, timed over and over, runs at its best speed for a
while and then 1.3 to 2 times slower for anything from a tenth of a second
to several seconds; CPU time slows as much as wall time, so the lost speed
is contention for the core, not time spent descheduled.  A best-of or a
median over a run cannot hide stretches that long.

So every timed process samples its own speed while it works: a timer signal
runs ``probe`` (fixed ``Fraction`` arithmetic, like the library's hot path)
every ``PERIOD_S`` and keeps its start and duration.  ``Sampler.scale``
turns a unit's wall time into the time it would have taken at the speed
where ``probe`` takes ``PROBE_REF_S``: its wall time, minus the probes that
ran inside it, times ``PROBE_REF_S`` over the mean probe time around it.
``PROBE_REF_S`` is the probe's best time on the machine the benchmark was
written on, so the scaled times read as on that machine at its quietest.

Nothing here imports the library.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.002
PROBE_REF_S = 30e-6
# Probes are looked for this far on either side of a unit; a unit shorter
# than the period still sees a few, and the speed holds that long.
AROUND_S = 0.005
# A probe slower than this many times the fastest one was preempted, not
# slowed; it is counted at this ratio.
PROBE_CAP = 3.0


def probe(fraction) -> object:
    total = fraction(0)
    for i in range(1, 11):
        total += fraction(1, i % 7 + 2)
    return total


class Sampler:
    """Timer-driven speed probes for one process; one ``start`` per process."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._prefix: list[float] | None = None

    def start(self) -> None:
        from fractions import Fraction

        starts, durations = self.starts, self.durations

        def sample(signum, frame):
            start = perf_counter()
            probe(Fraction)
            end = perf_counter()
            starts.append(start)
            durations.append(end - start)

        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        while len(self.starts) < 4:  # a short round still gets a speed
            pass
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._prefix = None

    def mean_probe_s(self) -> float:
        """Mean capped probe time of everything sampled."""
        return self._window_mean(0, len(self.starts))

    def _window_mean(self, lo: int, hi: int) -> float:
        if self._prefix is None:
            cap = PROBE_CAP * min(self.durations)
            self._prefix = [0.0]
            for duration in self.durations:
                self._prefix.append(self._prefix[-1] + min(duration, cap))
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def scale(self, spans: list) -> list:
        """Seconds at reference speed for each (start, end) wall-clock span."""
        if not self.starts:
            raise RuntimeError("no speed samples were taken")
        starts, durations = self.starts, self.durations
        scaled = []
        for start, end in spans:
            inside = sum(
                durations[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
            )
            lo = bisect.bisect_left(starts, start - AROUND_S)
            hi = bisect.bisect_right(starts, end + AROUND_S)
            if hi - lo < 2:  # the timer was late; take the nearest samples
                middle = bisect.bisect_left(starts, (start + end) / 2)
                lo, hi = max(middle - 2, 0), min(middle + 2, len(starts))
            wall = max(end - start - inside, 0.0)
            scaled.append(wall * PROBE_REF_S / self._window_mean(lo, hi))
        return scaled


def time_import(module: str, samples: int = 25) -> None:
    """Run in a fresh interpreter: import ``module``, then print when that
    ended on the shared monotonic clock and the mean probe time just after.

    The probes run after the import, so that it pays for no module the
    library would not load itself; the speed they see holds for longer
    than the import takes.
    """
    __import__(module)
    done = perf_counter()
    sampler = Sampler()
    sampler.start()
    while len(sampler.starts) < samples:
        pass
    sampler.stop()
    print(repr(done), repr(sampler.mean_probe_s()))
