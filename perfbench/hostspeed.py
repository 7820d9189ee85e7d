"""Host-speed probe: rescales a measured span to a fixed reference speed.

On a shared host the speed of a core can drift by half, in phases of a
few seconds to minutes, without any steal time to show it (another
tenant's work on the same physical core), and CPU time tracks wall time.
Identical work then takes anywhere from 41 s to 64 s.  A median over
runs cannot remove drift that lasts longer than the runs.

``SpeedProbe`` times a fixed pure-Python loop (``probe_once``) every
``interval`` seconds of a span, from a SIGALRM handler in the measured
process itself, so it samples the same core at the same moments as the
program.  The work the program does in a short slice dt is proportional
to dt / p, with p the probe's duration at that moment, so

    ref_seconds = (clock seconds - probe seconds) * REF_PROBE_S * mean(1 / p)

is the time the span would take on a host where the probe takes
REF_PROBE_S.  A faster program lowers it in proportion; a slower or
faster host phase does not move it.  The probe adds about 0.5 % to a
span at the default interval and is subtracted again.

The probe is integer arithmetic in the interpreter loop.  A loop of
dict and tuple work, closer to polynomial arithmetic, tracked the
program's drift worse: it over-corrected by a factor of two.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_PROBE_S = 0.0004    # about the probe's duration on the reference host
INTERVAL_S = 0.1
LOOP = 5000


def probe_once() -> float:
    """Seconds one pass of the fixed loop takes right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples host speed while its block runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(probe_once())

    def __enter__(self):
        self.samples.append(probe_once())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """Host speed over the block, relative to the reference (1 = same)."""
        return REF_PROBE_S * statistics.fmean(1 / p for p in self.samples)

    def ref_seconds(self, clock_s: float) -> float:
        """``clock_s``, a span measured inside the block, in reference
        seconds.  Probes run inside the block before the span starts
        (the first sample) are not part of it; the rest are."""
        inside = sum(self.samples[1:])
        return max(clock_s - inside, 0.0) * self.speed()
