"""Machine-speed calibration of the times behind verify_s and cli_s.

The benchmark runs on a shared host whose speed drifts: the same pure-Python
work takes up to 80 % longer in some minutes than in others, with no steal
time to show for it, so CPU time drifts with wall time.  Medians over a run
cannot remove a drift that lasts longer than the run.

So a fixed reference loop, which is part of the benchmark and never changes
with the program, is timed at calibration points between pieces of measured
work.  Kinds of work drift by different amounts, so each workload names the
loop (in ``REFERENCES``) whose drift follows that of its pass.  Each
calibration point runs the loop for about ``REF_SHARE`` of the segment of
work it ends, so a long segment gets a long, steady sample.  A piece's wall
time is scaled by ``NOMINAL_S`` over the mean time of one loop in the
calibration points within ``WINDOW_S`` of it.  A scaled time reads in seconds
on a machine that runs the loop in ``NOMINAL_S``, about this host's typical
speed; the raw wall times are printed beside it.  The program's own work is
never scaled away: if it does more work, its wall time grows and the
reference loop's does not.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010   # either reference loop's typical time on the development host
REF_SHARE = 0.03    # a calibration point runs the loop for this share of its segment
SLICE_S = 0.3       # a verification pass is cut at its first call boundary after this
WINDOW_S = 0.5      # calibration points this close to a piece of work calibrate it


_FRACTION_ITERS = 2_200
_rng = random.Random(0)
_OPERANDS = [Fraction(_rng.randrange(1, 1000), _rng.randrange(1, 1000))
             for _ in range(_FRACTION_ITERS + 2)]


def integer_loop() -> float:
    """Wall seconds of a tight loop of small-integer arithmetic."""
    t0 = perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return perf_counter() - t0


def fraction_loop() -> float:
    """Wall seconds of Fraction arithmetic on fixed operands: small-object
    allocation, method dispatch and gcds."""
    f = _OPERANDS
    t0 = perf_counter()
    for i in range(_FRACTION_ITERS):
        f[i] * f[i + 1] + f[i + 2]
    return perf_counter() - t0


REFERENCES = {"integer": integer_loop, "fraction": fraction_loop}


class Clock:
    """Wall time cut into segments by runs of the reference loop.

    ``lap()`` ends the current segment, runs the named reference loop and returns a
    mark: (wall seconds in segments so far, time of the cut).  The reference
    runs' own time is in no segment.  A piece of work is measured between
    the marks of the laps around it, with ``scaled``.
    """

    def __init__(self, reference="integer"):
        self.reference = REFERENCES[reference]
        self.points = []    # (middle of a calibration point, loops run, their seconds)
        self.raw = 0.0
        self._reference(1)

    def _reference(self, loops):
        t0 = perf_counter()
        total = sum(self.reference() for _ in range(loops))
        self.points.append((t0 + total / 2, loops, total))
        self._t = perf_counter()

    def lap(self):
        now = perf_counter()
        segment = now - self._t
        self.raw += segment
        self._reference(max(1, round(REF_SHARE * segment / NOMINAL_S)))
        return self.raw, now

    def tick(self):
        """Lap if the current segment is longer than SLICE_S."""
        if perf_counter() - self._t >= SLICE_S:
            self.lap()

    def scaled(self, start, end):
        """(raw, scaled) seconds of the work between two marks."""
        raw = end[0] - start[0]
        lo, hi = start[1] - WINDOW_S, end[1] + WINDOW_S
        near = [(n, s) for t, n, s in self.points if lo <= t <= hi]
        ref = sum(s for _, s in near) / sum(n for n, _ in near)
        return raw, raw * NOMINAL_S / ref
