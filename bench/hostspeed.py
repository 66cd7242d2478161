"""Host speed probe, and timings scaled to a reference host speed.

The benchmark runs on shared hosts where other tenants' load changes how
fast this process runs by up to about 1.5x, in phases that last from
under a second to minutes.  Identical job lists then differ by 30% or
more between runs, which would hide any change smaller than that.

A probe is a fixed piece of exact rational arithmetic, in the
benchmark's own code, that never touches the engine; its wall time
follows the host's current speed.  Probes run between jobs, outside the
timed regions, and every timing is multiplied by ``REF_S`` over the mean
of the probes taken just before and just after it.  A reported time is
therefore the time the job would take on a host where the probe takes
``REF_S``; the unscaled times are kept in the run record.  A faster
engine changes job times but not probe times, so scaling keeps a real
gain and removes the host's drift.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

import oracle

REF_S = 0.001
_ROWS = [[Fraction((7 * i + 3 * j) % 11 + 1, (5 * i + j) % 7 + 2) for j in range(12)]
         for i in range(7)]


def probe() -> float:
    """Wall time of one fixed exact rank computation (about 1 ms)."""
    t0 = time.perf_counter()
    oracle.rank(_ROWS)
    return time.perf_counter() - t0


def scale(times: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Scale ``times[i]`` by the mean of the probes taken just before and
    just after it.

    ``probes`` holds ``(n, seconds)`` pairs in order, ``n`` being how many
    timings preceded the probe; the first probe precedes every timing.
    """
    after = [n for n, _ in probes]
    out = []
    for i, t in enumerate(times):
        k = bisect.bisect_right(after, i)
        near = [d for _, d in probes[k - 1:k + 1]]
        out.append(t * REF_S * len(near) / sum(near))
    return out
