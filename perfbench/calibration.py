"""Host-speed calibration: a fixed pure-Python loop, timed between ops.

On a shared host the speed of a vCPU drifts by up to a factor of two over
tens of seconds, for every kind of work alike: the ratio between a
30k-row and a 3k-row Figure 2 op held within ±7% while both moved by
±35%.  The raw time of a run therefore follows the share of the run the
host spent fast, and two runs of the same code a minute apart disagree by
more than any useful bound.

Each workload times this loop at fixed points between its ops (never while
an op of its own runs), so the samples see the host at the same moments as
the ops.  A host-adjusted percentile scales the raw percentile of the op
latencies by the loop's percentile at the same rank::

    query_ms_ref.pX = query_ms.pX * REFERENCE_MS / calibration_ms.pX

that is, the latency the op would have on a host where the loop takes
``REFERENCE_MS``.  A change to the program moves it as it moves the raw
latency; a change in host speed moves the op and the loop together and
cancels.  The loop is plain interpreter work (dict and list updates,
integer arithmetic, string conversion), like the pure-Python engine.
"""

from __future__ import annotations

import time
from typing import List

_now = time.perf_counter

#: The loop's median time in ms on the reference host (a 2-vCPU Xeon VM at
#: 2.0 GHz, CPython 3.11, at its usual speed); the adjusted metrics equal
#: the raw ones on a host where the loop takes this long.
REFERENCE_MS = 5.0

_ITERATIONS = 12_000


def calibration_loop() -> int:
    """The fixed unit of interpreter work whose time is the host's speed."""
    table: dict = {}
    digits = 0
    for i in range(_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0) + (i * 3) // 7
        digits += len(str(i))
    return sorted(table.values())[0] + digits


class Calibration:
    """The loop's times over one run, in seconds."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        start = _now()
        calibration_loop()
        self.samples.append(_now() - start)
