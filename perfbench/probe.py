"""Host-speed probe: a fixed reference kernel timed next to the program.

On a shared host the CPU speed seen by one process drifts by tens of
percent for seconds to minutes at a time, as neighbours compete for the same
cores and caches.  The worker times this kernel just before and just after
every command, outside the command's timing, and the benchmark scales the
command's seconds by ``REFERENCE_S / probe``: the time the command would
have taken at the host speed where the kernel takes ``REFERENCE_S``.  The
set-up samples are scaled the same way.  It is benchmark code: a change to
smallfdr never changes the kernel, so a faster program still shows as a
proportionally smaller scaled time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import special

REPEATS = 5

# The kernel's median time on an uncontended core of the host that recorded
# the baseline (Intel Xeon, 2 vCPUs); about 9.5-12 ms when the host is busy.
REFERENCE_S = 0.006

_GRID = np.linspace(0.001, 0.3, 8000)


def _kernel() -> None:
    """Interpreter loop over a dict, float formatting, NumPy sort and SciPy betainc."""
    counts: dict[int, float] = {}
    for i in range(24000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
    text = ",".join(format(v, ".12g") for v in _GRID[:2400])
    np.maximum.accumulate(np.sort(_GRID * float(len(text))))
    special.betainc(3.0, 50.0, _GRID)
    special.betainc(40.0, 900.0, _GRID * 0.1)


def measure() -> float:
    """Median seconds of REPEATS runs of the reference kernel."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the kernel took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
