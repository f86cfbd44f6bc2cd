"""Machine-speed probe, used to put wall times on one reference speed.

On a shared 2-core x86 machine the same interpreter-bound code runs at two
speeds about 1.6x apart that switch every few seconds, and CPU time tracks
wall time, so neither 40 s runs nor process time absorb it.  The benchmark
therefore times a fixed pure-Python probe between requests and rescales
each request's wall time by REFERENCE_S / (probe time around that
request): the time the request would have taken on a machine where the
probe takes REFERENCE_S.  The probe uses no frullani code, so a change to
the package cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

# probe time in the fast state of a shared 2-core x86 machine with CPython 3.11
REFERENCE_S = 36e-6
_WEIGHTS = tuple(1.0 / (j + 1) for j in range(15))


def _kernel(x: float) -> float:
    return math.exp(-x) * math.cos(x) / (1.0 + x)


def probe() -> float:
    """Seconds one fixed quadrature-like pure-Python workload takes now."""
    start = time.perf_counter()
    values = [0.0] * 15
    total = 0.0
    for k in range(8):
        c = 0.5 + k
        for j in range(15):
            values[j] = _kernel(c + 0.03 * j)
        total += sum(w * v for w, v in zip(_WEIGHTS, values))
    return time.perf_counter() - start


def rescaled(latencies: list, probes: list, half_window: int = 3) -> list:
    """latencies[i] ran between probes[i] and probes[i + 1]; rescale each by
    the median probe time over the window of probes around it."""
    if len(probes) != len(latencies) + 1:
        raise ValueError("need one probe before each request and one after the last")
    out = []
    for i, latency in enumerate(latencies):
        window = probes[max(0, i + 1 - half_window): i + 1 + half_window]
        out.append(latency * REFERENCE_S / statistics.median(window))
    return out
