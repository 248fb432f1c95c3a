"""Host-speed probe, timed next to every measured call.

The host's CPU speed switches between states that last seconds to minutes,
by a factor of up to two. Process CPU time follows wall time, so neither
clock removes it. The probe is a fixed piece of work in the same mix the
pipeline does, interpreter-bound dict and sort work plus single-threaded
numpy; it runs just before and just after each measured call. A timing is
reported at reference speed:

    reported = wall seconds * REFERENCE_S / (mean of the two probe times)

A change to xlog moves the wall time and leaves the probe alone, so it moves
the reported time by the same factor. A change of host speed moves both.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter

import numpy as np

#: probe time on the machine the bounds were set on (median of many probes);
#: only scales the reported figures, which are compared between runs
REFERENCE_S = 0.002

_KEYS = [f"act_{i % 53}_{i % 7}" for i in range(1500)]
_VALUES = np.random.default_rng(0).standard_normal(2048)


def _kernel() -> None:
    a, b = Counter(_KEYS[::2]), Counter(_KEYS[1::3])
    keys = set(a) | set(b)
    sum(min(a[k], b[k]) for k in keys) / sum(max(a[k], b[k]) for k in keys)
    sorted(_KEYS, key=lambda s: (len(s), s))
    x = _VALUES
    for _ in range(4):
        order = np.argsort(x, kind="stable")
        x = np.tanh(np.cumsum(x[order]) * 1e-3) + _VALUES


def probe() -> float:
    """Median seconds of three runs of the fixed kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn):
    """Run ``fn()`` from a freshly collected heap; return (its result, wall
    seconds, seconds at reference speed)."""
    gc.collect()
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    after = probe()
    return result, wall, wall * REFERENCE_S / ((before + after) / 2)
