"""Host-speed calibration: seconds at one reference speed, next to raw.

The sandbox's effective CPU speed is not constant.  A fixed kernel reads
0.85-1.1 x `REFERENCE_S` when the box is calm and 1.4-1.9 x for hours at
a time when a neighbour contends for the core, flipping between the two
within seconds in between.  Raw seconds follow it: the first baseline of
`dense_range_procs` was taken at a reading of 1.93 and a raw median of
0.334 s, a later one at 1.03 and 0.180 s, on the same code and input.

So every timed region is bracketed by `measure()`: a fixed 60-100 ms
kernel in the shape of the program's own hot loop (small-block numpy
distance scans driven by the interpreter).  The mean of the reading
before and after is the region's *speed factor*, and the gated metrics
are raw seconds divided by it: "seconds at the reference host speed".
The two baselines above read 0.1735 s and 0.1731 s that way.  The raw
median is printed and stored next to every such value, and
``host_speed`` with every table; the kernel belongs to the benchmark,
not to the program, so parent and change are scaled by the same rule.

What the factor cannot see: the kernel runs on one core while a
`processes[2]` fit uses two, and a flip inside a region is averaged, not
followed.  Measured on the same samples, ten seeds per workload on a
calm box: the spread (IQR / median) of the run medians is 1.4-5.0%
scaled and 4-17% raw (README.md has the table).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

#: About one kernel pass on this sandbox with the core to itself.  Only
#: the unit depends on it: every reported time scales with it alike.
REFERENCE_S = 0.010
_PASSES = 6
_BLOCK = np.random.default_rng(0).normal(size=(64, 10))


def _kernel() -> float:
    t0 = time.perf_counter()
    hits = 0
    for i in range(1500):
        diff = _BLOCK - _BLOCK[i % 64]
        d2 = np.einsum("ij,ij->i", diff, diff)
        hits += int((d2 <= 1.0).sum())
    return time.perf_counter() - t0


def measure() -> float:
    """The host's speed factor right now (>1: slower than the reference)."""
    return sum(_kernel() for _ in range(_PASSES)) / _PASSES / REFERENCE_S


@contextmanager
def bracket():
    """Read the host speed before and after the block.

    Yields a holder whose ``speed`` is the mean of the two readings once
    the block has ended: raw seconds measured inside, divided by it, are
    seconds at the reference speed.
    """
    region = SimpleNamespace(speed=float("nan"))
    before = measure()
    try:
        yield region
    finally:
        region.speed = (before + measure()) / 2
