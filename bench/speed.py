"""The machine's speed, from the time of a fixed loop, so timings can be put at one speed.

A shared host runs the same code up to about 1.7 times slower for stretches
that last from seconds to many minutes, so wall-clock times of two runs
minutes apart differ by more than most changes to the program.  The loop
below does what most of hsob's time goes to, complex arithmetic in the
interpreter and numpy calls on small arrays, and it is fixed: no change to
hsob changes its time.  A time divided by the :func:`slowness` measured
just before it is the time the same work would take where the loop takes
:data:`REFERENCE_S`.

Code dominated by large numpy arrays slows less than the loop does: the 2-D
quadrature of the kernel cross-checks slows by about 1.25 where the loop
slows by 1.65, so their scaled times read up to a quarter lower on a slow
stretch than on a fast one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the loop's time at the reference speed, about its time on a quiet 2-vCPU
#: Xeon host
REFERENCE_S = 1e-3
_X = np.linspace(0.0, 4.0, 61)


def loop_seconds() -> float:
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    acc, z, w = 0.0, complex(0.3, 0.7), 1 + 0j
    for _ in range(1500):
        w = w * z + 0.25
        acc += abs(w) * 0.5
    for k in range(150):
        acc += float((np.exp(-_X) * np.cos(k * _X)).sum())
    return time.perf_counter() - t0


def slowness(loop_times: list[float]) -> float:
    """How many times slower than the reference the machine ran while the
    loop took these times: their median over the reference time."""
    return statistics.median(loop_times) / REFERENCE_S
