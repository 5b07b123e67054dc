"""How fast the box ran while something was timed.

The reference box is a shared 2-core VM whose speed changes by a third
for seconds to minutes at a time, in CPU time as much as in wall time;
raw timings of one commit, run twice, then differ by 10 to 20 %.  The
yardstick is a fixed piece of work, none of it the program's, run every
few milliseconds next to whatever is being timed.  The time it took
says how fast the box was meanwhile, and every time the benchmark
reports is converted with it to what the reference box takes in a calm
minute:

    reported seconds = measured seconds × ``speed``
    reported rate    = measured rate ÷ ``speed``

A change of the program cannot move the yardstick, and a slow minute
moves both sides of the ratio.  README.md has the measurements behind
it (ten runs of each workload: run-to-run spread 0.06 to 0.19 as
measured, 0.02 to 0.05 converted).
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

#: Seconds one ``kernel()`` takes on the reference box in a calm
#: minute.  Only ratios of reported times mean anything, so the value
#: is a convention; this one leaves calm-minute timings as measured.
REFERENCE_S = 0.000260

#: Seconds between two runs of the kernel beside a window (1 % of it).
EVERY_S = 0.02

_FRAME = {"type": "op", "id": 17, "txn": "T000123", "op": "add",
          "object": "o01234", "operand": 7}


def kernel() -> float:
    """Do the fixed work; returns the seconds it took.

    Fifty JSON round trips of a small frame: the interpreter, the
    allocator and C code in the mix the program runs them, on a working
    set that fits the cache.  Arithmetic loops, sorts and walks over a
    large heap were tried beside it and followed the program's speed
    worse, each alone and in any sum (README.md has the figures).
    """
    started = perf_counter()
    for _ in range(50):
        json.loads(json.dumps(_FRAME))
    return perf_counter() - started


def burst() -> list[float]:
    """The kernel twenty times in a row (beside a set-up)."""
    return [kernel() for _ in range(20)]


def speed(kernel_s: list[float]) -> float:
    """Box speed while ``kernel_s`` was sampled: 1.0 = the reference
    box in a calm minute, 0.8 = a fifth slower.

    The mean, because throughput follows the time-average of the box's
    speed, without the slowest twentieth of the samples: a collection
    that starts inside a kernel run is not the box.
    """
    kept = sorted(kernel_s)[:max(1, len(kernel_s) * 19 // 20)]
    return REFERENCE_S / statistics.fmean(kept)
