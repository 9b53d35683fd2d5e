"""The reference loop, by which the benchmark's times are rescaled.

The shared 2-CPU machine the benchmark was tuned on changed speed by up to
2x, in phases from under a second to several minutes long, so that two runs
of the same code could differ by 40%.  The reference loop is fixed pure-Python
work (bytes indexing, integer arithmetic, dict stores and string joins, as in
the walk and the CLI) that calls no prefixnormal code.  It slows with the
machine, so a stretch of work timed between two runs of the loop is rescaled
by REFERENCE_S over the mean of their two times: it then reads as it would
at the speed at which the loop takes REFERENCE_S.  A change to prefixnormal
moves the rescaled times as much as the raw ones.
"""

from __future__ import annotations

from time import perf_counter

# About the loop's time on an idle 2-CPU x86-64 VM (Xeon, 2.0 GHz) under
# CPython 3.11, so that rescaled times read as seconds on that machine.
REFERENCE_S = 0.004


def loop_seconds() -> float:
    """Seconds the reference loop takes now."""
    t0 = perf_counter()
    buf = bytearray(b"1101001000100001" * 64)
    total, seen, rows = 0, {}, []
    for _ in range(30):
        for i in range(len(buf)):
            total += buf[i] & 1
            seen[i & 255] = total
        rows.append("".join("1" if buf[j] & 1 else "0" for j in range(0, len(buf), 4)))
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that rescales work timed between two runs of the loop."""
    return 2 * REFERENCE_S / (before + after)
