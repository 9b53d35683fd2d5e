#!/usr/bin/env python3
"""Growing a prefix normal word forever, and predicting how it settles down.

Repeatedly appending the shortest 0-run plus a 1 keeps the word prefix
normal and as dense as possible.  The limit is an infinite word that turns
periodic.  The next 0-run depends only on the last len(seed) - 1 symbols,
and the period's length and number of 1s are already determined by the
seed's minimum-density prefix.  So the engine certifies the period as soon
as that window repeats at the predicted distance; the period's number of
1s is then checked.
"""

from prefixnormal import (
    density_profile,
    detect_period,
    extend_min,
    stream_prefix,
)

seed = "110100101001"
print(f"seed          {seed}")
prof = density_profile(seed)
print(f"min density   {prof.density} attained by the first {prof.length} symbols "
      f"({prof.ones} ones)")

print("\nfirst extension steps:")
cur = seed
for i in range(4):
    cur = extend_min(cur)
    print(f"  step {i + 1}: {cur}")

print("\nstream prefix (80 symbols):")
print(" ", stream_prefix(seed, 80))

print("\ncertified decomposition:")
for w in ("1", "101", "1101", seed):
    rep = detect_period(w)
    shown = rep.preperiod if rep.preperiod else "(empty)"
    print(f"  seed {w}")
    print(f"    preperiod {shown}")
    print(f"    period    {rep.period}  (length {rep.block_len}, "
          f"{rep.block_ones} ones, bound on preperiod {rep.preperiod_bound}, "
          f"scanned {rep.scanned_length})")
    assert all(rep.checks.values())

print("\nreport as JSON:")
print(detect_period("101").to_json())
