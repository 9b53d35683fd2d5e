#!/usr/bin/env python3
"""The longest preperiod among all seeds of a length, against the paper's bound.

Every prefix normal seed w ending in 1 extends to an infinite word that is
ultimately periodic.  The paper bounds the preperiod by
(C(iota, kappa) - 1) * m * iota, which grows exponentially with |w|.  This
script certifies the period of every such seed of each length n and prints
the longest canonical preperiod found, one seed that attains it, and that
seed's bound.

Conjecture (exhaustive for 8 <= n <= 21, and checked on the families at
longer n): the longest preperiod is quadratic in n,
  (n^2 - 7n + 8)/2   for even n >= 8, attained by 111 (01)^((n-8)/2) 00101,
  (n^2 - 8n + 21)/2  for odd n >= 9,  attained by 11 (01)^((n-7)/2) 00101.

Usage: python3 demos/04_worst_preperiod.py [N]   (lengths 1 .. N, default 16)
"""

import sys

from prefixnormal import detect_period, iter_all

N = int(sys.argv[1]) if len(sys.argv) > 1 else 16


def family(n: int) -> str | None:
    """The conjectured worst seed of length n, or None below its range."""
    if n >= 8 and n % 2 == 0:
        return "111" + "01" * ((n - 8) // 2) + "00101"
    if n >= 9:
        return "11" + "01" * ((n - 7) // 2) + "00101"
    return None


def formula(n: int) -> int | None:
    if n >= 8 and n % 2 == 0:
        return (n * n - 7 * n + 8) // 2
    if n >= 9:
        return (n * n - 8 * n + 21) // 2
    return None


print(f"{'n':>3} {'seeds':>6} {'max preperiod':>13} {'conjecture':>10} "
      f"{'paper bound':>12}  worst seed")
for n in range(1, N + 1):
    seeds = 0
    best = None
    for w in iter_all(n):
        if w.endswith("1"):
            seeds += 1
            rep = detect_period(w)
            if best is None or len(rep.preperiod) > len(best.preperiod):
                best = rep
    guess = formula(n)
    print(f"{n:>3} {seeds:>6} {len(best.preperiod):>13} "
          f"{'-' if guess is None else guess:>10} {best.preperiod_bound:>12}  {best.seed}")
    if guess is not None:
        # The sweep attains the conjectured maximum, and the family's seed
        # attains it too (a different seed may tie).
        assert len(best.preperiod) == guess, f"the conjecture fails at n = {n}"
        assert len(detect_period(family(n)).preperiod) == guess, f"the family misses at n = {n}"
