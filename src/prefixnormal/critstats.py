"""Enumeration and statistics of prefix normal words by critical prefix.

The words of length n whose critical prefix is exactly 1^s 0^t form one seed
word plus one flip-subtree of the generation tree, so they can be listed
without touching the rest of the language, and counted by the generator's
counting walk without building a single word.  These classes partition
every nonzero word, so class sizes are the only counting path: the (s, t)
table lists them, and the histogram of critical prefix lengths folds them
along the diagonals s + t, with the all-zero word added to bin n.  Every
entry point reads its class roots in closed form from (s, t) (`_classes`):
`critset` lists a seed and its root's subtree, and a count, of one class or
of a table or histogram, is one `_count` batch in the calling process.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, islice

from .generate import DEFAULT_GEN_CAP, Order, _checked_order, _count, _tree, _visit_each
from .words import _checked_length, _integer


def _classes(n: int, classes: list[tuple[int, int]]):
    """The classes (s, t) of length n (s >= 1, t >= 0), in one pass, as
    (sizes, roots): sizes[i] is 1 when class i holds its seed, its one word
    outside the tree, and 0 when the class is empty, and roots maps i to
    the 1-based positions of the 1s of the seed's flip child, whose
    flip-subtree holds every other word, when it has one.

    The seed 1^s 0^t 1 0^(n-s-t-1) has its 1s at 1..s and s+t+1, which
    ops._run pairs to min_flip 2t + 3 when s == 1 (the one pair a_2 + a_2)
    and s + t + 2 otherwise (a_2 + a_k beats each inner pair
    x + (s + 3 - x)).  With t == 0 and symbols left over, the next one
    would be a 1 and the leading 1-run longer than s, so the class is empty.
    """
    sizes, roots = [], {}
    for i, (s, t) in enumerate(classes):
        if 0 < t < n - s:
            sizes.append(1)
            phi = 2 * t + 3 if s == 1 else s + t + 2
            if phi <= n:
                roots[i] = [*range(1, s + 1), s + t + 1, phi]
        else:
            sizes.append(int(s + t == n))
    return sizes, roots


def _checked_class(n: int, s: int, t: int) -> tuple[int, int, int]:
    """(n, s, t) as ints: ValueError for a query that is not three integers
    or denotes no class."""
    n, s, t = _checked_length(n), _integer(s, "s"), _integer(t, "t")
    if s < 1:
        raise ValueError("s must be >= 1; only the all-zero word has s == 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return n, s, t


def _sizes(n: int, classes: list[tuple[int, int]]) -> list[int]:
    """The sizes of the classes (s, t) of length n, with every flip-subtree
    counted in one `_count` batch."""
    sizes, roots = _classes(n, classes)
    for i, count in zip(roots, _count(list(roots.values()), n)):
        sizes[i] += count
    return sizes


def critset(n: int, s: int, t: int, visit, order: Order = Order.LEX, *,
            lines: bool = False) -> int:
    """Visit the prefix normal words of length n with critical prefix 1^s 0^t.

    Requires s >= 1 (the all-zero word is the only one with s == 0 and is
    never part of any class here).  Queries with s + t > n are legal and
    denote the empty set.  Each word reaches `visit` as a str, or as text
    chunks with `lines=True` (see generate.generate_all).  Returns the
    number of words visited.
    """
    n, s, t = _checked_class(n, s, t)
    _checked_order(order)
    (size,), roots = _classes(n, [(s, t)])
    if not size:
        return 0
    # The seed 1^s 0^t 1 0^(n-s-t-1), cut to n, is prefix normal: a factor
    # that reaches the lone 1 from the leading run spans the t zeros.  LEX
    # lists it before its flip subtree; post-order ends the subtree on its
    # root, one flip from the seed, which comes last.  The root, a flip child
    # of a prefix normal seed, is listed from its positions without
    # re-checking it.  The seed is a chunk of its own.
    seed = ("1" * s + "0" * t + "1" + "0" * (n - s - t - 1))[:n] + "\n"
    tree = _tree(roots[0], n, order) if roots else ()
    return _visit_each(chain((seed,), tree) if order is Order.LEX else chain(tree, (seed,)),
                       visit, lines)


def critset_count(n: int, s: int, t: int) -> int:
    """Size of the class with critical prefix 1^s 0^t among length-n words."""
    n, s, t = _checked_class(n, s, t)
    return _sizes(n, [(s, t)])[0]


class CountsTable(namedtuple("CountsTable", "n s_values t_values cells")):
    """Class sizes on a rectangular (s, t) range; rows are s, columns are t.

    The t range starts at 0 so the table can cover every nonzero class; the
    all-zero word belongs to no class and is reported separately.
    """

    __slots__ = ()

    def total(self) -> int:
        return sum(self.cells.values())

    def to_csv(self) -> str:
        lines = ["s\\t," + ",".join(str(t) for t in self.t_values)]
        for s in self.s_values:
            lines.append(f"{s}," + ",".join(str(self.cells[s, t]) for t in self.t_values))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        return json.dumps({
            "n": self.n,
            "cells": [
                {"s": s, "t": t, "count": self.cells[s, t]}
                for s in self.s_values
                for t in self.t_values
            ],
        })


def critset_table(n: int, s_max: int, t_max: int, *, jobs: int = 1,
                  cap: int | None = None) -> CountsTable:
    """Fill the (s, t) count matrix for s in 1..s_max, t in 0..t_max
    (refuses n above `cap`, DEFAULT_GEN_CAP when None, and s_max or t_max
    above the larger of `cap` and DEFAULT_GEN_CAP).

    Every cell is counted in the calling process, all of them in one batch.
    `jobs` is accepted for compatibility and must be >= 1; it starts no
    workers, because with the compiled counting kernel a process pool costs
    more than it saves.
    """
    cap = DEFAULT_GEN_CAP if cap is None else cap
    n = _checked_length(n, cap)
    s_max, t_max, jobs = _integer(s_max, "s_max"), _integer(t_max, "t_max"), _integer(jobs, "jobs")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # Every cell past n is empty, but the table holds s_max * (t_max + 1)
    # of them; this bounds its memory.
    limit = max(cap, DEFAULT_GEN_CAP)
    for name, bound in (("s_max", s_max), ("t_max", t_max)):
        if bound > limit:
            raise ValueError(f"{name}={bound} exceeds the generation cap ({limit})")
    s_values = tuple(range(1, s_max + 1))
    t_values = tuple(range(0, t_max + 1))
    pairs = [(s, t) for s in s_values for t in t_values]
    cells = dict(zip(pairs, _sizes(n, pairs)))
    return CountsTable(n=n, s_values=s_values, t_values=t_values, cells=cells)


class Histogram(namedtuple("Histogram", "n bins total")):
    """How many prefix normal words of length n have a given critical prefix length."""

    __slots__ = ()

    def to_csv(self) -> str:
        lines = ["length,count,percent"]
        for length in sorted(self.bins):
            count = self.bins[length]
            lines.append(f"{length},{count},{100 * count / self.total:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        return json.dumps({
            "n": self.n,
            "total": self.total,
            "bins": [
                {"length": length, "count": self.bins[length],
                 "percent": round(100 * self.bins[length] / self.total, 6)}
                for length in sorted(self.bins)
            ],
        })


def critical_prefix_histogram(n: int, cap: int | None = None) -> Histogram:
    """Bin the words of length n by critical prefix length s + t.

    Each bin sums the sizes of the classes on its diagonal, all counted in
    one batch; the all-zero word belongs to no class and lands in bin n
    (its critical prefix is the whole word).  Refuses n above `cap`
    (DEFAULT_GEN_CAP when None).
    """
    n = _checked_length(n, DEFAULT_GEN_CAP if cap is None else cap)
    # Diagonal d holds the d classes s = 1..d, so each bin sums one slice.
    # Bin n, which also holds the all-zero word, comes first.
    sizes = iter(_sizes(n, [(s, d - s) for d in range(1, n + 1) for s in range(1, d + 1)]))
    counts = [sum(islice(sizes, d)) for d in range(n + 1)]
    counts[n] += 1
    bins = {d: counts[d] for d in (n, *range(n)) if counts[d]}
    return Histogram(n=n, bins=bins, total=sum(bins.values()))
