"""Enumeration and statistics of prefix normal words by critical prefix.

The words of length n whose critical prefix is exactly 1^s 0^t form one seed
word plus one flip-subtree of the generation tree, so they can be listed
without touching the rest of the language, and counted by the generator's
counting walk without building a single word.  These classes partition
every nonzero word, so class sizes are the only counting path: the (s, t)
table lists them, and the histogram of critical prefix lengths folds them
along the diagonals s + t, with the all-zero word added to bin n.  Both
count every class in the calling process; no worker is ever started.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .generate import DEFAULT_GEN_CAP, Order, _count, _tree, _visit_each
from .ops import flip, min_flip
from .words import _checked_length


def _class_root(n: int, s: int, t: int) -> tuple[str | None, str | None]:
    """The class 1^s 0^t as (seed, root): its one word outside the tree, and
    the seed's flip child, whose flip-subtree holds every other word.

    seed is None for an empty class and root is None when the seed has no
    flip child.  Raises ValueError for a query that denotes no class.
    """
    _checked_length(n)
    if s < 1:
        raise ValueError("s must be >= 1; only the all-zero word has s == 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if s + t > n:
        return None, None
    if s + t == n:
        return "1" * s + "0" * t, None
    if t == 0:
        # With symbols left over, the next one would be a 1 and the leading
        # 1-run would be longer than s.
        return None, None
    # Prefix normal by construction (t >= 1): a factor that reaches the lone
    # 1 from the leading run spans the t zeros, so it never holds more 1s
    # than the prefix of its length.
    seed = "1" * s + "0" * t + "1" + "0" * (n - s - t - 1)
    phi = min_flip(seed, validate=False)
    return seed, flip(seed, phi) if phi <= n else None


def critset(n: int, s: int, t: int, visit, order: Order = Order.LEX) -> int:
    """Visit the prefix normal words of length n with critical prefix 1^s 0^t.

    Requires s >= 1 (the all-zero word is the only one with s == 0 and is
    never part of any class here).  Queries with s + t > n are legal and
    denote the empty set.  Each word reaches `visit` as a str.  Returns the
    number of words visited.
    """
    seed, root = _class_root(n, s, t)
    if seed is None:
        return 0
    if order is Order.LEX:
        visit(seed)
    # In post-order the flip subtree ends on its own root, one flipped
    # position away from the seed word, which comes last.  The root, a flip
    # child of a prefix normal seed, is listed without re-checking it.
    count = 1 + (_visit_each(_tree(root, order), visit) if root else 0)
    if order is Order.GRAY:
        visit(seed)
    return count


def critset_count(n: int, s: int, t: int) -> int:
    """Size of the class with critical prefix 1^s 0^t among length-n words."""
    seed, root = _class_root(n, s, t)
    if seed is None:
        return 0
    return 1 + (_count(root) if root else 0)


@dataclass(frozen=True)
class CountsTable:
    """Class sizes on a rectangular (s, t) range; rows are s, columns are t.

    The t range starts at 0 so the table can cover every nonzero class; the
    all-zero word belongs to no class and is reported separately.
    """

    n: int
    s_values: tuple[int, ...]
    t_values: tuple[int, ...]
    cells: dict

    def total(self) -> int:
        return sum(self.cells.values())

    def to_csv(self) -> str:
        lines = ["s\\t," + ",".join(str(t) for t in self.t_values)]
        for s in self.s_values:
            lines.append(f"{s}," + ",".join(str(self.cells[s, t]) for t in self.t_values))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "cells": [
                {"s": s, "t": t, "count": self.cells[s, t]}
                for s in self.s_values
                for t in self.t_values
            ],
        })


def critset_table(n: int, s_max: int, t_max: int, *, jobs: int = 1) -> CountsTable:
    """Fill the (s, t) count matrix for s in 1..s_max, t in 0..t_max.

    Every cell is counted in the calling process.  `jobs` is accepted for
    compatibility and must be >= 1; it starts no workers, because with the
    compiled counting kernel a process pool costs more than it saves.
    """
    _checked_length(n)
    if s_max < 1 or t_max < 1:
        raise ValueError("s_max and t_max must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    s_values = tuple(range(1, s_max + 1))
    t_values = tuple(range(0, t_max + 1))
    cells = {(s, t): critset_count(n, s, t) for s in s_values for t in t_values}
    return CountsTable(n=n, s_values=s_values, t_values=t_values, cells=cells)


@dataclass(frozen=True)
class Histogram:
    """How many prefix normal words of length n have a given critical prefix length."""

    n: int
    bins: dict
    total: int

    def to_csv(self) -> str:
        lines = ["length,count,percent"]
        for length in sorted(self.bins):
            count = self.bins[length]
            lines.append(f"{length},{count},{100 * count / self.total:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
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

    Each bin sums the sizes of the classes on its diagonal; the all-zero word
    belongs to no class and lands in bin n (its critical prefix is the whole
    word).
    """
    _checked_length(n, DEFAULT_GEN_CAP if cap is None else cap)
    bins = {n: 1}
    for s in range(1, n + 1):
        for t in range(n - s + 1):
            count = critset_count(n, s, t)
            if count:
                bins[s + t] = bins.get(s + t, 0) + count
    return Histogram(n=n, bins=bins, total=sum(bins.values()))
