"""Core operations on binary words, represented as '0'/'1' strings.

Positions are 1-based throughout (w_1 is the first symbol), matching the
usual conventions for words.  The prefix-normality test in this module is
a deliberately naive double loop over all factors: it is the ground truth
that every faster routine in the package is checked against.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

DEFAULT_ORACLE_CAP = 20
# The longest word length: the compiled walk holds lengths in C ints.
_MAX_LENGTH = 2**31 - 1


def check_word(w: str) -> str:
    """Raise ValueError unless w is a str over the alphabet {0, 1}."""
    if not isinstance(w, str):
        raise ValueError(f"expected a binary word as str, got {type(w).__name__}")
    if w.strip("01"):
        raise ValueError(f"word contains symbols outside 0/1: {w!r}")
    return w


def _checked_length(n: int, cap: int | None = None, kind: str = "enumeration") -> None:
    """Raise ValueError if n > `cap` (None for no cap), then unless 0 <= n <= _MAX_LENGTH."""
    if cap is not None and n > cap:
        raise ValueError(f"n={n} exceeds the {kind} cap ({cap})")
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n > _MAX_LENGTH:
        raise ValueError(f"n={n} exceeds the longest word length ({_MAX_LENGTH})")


def _ones(w: str) -> list[int]:
    return [i for i, ch in enumerate(w, 1) if ch == "1"]


def prefix_counts(w: str) -> list[int]:
    """The running count of 1s: counts[i] is the number of 1s in the i-length prefix."""
    counts = [0] * (len(w) + 1)
    c = 0
    for i, ch in enumerate(w, 1):
        if ch == "1":
            c += 1
        counts[i] = c
    return counts


def is_prefix_normal(w: str) -> bool:
    """Whether no factor of w has more 1s than the prefix of the same length.

    Direct double loop over every factor start and length.  Quadratic and
    obviously correct; keep it that way.
    """
    check_word(w)
    n = len(w)
    p = prefix_counts(w)
    for start in range(1, n):
        ones = 0
        for j in range(start, n):
            if w[j] == "1":
                ones += 1
                if ones > p[j - start + 1]:
                    return False
    return True


class CritPrefix(namedtuple("CritPrefix", "s t")):
    """The leading block 1^s 0^t of a word (maximal on both runs)."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return self.s + self.t


def critical_prefix(w: str) -> CritPrefix:
    """Decompose w = 1^s 0^t g where g is empty or starts with 1."""
    check_word(w)
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no critical prefix")
    s = 0
    while s < n and w[s] == "1":
        s += 1
    t = 0
    while s + t < n and w[s + t] == "0":
        t += 1
    return CritPrefix(s, t)


@lru_cache(maxsize=32)
def oracle_enumerate(n: int, cap: int = DEFAULT_ORACLE_CAP) -> tuple[str, ...]:
    """All prefix normal words of length n, in lexicographic order.

    Brute force: filters all 2**n binary words through is_prefix_normal.
    Refuses n above `cap` so a typo cannot trigger an exponential blowup.
    """
    _checked_length(n, cap, "oracle")
    if n == 0:
        return ("",)
    fmt = f"0{n}b"
    return tuple(w for w in (format(k, fmt) for k in range(1 << n)) if is_prefix_normal(w))


def hamming(u: str, v: str) -> int:
    """Number of positions where two equal-length words differ."""
    check_word(u)
    check_word(v)
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))
