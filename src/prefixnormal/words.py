"""Core operations on binary words, represented as '0'/'1' strings.

Positions are 1-based throughout (w_1 is the first symbol), matching the
usual conventions for words.  The public prefix-normality test,
`is_prefix_normal`, is a deliberately naive double loop over all factors:
it is the ground truth that every faster routine in the package is checked
against.  The package's own paths use `_is_pn`, an exact test over the
positions of the 1s alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import sub

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


def _is_pn(w: str) -> bool:
    """Whether w is prefix normal, from the positions of its 1s alone
    (`_pn_ones`)."""
    return _pn_ones(_ones(w))


def _pn_ones(a: list[int]) -> bool:
    """Whether the word whose 1s sit at the positions a is prefix normal.

    Let a_1 < ... < a_k be the positions of the 1s of w (unchecked).  A
    factor with j >= 1 1s is at least as long as the stretch from its first
    1 to its last, and a prefix never holds fewer 1s than a shorter one, so
    only the factors from a 1 to a 1 can break prefix normality.  The one
    from a_i to a_{i+j-1} holds j 1s in a_{i+j-1} - a_i + 1 symbols, so w
    is prefix normal iff a_j <= a_{i+j-1} - a_i + 1 whenever i + j - 1 <= k.
    With i = 1 that forces a_1 = 1; in 0-based positions d = a - 1 it says
    the sequence is superadditive, d_{p+q} >= d_p + d_q.  This is the
    pair-sum closed form of `ops._run` read at every 1 at once.  One
    C-level min over i per j, stopping at the first j that fails, costs
    O(k**2) in the number of 1s, not in the length.  It is a (max, +)
    self-convolution, the binary jumbled indexing problem (Chan and
    Lewenstein, STOC 2015, solve it in subquadratic time).
    """
    if a and a[0] != 1:
        return False
    for p in range(1, len(a)):
        if min(map(sub, a[p:], a)) < a[p] - 1:
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
