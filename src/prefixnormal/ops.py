"""Word operations around flipping and shifting 1s while preserving prefix normality.

`min_flip` is the workhorse: for a prefix normal word it finds the smallest
position past the rightmost 1 where a 1 can be written without breaking
prefix normality (the sentinel n+1 means "nowhere").  That is where the
densest extension of the word up to its rightmost 1 puts its next 1, so
it is read off that extension's first block (`infinite._blocks`), in
O(number of 1s).  Sliding the rightmost 1 moves only one pair sum of that
closed form, so one pass (`_run`) gives min_flip at every node of the
slide run and the range of nodes where a flip fits; both walks use it.
"""

from __future__ import annotations

from operator import add

from .infinite import _blocks
from .words import _ones, _pn_ones, check_word


def flip(w: str, j: int) -> str:
    """Complement the symbol at position j (1-based); the input is unchanged."""
    check_word(w)
    if not 1 <= j <= len(w):
        raise IndexError(f"position {j} out of range for a word of length {len(w)}")
    return w[: j - 1] + ("1" if w[j - 1] == "0" else "0") + w[j:]


def bubble(w: str) -> str:
    """Move the rightmost 1 of w one position to the right."""
    check_word(w)
    r = w.rfind("1") + 1
    if r == 0:
        raise ValueError("bubble is undefined on an all-zero word")
    if r == len(w):
        raise ValueError("bubble is undefined when the rightmost 1 is at the last position")
    return w[: r - 1] + "01" + w[r + 1 :]


def _run(a: list[int], n: int) -> tuple[int, int, int, int]:
    """The bubble run from the node whose 1s sit at the 1-based positions
    a_1 < ... < a_k = r, k >= 2.

    A 1 written at j > r puts c + 1 1s into the suffix that starts at
    a_{k+1-c} (the c-th 1 from the right), so that suffix's length
    j + 1 - a_{k+1-c} must reach a_{c+1}, where the prefix gets its
    (c + 1)-th 1.  Longer suffixes with the same count, and suffixes ending
    before j, are no tighter.  So min_flip is
    min(n + 1, max_{2<=x<=k} (a_x + a_{k+2-x}) - 1), the same pairing
    extend_stream uses, and equals min(n + 1, len(extend_min(w[:r]))).

    Bubbling moves only a_k, so along the run only the pair sum a_2 + a_k
    moves: the node whose rightmost 1 is at q has min_flip
    min(n + 1, max(rest, (second or q) + q) - 1), where `rest` is the
    largest fixed pair sum over a_3 .. a_{k-1} and `second` is a_2, or 0
    when k == 2 (a_2 is then a_k itself).  That grows with q, so the nodes
    with a flip child are exactly r <= q < end.  Returns (rest, second,
    end, reads), where reads counts the k - 1 paired positions, none when
    r == n (min_flip is then n + 1).
    """
    r = a[-1]
    m = a[2:-1]
    rest = max(map(add, m, reversed(m)), default=0)
    second = a[1] if len(a) > 2 else 0
    if rest > n + 1:
        end = r
    else:
        end = max(r, n + 2 - second if second else (n + 3) // 2)
    return rest, second, end, (len(a) - 1 if r < n else 0)


def min_flip(w: str, *, validate: bool = True) -> int:
    """Smallest position after the rightmost 1 where a 1 keeps w prefix normal.

    Returns len(w)+1 when no position works (including words ending in 1).
    The input must be prefix normal and contain at least one 1; pass
    validate=False to skip that check (`words._pn_ones`, O(k**2) in the
    number k of 1s) when the caller guarantees it.
    """
    check_word(w)
    ones = _ones(w)
    if not ones:
        raise ValueError("an all-zero word has no flip position")
    if validate and not _pn_ones(ones):
        raise ValueError("word is not prefix normal")
    return min(len(w) + 1, ones[-1] + len(next(_blocks(ones))))
