"""Word operations around flipping and shifting 1s while preserving prefix normality.

`min_flip` is the workhorse: for a prefix normal word it finds the smallest
position past the rightmost 1 where a 1 can be written without breaking
prefix normality (the sentinel n+1 means "nowhere").  It has a closed form
in the positions of the 1s, pairing the i-th 1 from the left with the i-th
from the right, so it costs O(number of 1s) instead of a scan of the word.
"""

from __future__ import annotations

from operator import add

from .words import check_word, is_prefix_normal


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


def _phi(a: list[int], n: int) -> tuple[int, int]:
    """min_flip from the 1-based positions a_1 < ... < a_k = r of the 1s.

    A 1 written at j > r puts c + 1 1s into the suffix that starts at
    a_{k+1-c} (the c-th 1 from the right), so that suffix's length
    j + 1 - a_{k+1-c} must reach a_{c+1}, where the prefix gets its
    (c + 1)-th 1.  Longer suffixes with
    the same count, and suffixes ending before j, are no tighter.  So
    phi = min(n + 1, max(r + 1, max_{2<=x<=k} (a_x + a_{k+2-x}) - 1)), the
    same pairing extend_stream uses: phi == min(n + 1,
    len(extend_min(w[:r]))).  It reads the k - 1 paired positions, none
    when r == n (the answer is then n + 1).  Returns (position, position
    reads).
    """
    r = a[-1]
    if r == n:
        return n + 1, 0
    t = a[1:]
    return min(n + 1, max(map(add, t, reversed(t)), default=r + 2) - 1), len(t)


def min_flip(w: str, *, validate: bool = True) -> int:
    """Smallest position after the rightmost 1 where a 1 keeps w prefix normal.

    Returns len(w)+1 when no position works (including words ending in 1).
    The input must be prefix normal and contain at least one 1; pass
    validate=False to skip the quadratic check when the caller guarantees it.
    """
    check_word(w)
    if "1" not in w:
        raise ValueError("an all-zero word has no flip position")
    if validate and not is_prefix_normal(w):
        raise ValueError("word is not prefix normal")
    return _phi([i for i, ch in enumerate(w, 1) if ch == "1"], len(w))[0]


def _phi_of_bubble(phi: int, r: int, ones: int, second: int, n: int) -> int:
    """Constant-time min_flip of the bubbled word from the parent's fields.

    `second` is the 1-based position of the second leftmost 1.  Cases: with
    exactly two 1s the gap widens on both flanks; when at least two 1s sit
    within the first phi - r symbols the bound is unchanged; otherwise it
    slips by one.
    """
    if ones == 2:
        return min(n + 1, phi + 2)
    if second <= phi - r:
        return phi
    return min(n + 1, phi + 1)
