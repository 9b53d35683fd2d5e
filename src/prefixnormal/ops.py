"""Word operations around flipping and shifting 1s while preserving prefix normality.

`min_flip` is the workhorse: for a prefix normal word it finds the smallest
position past the rightmost 1 where a 1 can be written without breaking
prefix normality (the sentinel n+1 means "nowhere").  The scan runs in
O(r) symbol reads in the worst case, r being the position of the rightmost
1, and stops as soon as the answer is known to be the sentinel.
"""

from __future__ import annotations

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


def _phi_scan(buf, r: int, n: int) -> tuple[int, int]:
    """Core scan behind min_flip, on a bytes-like buffer of ASCII '0'/'1'.

    Walks the prefix before position r with two counters: f counts 1s in the
    i-length prefix, g counts 1s in the i-length suffix ending at r.  Whenever
    they agree, the run of 0s that follows the prefix caps how far past r a new
    1 may go.  While skipping such a run, g is left un-updated; this is sound
    only because the word is prefix normal: a suffix already holding the
    maximum allowed number of 1s can only be extended leftward by 0s while the
    prefix side stays flat.  The answer is min(r + longest + 1, n + 1) for
    the longest such run, so the scan stops once a run reaches n - r: the
    sentinel is then certain.  With r == n nothing is read.  O(r) reads in the
    worst case.  Returns (position, symbol reads).
    """
    if r == n:
        return n + 1, 0
    f = g = 0
    i = 1
    longest = 0
    reads = 0
    while i < r:
        f += buf[i - 1] & 1
        g += buf[r - i] & 1
        reads += 2
        if f == g:
            run = 0
            i += 1
            while i < r:
                reads += 1
                if buf[i - 1] & 1:
                    break
                run += 1
                i += 1
            if run > longest:
                if run >= n - r:
                    return n + 1, reads
                longest = run
        else:
            i += 1
    return min(r + longest + 1, n + 1), reads


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
    r = w.rfind("1") + 1
    phi, _ = _phi_scan(w.encode("ascii"), r, len(w))
    return phi


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
