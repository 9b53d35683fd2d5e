"""Recursive-tree generation of prefix normal words, without the recursion.

Every prefix normal word of length n with at least two 1s sits in a binary
tree: a node's left child moves its rightmost 1 one step right (bubble), its
right child writes a new 1 at the first legal position (flip at min_flip).
An in-order walk of that tree lists the words in increasing lexicographic
order; a post-order walk lists them so that neighbours differ in at most 3
positions (a combinatorial Gray code).

Both orders come from one loop.  It writes each tree move once -- bubble
down, undo a bubble, flip right, undo a flip -- and the order only decides
where a node is yielded: between its two subtrees (LEX) or after both
(GRAY).  One mutable byte buffer holds the current word, with the list of
the positions of its 1s beside it, an explicit stack of undo records tracks
the path to the root, and the min_flip value is carried along --
recomputed after each flip edge from the positions of the 1s in closed
form, O(number of 1s), and derived in O(1) along bubble runs.  Every
listing is a thin shell over that walk; the full listings put 0^n and
10^(n-1) in front of the tree rooted at 110^(n-2).

Only listings yield words.  Counts come from a second, smaller walk over
the positions of the 1s alone that adds a whole bubble run of n - r + 1
words in one step and descends only into the flip children, which sit on
a prefix of the run because min_flip never decreases along it.
"""

from __future__ import annotations

from enum import Enum

from .ops import _phi, _phi_of_bubble
from .words import check_word, is_prefix_normal

DEFAULT_GEN_CAP = 40

_ZERO, _ONE = 0x30, 0x31
_LEFT, _RIGHT = 0, 1


class Order(Enum):
    LEX = "lex"
    GRAY = "gray"


class OpCounter:
    """Accumulates abstract symbol reads/writes performed by a traversal."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        self.count += k


def _walk(buf: bytearray, order: Order, counter: OpCounter | None = None):
    """Yield each word of the tree rooted at `buf` as a str.

    The caller guarantees the buffer holds a prefix normal word with at least
    two 1s.
    """
    n = len(buf)
    ctr = counter
    lex = order is Order.LEX

    # The positions of the 1s, kept beside the buffer: a[-1] is the
    # rightmost 1 and a[1] the second leftmost.
    a = [i for i, b in enumerate(buf, 1) if b == _ONE]
    r = a[-1]
    phi, reads = _phi(a, n)
    if ctr:
        ctr.add(n + reads)

    stack: list[tuple[int, int]] = []
    push = stack.append
    pop = stack.pop

    while True:
        # Bubble down to the leftmost leaf, deriving each child's min_flip
        # in O(1) from the parent's.  The leaf ends with a 1, so its
        # min_flip lands on the n+1 sentinel automatically.
        while r < n:
            push((_LEFT, phi))
            phi = _phi_of_bubble(phi, r, len(a), a[1], n)
            buf[r - 1] = _ZERO
            buf[r] = _ONE
            r += 1
            a[-1] = r
            if ctr:
                ctr.add(3)
        # The current node's left subtree is done.
        while True:
            if lex:
                yield buf.decode()
            if phi <= n:
                break
            # No right child: the node is finished, and so is every ancestor
            # reached by undoing flips, until an undone bubble lands on a
            # parent whose left subtree is done.
            while True:
                if not lex:
                    yield buf.decode()
                if not stack:
                    return
                tag, phi = pop()
                buf[r - 1] = _ZERO
                if tag == _LEFT:
                    r -= 1
                    buf[r - 1] = _ONE
                    a[-1] = r
                    if ctr:
                        ctr.add(2)
                    break
                a.pop()
                r = a[-1]
                if ctr:
                    ctr.add(1)
        # Flip right, then bubble down from the new node.
        push((_RIGHT, phi))
        buf[phi - 1] = _ONE
        a.append(phi)
        r = phi
        if ctr:
            ctr.add(1)
        phi, reads = _phi(a, n)
        if ctr:
            ctr.add(reads)


def _count(buf: bytes | bytearray) -> int:
    """Number of words in the tree rooted at the word in the bytes-like
    `buf`, without yielding any.  Same precondition as _walk; only the
    positions of the 1s are used, and `buf` is left as it is.
    """
    return _count_run([i for i, b in enumerate(buf, 1) if b == _ONE], len(buf))


def _count_run(a: list[int], n: int) -> int:
    """Words in the subtree of the node whose 1s sit at the positions `a`,
    counted a bubble run at a time.

    The run from the rightmost 1 r holds n - r + 1 nodes.  min_flip never
    decreases along it, so the nodes with a flip child form a prefix of the
    run: only that prefix is walked, and each flip child is counted by
    recursion on `a` with its position appended (depth at most the number
    of 1s).  A flip child at n is a single leaf, counted without recursion.
    The run moves a's last entry in place; the caller pops or drops it.
    """
    r = a[-1]
    phi = _phi(a, n)[0]
    total = n - r + 1
    ones = len(a)
    while phi <= n:
        if phi == n:
            total += 1
        else:
            a.append(phi)
            total += _count_run(a, n)
            a.pop()
        # phi > r, so the node is not a leaf and can bubble.
        phi = _phi_of_bubble(phi, r, ones, a[1], n)
        r += 1
        a[-1] = r
    return total


def _words(n: int, order: Order, counter: OpCounter | None = None):
    """The walk behind every listing of length n: the all-zero word, the
    single-1 word, then the tree rooted at 110^(n-2)."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    for word in ("0" * n, "1" + "0" * (n - 1)) if n else ("",):
        # Words of length <= 1 are emitted without counted work.
        if counter and n > 1:
            counter.add(n)
        yield word
    if n > 1:
        yield from _walk(bytearray(b"11" + b"0" * (n - 2)), order, counter)


def _checked_seed(seed: str) -> bytearray:
    check_word(seed)
    if seed.count("1") < 2:
        raise ValueError("the starting word needs at least two 1s")
    if not is_prefix_normal(seed):
        raise ValueError("the starting word is not prefix normal")
    return bytearray(seed, "ascii")


def _visit_each(words, visit) -> int:
    count = 0
    for word in words:
        visit(word)
        count += 1
    return count


def generate_pn(seed: str, visit, order: Order = Order.LEX, *,
                counter: OpCounter | None = None) -> int:
    """Visit every prefix normal word that agrees with `seed` before its
    rightmost 1 and has at least one 1 from that position on.

    Order.LEX visits in increasing lexicographic order; Order.GRAY visits so
    that consecutive words differ in at most 3 positions, ending on `seed`
    itself.  The visitor receives each word as a str.  Returns the visit
    count.
    """
    return _visit_each(_walk(_checked_seed(seed), order, counter), visit)


def iter_pn(seed: str, order: Order = Order.LEX):
    """Pull-iterator version of generate_pn: yields each word as a str."""
    return _walk(_checked_seed(seed), order)


def generate_all(n: int, visit, order: Order = Order.LEX, *,
                 counter: OpCounter | None = None) -> int:
    """Visit every prefix normal word of length n; returns how many there are.

    The all-zero word and the single-1 word come first, then the tree rooted
    at 110^(n-2) supplies the rest.  LEX output is globally lexicographic;
    GRAY output has all consecutive Hamming distances <= 3 and closes the
    cycle at distance 2 from the last word back to the first.
    """
    return _visit_each(_words(n, order, counter), visit)


def iter_all(n: int, order: Order = Order.LEX):
    """Pull-iterator version of generate_all: yields each word as a str."""
    return _words(n, order)


def count_pn(n: int, cap: int = DEFAULT_GEN_CAP) -> int:
    """Number of prefix normal words of length n (refuses n above `cap`)."""
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap ({cap})")
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n < 2:
        return n + 1
    # 0^n and 10^(n-1), then the tree rooted at 110^(n-2).
    return 2 + _count(bytearray(b"11" + b"0" * (n - 2)))
