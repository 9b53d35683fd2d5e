"""Recursive-tree generation of prefix normal words, without the recursion.

Every prefix normal word of length n with at least two 1s sits in a binary
tree: a node's left child moves its rightmost 1 one step right (bubble), its
right child writes a new 1 at the first legal position (flip at min_flip).
An in-order walk of that tree lists the words in increasing lexicographic
order; a post-order walk lists them so that neighbours differ in at most 3
positions (a combinatorial Gray code).

Both walks go a bubble run at a time: the left spine from a node, along
which its rightmost 1 slides to the end.  min_flip never decreases along a
run, so the nodes with a flip child form a prefix of it, and one pass over
the positions of the 1s (`ops._run`, O(number of 1s)) gives that prefix
and min_flip at each of its nodes.  The listing walk keeps its paused runs
on an explicit stack, and the order only decides whether a flip node is
yielded before (LEX) or after (GRAY) its flip child's subtree.  Every
listing is a thin shell over that walk; the full listings put 0^n and
10^(n-1) in front of the tree rooted at 110^(n-2).

Counts build no words: a smaller walk over the positions of the 1s alone,
on a stack of its own, adds a whole run of n - r + 1 words in one step
and descends only into the flip children.  One C walk (`_kernel`),
compiled on first use when a C compiler is present, does both jobs: in
one mode it writes the words of every listing as lines, which `_tree`
splits into words for the iterators, the visitors and the CLI; in the
other it counts a batch of subtrees in one call (`_count`), exactly at
every n.  The Python walks are the reference and the path without a
compiler; the listing walk is also the one an OpCounter is charged on.

From the kernel's chunks to the caller every step is C-level: the chunks
are split and chained (`itertools.chain`) and the head words are chained
in front, and `_visit_each` calls the visitor from C, so no Python frame
runs per listed word up to the visitor.  The visitor itself is the
caller's: the CLI's resumes its batching generator once per word.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from itertools import chain, count, islice

from .ops import _run
from .words import _checked_length, _is_pn, _ones, check_word

DEFAULT_GEN_CAP = 40


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


def _walk(seed: str, order: Order, counter: OpCounter | None = None):
    """Yield each word of the tree rooted at `seed` as a str, a bubble run
    at a time.

    The caller guarantees that `seed` is prefix normal with at least two 1s.
    A run's nodes are base[:q-1] + "1" + base[q:] for r <= q <= n, where
    `base` is its first node with the rightmost 1 (at r) cleared; only
    r <= q < end have a flip child (ops._run).  The nodes past that are
    yielded first, leaf first, in both orders; the walk then climbs the run
    and yields each flip node before (LEX) or after (GRAY) its flip child's
    subtree.  A flip child's base is its parent's word.  The paused runs
    sit on an explicit stack, and `a` holds the positions of the 1s of the
    current node.  The counter is charged as an edge-by-edge walk would
    be: n at the root, the run's reads and 3 per bubble on entering a run,
    2 per step up a run, 1 per flip and 1 per return from a flip child.
    """
    n = len(seed)
    ctr = counter
    lex = order is Order.LEX
    a = _ones(seed)
    r = a[-1]
    base = seed[: r - 1] + "0" + seed[r:]
    # Every run starts at or after the root's r, and base[q:] is all 0s
    # for q >= r, so a node is base[:q-1] + tails[n-q].
    tails = ["1" + "0" * j for j in range(n - r + 1)]
    if ctr:
        ctr.add(n)
    stack: list[tuple[str, int, int, int, int, str]] = []
    push = stack.append
    pop = stack.pop

    while True:
        rest, second, end, reads = _run(a, n)
        if ctr:
            ctr.add(reads + 3 * (n - r))
        for q in range(n, end - 1, -1):
            if ctr and q < n:
                ctr.add(2)
            yield base[: q - 1] + tails[n - q]
        q = end
        while True:
            if q == r:
                # The run is done: resume its parent's run at the flip node.
                if not stack:
                    return
                base, r, rest, second, q, word = pop()
                a.pop()
            else:
                q -= 1
                word = base[: q - 1] + tails[n - q]
                if ctr:
                    ctr.add(2)
                if lex:
                    yield word
                if ctr:
                    ctr.add(1)
                phi = max(rest, (second or q) + q) - 1
                if phi < n:
                    push((base, r, rest, second, q, word))
                    a[-1] = q
                    a.append(phi)
                    base, r = word, phi
                    break
                # A flip child at n is a single leaf.
                yield word[:-1] + "1"
            if ctr:
                ctr.add(1)
            if not lex:
                yield word


def _tree(seed: str, order: Order, counter: OpCounter | None = None):
    """The words of _walk(seed, order, counter), from the compiled walk
    (`_kernel.load`) when it can be built and no counter is charged.

    The kernel writes them as lines of text, a chunk at a time; _walk, the
    reference, yields them otherwise.  Same precondition as _walk.
    """
    from . import _kernel

    kernel = _kernel.load() if counter is None else None
    if kernel is None:
        return _walk(seed, order, counter)
    return chain.from_iterable(map(str.splitlines, kernel.lines(
        _ones(seed), len(seed), order is Order.LEX)))


def _count(flat: list[int], lens: list[int], n: int) -> list[int]:
    """Number of words in the tree rooted at each node of a batch, without
    yielding any.  The positions of each root's 1s sit back to back in
    `flat`, and `lens` holds how many each root has.  Each root must be
    prefix normal with at least two 1s.

    The compiled kernel (`_kernel.load`) counts them all in one batch when
    it can be built, at any n; otherwise `_count_run`, the reference, counts
    each in turn, on a copy, since it moves the last position.
    """
    from . import _kernel

    kernel = _kernel.load()
    if kernel is None:
        positions = iter(flat)
        return [_count_run(list(islice(positions, k)), n) for k in lens]
    return kernel.count(flat, lens, n)


def _count_run(a: list[int], n: int) -> int:
    """Words in the subtree of the node whose 1s sit at the positions `a`,
    counted a bubble run at a time.

    The run from the rightmost 1 r holds n - r + 1 nodes, and only
    r <= q < end have a flip child (ops._run); one at n is a single leaf.
    Each run is climbed downward from end, as in _walk, and every other
    flip child's run is entered with its position appended to `a`.  The
    paused runs sit on an explicit stack, one frame per 1 added, so any
    depth fits.  The runs move a's last entry in place; the caller pops or
    drops it.  This is the reference the compiled kernel is tested against.
    """
    stack: list[tuple[int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    total, r = 0, a[-1]
    while True:
        rest, second, q, _ = _run(a, n)
        total += n - r + 1
        while True:
            if q == r:
                # The run is done: resume its parent's run below the flip node.
                if not stack:
                    return total
                rest, second, r, q = pop()
                a.pop()
            else:
                q -= 1
                phi = max(rest, (second or q) + q) - 1
                if phi < n:
                    push((rest, second, r, q))
                    a[-1] = q
                    a.append(phi)
                    r = phi
                    break
                total += 1


def _words(n: int, order: Order, counter: OpCounter | None = None):
    """The walk behind every listing of length n: the all-zero word, the
    single-1 word, then the tree rooted at 110^(n-2).

    n is checked here, at call time.  The result is a C-level chain over
    the head words and `_tree`, so taking a word resumes no Python frame
    unless the Python walk lists it; a charged head word adds its n reads
    as it is taken, so the counter still moves word by word.
    """
    _checked_length(n)
    if n < 2:
        # Words of length <= 1 are emitted without counted work.
        return iter(("0", "1") if n else ("",))
    heads = ("0" * n, "1" + "0" * (n - 1))
    if counter:
        heads = _charged(heads, counter, n)
    return chain(heads, _tree("11" + "0" * (n - 2), order, counter))


def _charged(words, counter: OpCounter, reads: int):
    for word in words:
        counter.add(reads)
        yield word


def _checked_seed(seed: str) -> str:
    check_word(seed)
    if seed.count("1") < 2:
        raise ValueError("the starting word needs at least two 1s")
    if not _is_pn(seed):
        raise ValueError("the starting word is not prefix normal")
    return seed


def _visit_each(words, visit) -> int:
    """Call `visit` on each word in turn and return how many there were.

    The loop runs in C: zip takes a word (calling `visit`) before it takes
    a number from `seen`, so `next(seen)` is the number of visits.
    """
    seen = count()
    deque(zip(map(visit, words), seen), 0)
    return next(seen)


def generate_pn(seed: str, visit, order: Order = Order.LEX) -> int:
    """Visit every prefix normal word that agrees with `seed` before its
    rightmost 1 and has at least one 1 from that position on.

    Order.LEX visits in increasing lexicographic order; Order.GRAY visits so
    that consecutive words differ in at most 3 positions, ending on `seed`
    itself.  The visitor receives each word as a str.  Returns the visit
    count.
    """
    return _visit_each(_tree(_checked_seed(seed), order), visit)


def iter_pn(seed: str, order: Order = Order.LEX):
    """Pull-iterator version of generate_pn: yields each word as a str."""
    return _tree(_checked_seed(seed), order)


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
    _checked_length(n, cap)
    if n < 2:
        return n + 1
    # 0^n and 10^(n-1), then the tree rooted at 110^(n-2).
    return 2 + _count([1, 2], [2], n)[0]
