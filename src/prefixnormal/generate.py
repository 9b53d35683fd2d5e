"""Recursive-tree generation of prefix normal words, without the recursion.

Every prefix normal word of length n with at least two 1s sits in a binary
tree rooted at 110^(n-2): a node's left child moves its rightmost 1 one step
right (bubble), its right child writes a new 1 at the first legal position
(flip at min_flip).  An in-order walk lists the words in increasing
lexicographic order (LEX); a post-order walk lists them so that neighbours
differ in at most 3 positions (GRAY).  The full listings put 0^n and
10^(n-1) in front of that tree; a full GRAY listing then ends at distance
2 from its first word.

Both walks go a bubble run at a time: the left spine from a node whose
rightmost 1 is at r, along which that 1 slides to n.  One pass over the 1s
(`ops._run`) gives the nodes r <= q < end of the run that have a flip
child, and min_flip at each.  The nodes past end are listed first, leaf
first, in both orders; the walk then climbs the run downward and lists each
flip node before (LEX) or after (GRAY) its flip child's subtree, whose run
starts from the flip node.  A flip child at n is a single leaf.  The paused
runs sit on an explicit stack, one frame per 1 added, so any depth fits.

One C walk (`_kernel`), compiled on first use when a C compiler is present,
lists a subtree as one text of lines "word\\n" per native call and counts a
batch of subtrees exactly at any n, building no words (see `_kernel.c`).
The one Python walk, `_walk`, is its reference and the path without a
compiler, where a count is the number of lines it lists; it is also the
walk an OpCounter is charged on.  A listing travels as chunks of such text
(`_tree`): `lines=True` hands them to the visitor whole, and otherwise
`_visit_each` and the iterators split them into words.  Every line, from
either walk, a head word or a class seed, is a word of length n and its
"\\n": n + 1 characters.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, islice

from .ops import _run
from .words import DEFAULT_GEN_CAP, _checked_length, _ones, _pn_ones, check_word


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


def _walk(a: list[int], n: int, order: Order, counter: OpCounter | None = None):
    """Yield each word of the tree rooted at the prefix normal node of
    length n whose two or more 1s sit at the 1-based positions `a`, as a
    line "word\\n", in `order` (see the module docstring).

    A run's nodes are base[:q-1] + "1" + base[q:] for r <= q <= n, where
    `base` is its first node with the rightmost 1 cleared.  The counter is
    charged as an edge-by-edge walk would be: n at the root, the run's
    reads and 3 per bubble on entering a run, 2 per step up a run, 1 per
    flip and 1 per return from a flip child.
    """
    ctr = counter
    lex = order is Order.LEX
    a = a[:]
    r = a[-1]
    chars = ["0"] * n
    for i in a[:-1]:
        chars[i - 1] = "1"
    base = "".join(chars)
    # Every run starts at or after the root's r, and base[q:] is all 0s
    # for q >= r, so a node's line is base[:q-1] + tails[n-q].
    tails = ["1" + "0" * j + "\n" for j in range(n - r + 1)]
    if ctr:
        ctr.count += n
    stack: list[tuple[str, int, int, int, int, str]] = []
    push = stack.append
    pop = stack.pop

    while True:
        rest, second, end, reads = _run(a, n)
        if ctr:
            ctr.count += reads + 3 * (n - r)
        # end <= n: the node at n has no flip child.
        yield base[: n - 1] + tails[0]
        for q in range(n - 1, end - 1, -1):
            if ctr:
                ctr.count += 2
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
                    ctr.count += 2
                if lex:
                    yield word
                if ctr:
                    ctr.count += 1
                phi = max(rest, (second or q) + q) - 1
                if phi < n:
                    push((base, r, rest, second, q, word))
                    a[-1] = q
                    a.append(phi)
                    base, r = word, phi
                    break
                # A flip child at n is a single leaf.
                yield word[:-2] + "1\n"
            if ctr:
                ctr.count += 1
            if not lex:
                yield word


def _tree(a: list[int], n: int, order: Order, counter: OpCounter | None = None):
    """The lines of _walk(a, n, order, counter) as an iterator of text
    chunks: the compiled walk's, one per native call, when it can be built
    and no counter is charged, else the Python walk's, as many lines as the
    lister's cap (`_kernel.buffers`) holds to a chunk, or one to a chunk
    when charged, so the counter moves word by word."""
    from . import _kernel

    kernel = _kernel.load() if counter is None else None
    if kernel is not None:
        return kernel.lines(a, n, order is Order.LEX)
    walk = _walk(a, n, order, counter)
    size = _kernel.buffers(n)[1] // (n + 1)
    return walk if counter else iter(lambda: "".join(islice(walk, size)), "")


def _count(roots: list[list[int]], n: int) -> list[int]:
    """Words in the tree rooted at each of `roots`, the positions of the 1s
    of prefix normal nodes with at least two 1s: in one batch of the
    compiled walk when it can be built, else the lines `_walk` lists."""
    from . import _kernel

    kernel = _kernel.load()
    if kernel is None:
        return [sum(1 for _ in _walk(a, n, Order.LEX)) for a in roots]
    return kernel.count(roots, n)


def _words(n: int, order: Order, counter: OpCounter | None = None):
    """The text chunks of every listing of length n, once n and `order`
    are checked: the two head words, one chunk, or one chunk each charged
    with n reads, then the tree rooted at 110^(n-2) (`_tree`)."""
    n = _checked_length(n)
    _checked_order(order)
    if n < 2:
        # Words of length <= 1 are emitted without counted work.
        return iter(["0\n1\n" if n else "\n"])
    heads = ("0" * n + "\n", "1" + "0" * (n - 1) + "\n")
    heads = _charged(heads, counter, n) if counter else ("".join(heads),)
    return chain(heads, _tree([1, 2], n, order, counter))


def _charged(chunks, counter: OpCounter, reads: int):
    for chunk in chunks:
        counter.add(reads)
        yield chunk


def _checked_order(order: Order) -> Order:
    """`order`, once it is an Order: a str or any other value raises ValueError."""
    if not isinstance(order, Order):
        raise ValueError(f"order must be Order.LEX or Order.GRAY, not {order!r}")
    return order


def _checked_seed(seed: str) -> list[int]:
    """The positions of the 1s of `seed`, once it is checked."""
    check_word(seed)
    ones = _ones(seed)
    if len(ones) < 2:
        raise ValueError("the starting word needs at least two 1s")
    if not _pn_ones(ones):
        raise ValueError("the starting word is not prefix normal")
    return ones


def _visit_each(chunks, visit, lines: bool = False) -> int:
    """Call `visit` on each text chunk (`lines`) or on each word of each
    chunk in turn; return how many words there were, the chunks' length
    over their first line's (all are n + 1, see the module docstring)."""
    size = width = 0
    for chunk in chunks:
        if lines:
            visit(chunk)
        else:
            for word in chunk.splitlines():
                visit(word)
        size += len(chunk)
        width = width or chunk.find("\n") + 1
        # Dropped before the next chunk is built: one chunk alive at a time.
        del chunk
    return size // width if width else 0


def generate_pn(seed: str, visit, order: Order = Order.LEX) -> int:
    """Visit, each as a str in `order`, the prefix normal words that agree
    with `seed` before its rightmost 1 and have a 1 from there on: the tree
    rooted at `seed`, which GRAY visits last.  Returns the visit count."""
    return _visit_each(_tree(_checked_seed(seed), len(seed), _checked_order(order)), visit)


def iter_pn(seed: str, order: Order = Order.LEX):
    """Pull-iterator version of generate_pn: yields each word as a str."""
    chunks = _tree(_checked_seed(seed), len(seed), _checked_order(order))
    return chain.from_iterable(map(str.splitlines, chunks))


def generate_all(n: int, visit, order: Order = Order.LEX, *,
                 counter: OpCounter | None = None, lines: bool = False) -> int:
    """Visit every prefix normal word of length n in `order`, each as a str,
    or with `lines=True` as the module docstring's text chunks to write
    unsplit; returns how many there are."""
    return _visit_each(_words(n, order, counter), visit, lines)


def iter_all(n: int, order: Order = Order.LEX):
    """Pull-iterator version of generate_all: yields each word as a str."""
    return chain.from_iterable(map(str.splitlines, _words(n, order)))


def count_pn(n: int, cap: int | None = None) -> int:
    """Number of prefix normal words of length n (refuses n above `cap`,
    DEFAULT_GEN_CAP when None)."""
    n = _checked_length(n, DEFAULT_GEN_CAP if cap is None else cap)
    if n < 2:
        return n + 1
    # 0^n and 10^(n-1), then the tree rooted at 110^(n-2).
    return 2 + _count([[1, 2]], n)[0]
