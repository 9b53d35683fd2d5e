import hashlib
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    OpCounter,
    Order,
    _kernel,
    bubble,
    cli,
    count_pn,
    critical_prefix,
    critset,
    flip,
    generate,
    generate_all,
    generate_pn,
    hamming,
    iter_all,
    iter_pn,
    min_flip,
)
from prefixnormal.critstats import _classes
from prefixnormal.generate import _count, _visit_each, _walk

from helpers import (dfs_listing, lines_of_width, pn_def_set, pn_words, reference_inorder,
                     reference_postorder, run_in_process, walk_count)

GRAY_SUBTREE_8 = [
    "11000001", "11000011", "11000010", "11000101", "11000110", "11000100",
    "11001001", "11001010", "11001100", "11001000", "11010001", "11010011",
    "11010010", "11010101", "11010110", "11010100", "11011001", "11011011",
    "11011010", "11011000", "11010000",
]


def test_subtree_gray_fixture():
    assert list(iter_pn("11010000", Order.GRAY)) == GRAY_SUBTREE_8


def test_subtree_lex_is_sorted_gray():
    lex = list(iter_pn("11010000", Order.LEX))
    assert lex == sorted(GRAY_SUBTREE_8)
    assert lex[0] == "11000001" and lex[-1] == "11011011"


def test_generate_pn_returns_visit_count():
    seen = []
    count = generate_pn("11010000", seen.append)
    assert count == 21 == len(seen)


def test_all_ones_seed_is_a_single_visit():
    for order in Order:
        assert list(iter_pn("11111", order)) == ["11111"]


def test_generate_pn_preconditions():
    with pytest.raises(ValueError):
        generate_pn("10000", lambda v: None)  # single 1
    with pytest.raises(ValueError):
        generate_pn("11001101", lambda v: None)  # not prefix normal


def test_walk_matches_reference_recursion():
    for n in range(2, 10):
        for w in pn_words(n):
            if w.count("1") < 2:
                continue
            assert list(iter_pn(w, Order.LEX)) == reference_inorder(w), w
            assert list(iter_pn(w, Order.GRAY)) == reference_postorder(w), w


def _pn_pool():
    return [
        w
        for n in range(2, 15)
        for w in pn_words(n)
        if w.count("1") >= 2
    ]


@settings(max_examples=60)
@given(st.sampled_from(_pn_pool()))
def test_partition_into_self_flip_and_bubble(w):
    n = len(w)
    phi = min_flip(w, validate=False)
    flip_side = pn_def_set(flip(w, phi)) if phi <= n else set()
    bubble_side = pn_def_set(bubble(w)) if w.endswith("0") else set()
    whole = pn_def_set(w)
    assert whole == {w} | flip_side | bubble_side
    assert not ({w} & flip_side) and not ({w} & bubble_side)
    assert not (flip_side & bubble_side)
    assert set(iter_pn(w)) == whole


def test_small_length_listings():
    assert list(iter_all(0)) == [""]
    assert list(iter_all(1)) == ["0", "1"]
    assert list(iter_all(2)) == ["00", "10", "11"]
    assert list(iter_all(3)) == ["000", "100", "101", "110", "111"]
    assert list(iter_all(4)) == [
        "0000", "1000", "1001", "1010", "1100", "1101", "1110", "1111",
    ]


def test_iter_all_equals_the_python_walk_without_the_kernel(monkeypatch):
    # The head words chained in front of the Python walk, with no kernel.
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for order in Order:
        assert list(iter_all(0, order)) == [""]
        assert list(iter_all(1, order)) == ["0", "1"]
        for n in range(2, 13):
            want = ["0" * n, "1" + "0" * (n - 1), *map(str.strip, _walk([1, 2], n, order))]
            assert list(iter_all(n, order)) == want, (n, order)


def test_iter_all_checks_the_length_when_called():
    # Like iter_pn, before any word is taken.
    for order in Order:
        with pytest.raises(ValueError, match="nonnegative"):
            iter_all(-1, order)


def test_listings_refuse_an_order_that_is_not_an_order():
    # A str, even an Order's value, is refused when called, also where no
    # tree is walked: n < 2, a class that is only its seed, empty classes.
    visited = []
    for order in ("lex", "gray", "banana", None, 0):
        for n in (0, 1, 2, 4):
            with pytest.raises(ValueError, match="order"):
                generate_all(n, visited.append, order)
            with pytest.raises(ValueError, match="order"):
                iter_all(n, order)
        for seed in ("11", "1101", "110100"):
            with pytest.raises(ValueError, match="order"):
                generate_pn(seed, visited.append, order)
            with pytest.raises(ValueError, match="order"):
                iter_pn(seed, order)
        for s, t in ((1, 1), (2, 1), (6, 0), (1, 0), (7, 0), (3, 4)):
            with pytest.raises(ValueError, match="order"):
                critset(6, s, t, visited.append, order)
    assert visited == []


def test_full_enumeration_against_bruteforce():
    for n in range(2, 13):
        expected = list(pn_words(n))
        lex = list(iter_all(n, Order.LEX))
        gray = list(iter_all(n, Order.GRAY))
        assert lex == expected
        assert sorted(gray) == expected
        assert len(set(gray)) == len(gray)
        assert all(a < b for a, b in zip(lex, lex[1:]))


def test_listings_equal_the_symbol_by_symbol_search():
    # An independent reference past the brute-force oracle's reach.
    for n in range(15):
        lex = dfs_listing(n)
        assert list(iter_all(n)) == lex, n
        assert sorted(iter_all(n, Order.GRAY)) == lex, n
    ref = dfs_listing(20)
    assert len(ref) == count_pn(20) == 87_024
    digests = [hashlib.sha256("\n".join(words).encode()).hexdigest()
               for words in (ref, iter_all(20))]
    assert digests[0] == digests[1]


def test_gray_distances_and_cycle():
    for n in range(2, 13):
        gray = list(iter_all(n, Order.GRAY))
        assert gray[0] == "0" * n
        assert gray[1] == "1" + "0" * (n - 1)
        assert gray[-1] == "11" + "0" * (n - 2)
        assert all(hamming(a, b) <= 3 for a, b in zip(gray, gray[1:]))
        assert hamming(gray[-1], gray[0]) == 2


def test_fast_phi_shortcut_verified_inline():
    # The references rescan min_flip at every node, so any slip of the O(1)
    # bubble shortcut changes which subtrees the walk enters.
    for n in (6, 9, 12):
        root = "11" + "0" * (n - 2)
        assert list(iter_pn(root, Order.LEX)) == reference_inorder(root)
        assert list(iter_pn(root, Order.GRAY)) == reference_postorder(root)


def test_tree_shape_observations():
    for n in range(3, 10):
        for w in pn_words(n):
            if w.count("1") < 2:
                continue
            r = w.rfind("1") + 1
            # the pure-bubble path from w has exactly n - r edges
            depth = 0
            v = w
            while v.endswith("0"):
                v = bubble(v)
                depth += 1
            assert depth == n - r
            # a node with a right child also has a left child
            phi = min_flip(w, validate=False)
            if phi <= n:
                assert w.endswith("0")
            # a node without a right child roots a pure bubble path
            if phi > n:
                v = w
                while v.endswith("0"):
                    v = bubble(v)
                    assert min_flip(v, validate=False) > n


def test_iterator_protocol_and_successors():
    it = iter_pn("11010000", Order.LEX)
    assert next(it) == "11000001"
    assert next(it) == "11000010"
    it = iter_pn("11010000", Order.GRAY)
    assert next(it) == "11000001"
    assert next(it) == "11000011"
    it = iter_pn("11", Order.LEX)
    assert next(it) == "11"
    with pytest.raises(StopIteration):
        next(it)


def test_visitors_receive_str_words():
    for order in Order:
        for seed in ("110100", "11010000", "1101001000"):
            seen = []
            generate_pn(seed, seen.append, order)
            assert seen == list(iter_pn(seed, order)), (seed, order)
            assert all(type(w) is str for w in seen)
        for s, t in ((1, 1), (2, 1), (1, 3), (3, 7)):
            seen = []
            critset(10, s, t, seen.append, order)
            assert all(type(w) is str for w in seen)
            assert sorted(seen) == [
                w for w in pn_words(10)
                if (cp := critical_prefix(w)).s == s and cp.t == t
            ], (s, t, order)


class _Stop(Exception):
    pass


# Text chunks of 100 words: j = 99 and 100 raise on the last word of the
# first chunk and on the first word of the second.
@pytest.mark.parametrize("j", [0, 1, 99, 100, 255, 256, 257])
def test_visit_each_reraises_a_visitor_error(j):
    # A visitor that takes j words and raises on the next ends the visits
    # there: the error comes out unchanged, and no further chunk is taken.
    words = list(iter_all(12))
    chunks = ["".join(w + "\n" for w in words[i:i + 100]) for i in range(0, len(words), 100)]
    taken, seen = [], []

    def source():
        for chunk in chunks:
            taken.append(chunk)
            yield chunk

    def visit(w):
        if len(seen) == j:
            raise _Stop
        seen.append(w)

    with pytest.raises(_Stop):
        _visit_each(source(), visit)
    assert seen == words[:j]
    assert taken == chunks[: j // 100 + 1]


@pytest.mark.parametrize("kernel", [True, False])
def test_text_chunks_join_to_the_word_listing(monkeypatch, kernel):
    # lines=True hands the visitor text chunks that join to the word
    # listing's lines, and returns the same count, with the compiled walk
    # and with the Python walk.
    if kernel:
        if _kernel.load() is None:
            pytest.skip("no compiled walk on this machine")
    else:
        monkeypatch.setattr(_kernel, "load", lambda: None)

    def same(listing, *query, order):
        parts, words = [], []
        count = listing(*query, parts.append, order, lines=True)
        assert count == listing(*query, words.append, order) == len(words), query
        assert "".join(parts) == "".join(w + "\n" for w in words), (query, order)
        assert all(parts)
        return words

    for order in Order:
        for n in range(17):
            assert same(generate_all, n, order=order) == list(iter_all(n, order))
        for n in range(13):
            for s in range(1, n + 2):
                for t in range(n - s + 2):
                    same(critset, n, s, t, order=order)
        # Charged, each chunk is one word, so the counter moves alike.
        for n in (2, 12, 16):
            runs = []
            for lines in (True, False):
                ctr, marks = OpCounter(), []
                generate_all(n, lambda _: marks.append(ctr.count), order, counter=ctr,
                             lines=lines)
                runs.append((marks, ctr.count))
            assert runs[0] == runs[1], (n, order)


def test_python_walk_chunks_are_lines_of_width_n_plus_1(monkeypatch):
    # _visit_each counts a listing by its length over its first line's.
    # Uncharged, the Python walk's chunks hold as many lines as the lister's
    # cap, 2 or 3 here, so that chunks end on every line; charged, each
    # holds one.
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for order in Order:
        for n in range(2, 11):
            for root in (a for a in ([1, 2], [1, 2, 4], [1, 2, 3, 6]) if a[-1] <= n):
                want = "".join(_walk(root, n, order))
                for size in (2, 3):
                    monkeypatch.setattr(_kernel, "_CHUNK", size * (n + 1))
                    chunks = list(generate._tree(root, n, order))
                    assert all(lines_of_width(c, n) for c in chunks), (root, size)
                    assert "".join(chunks) == want
                chunks = list(generate._tree(root, n, order, OpCounter()))
                assert all(lines_of_width(c, n) and c.count("\n") == 1 for c in chunks)
                assert "".join(chunks) == want


def test_both_walks_cut_chunks_by_one_byte_budget(monkeypatch):
    # Uncharged, the Python walk's chunks hold whole lines and at most the
    # bytes one native call may write (`_kernel.buffers`, the bound the
    # lister's chunks are held to in test_kernel), filled to within a line;
    # 256 lines of n = 96 would not fit.  Only the first chunks are read:
    # the trees are huge.
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for n in (95, 96, 100, 200):
        cap = _kernel.buffers(n)[1]
        for order in Order:
            for chunk in islice(generate._tree([1, 2], n, order), 3):
                assert lines_of_width(chunk, n), (n, order)
                assert cap - (n + 1) < len(chunk) <= cap, (n, order, len(chunk))


@pytest.mark.parametrize("kernel", [True, False])
def test_every_chunk_source_yields_lines_of_width_n_plus_1(monkeypatch, kernel):
    # The head words and the n < 2 listings are built by hand, a class
    # seed is a chunk of its own, and generate_pn lists one subtree: each
    # must be whole lines of n + 1 characters, charged or not.
    if kernel:
        if _kernel.load() is None:
            pytest.skip("no compiled walk on this machine")
    else:
        monkeypatch.setattr(_kernel, "load", lambda: None)

    def fixed(chunks, n):
        chunks = list(chunks)
        assert chunks and all(lines_of_width(c, n) for c in chunks), n
        return "".join(chunks)

    for order in Order:
        for n in range(4):
            listing = fixed(generate._words(n, order), n)
            assert sorted(listing.splitlines()) == list(pn_words(n))
            assert fixed(generate._words(n, order, OpCounter()), n) == fixed(
                generate._words(n, order), n)
        # Every class at n <= 10: singletons, classes with a flip-subtree
        # root, and empty ones.
        roots = set()
        for n in range(1, 11):
            for s in range(1, n + 1):
                for t in range(n - s + 1):
                    parts = []
                    if critset(n, s, t, parts.append, order, lines=True):
                        fixed(parts, n)
                        roots.add(bool(_classes(n, [(s, t)])[1]))
        assert roots == {False, True}

    real_tree, seen = generate._tree, []

    def spy(*args):
        chunks = list(real_tree(*args))
        seen.extend(chunks)
        return iter(chunks)

    monkeypatch.setattr(generate, "_tree", spy)
    for seed in ("11", "110100", "1101001000", "11000000000000", "1" * 9, "1010010001000000"):
        for order in Order:
            seen.clear()
            words = []
            assert generate_pn(seed, words.append, order) == len(words)
            assert fixed(seen, len(seed)) == "".join(w + "\n" for w in words)


@pytest.mark.parametrize("kernel", [True, False])
def test_each_listing_entry_point_finds_the_ones_once(monkeypatch, kernel):
    # A checked seed's 1 positions are built once and handed to the walk,
    # `check` builds its word's once for the test and min_flip, and a class
    # root's come from (s, t) in closed form.
    import prefixnormal.critstats as critstats_module
    import prefixnormal.generate as generate_module
    import prefixnormal.infinite as infinite_module
    import prefixnormal.ops as ops_module
    import prefixnormal.words as words_module

    calls = []
    ones = words_module._ones

    def counted(w):
        calls.append(w)
        return ones(w)

    for module in (words_module, generate_module, ops_module, cli, critstats_module,
                   infinite_module):
        monkeypatch.setattr(module, "_ones", counted, raising=False)
    if not kernel:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    seed = "1101001000"
    for order in Order:
        entry_points = {
            "generate_pn": (lambda: generate_pn(seed, [].append, order), 1),
            "iter_pn": (lambda: list(iter_pn(seed, order)), 1),
            "critset": (lambda: critset(10, 1, 2, [].append, order), 0),
            "check": (lambda: run_in_process("check", seed), 1),
            "check non-pn": (lambda: run_in_process("check", "1011"), 1),
        }
        for name, (call, want) in entry_points.items():
            calls.clear()
            call()
            assert len(calls) == want, (name, order, calls)


def test_count_pn():
    assert count_pn(0) == 1
    assert count_pn(1) == 2
    assert count_pn(5) == 14
    assert count_pn(16) == len(pn_words(16))
    for n in range(19):
        assert count_pn(n) == sum(1 for _ in iter_all(n)), n
    with pytest.raises(ValueError):
        count_pn(41)


@pytest.mark.parametrize("kernel", [True, False])
def test_count_matches_the_walk(monkeypatch, kernel):
    # From every root, not only 110...0 and the class roots; the roots of
    # one length are counted in one batch, by the compiled walk where it
    # can be built and by listing in Python without it.
    if not kernel:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    for n in range(2, 15):
        seeds = [w for w in pn_words(n) if w.count("1") >= 2]
        roots = [[i for i, ch in enumerate(w, 1) if ch == "1"] for w in seeds]
        counts = _count(roots, n)
        assert counts == [sum(1 for _ in iter_pn(w)) for w in seeds], n
        assert counts == [walk_count(a, n) for a in roots], n


def test_counter_monotone_and_positive():
    ctr = OpCounter()
    marks = []
    generate_all(10, lambda view: marks.append(ctr.count), counter=ctr)
    assert marks == sorted(marks)
    assert marks[0] > 0


@pytest.mark.parametrize("order", list(Order))
def test_counter_totals_pinned(order):
    # Symbol reads and writes of a full listing, the paper's cost measure;
    # both orders traverse the same edges and evaluate min_flip at the same
    # nodes.  After each flip min_flip is the closed form
    # min(n + 1, max_x (a_x + a_{k+2-x}) - 1) over the positions a of the
    # k 1s, counted as its k - 1 paired position reads; the root's 1s are
    # found by one n-symbol read.  The largest gap between two visits pins
    # where the cost is charged: each bubble, undo and flip between the two
    # words, not a whole run's bubbles up front.
    for n, total, gap in ((12, 3580, 43), (16, 42124, 59)):
        ctr = OpCounter()
        marks = []
        generate_all(n, lambda view: marks.append(ctr.count), order, counter=ctr)
        assert ctr.count == total, (n, order)
        assert max(b - a for a, b in zip(marks, marks[1:])) == gap, (n, order)
