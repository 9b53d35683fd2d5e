import json

import pytest

from prefixnormal import (
    Order,
    count_pn,
    critical_prefix,
    critical_prefix_histogram,
    critset,
    critset_count,
    critset_table,
    generate,
    hamming,
    is_prefix_normal,
)
from prefixnormal import _kernel
from prefixnormal.critstats import _classes

from helpers import pn_words, reference_class_root


def collect(n, s, t, order=Order.LEX):
    out = []
    critset(n, s, t, out.append, order)
    return out


def by_oracle(n, s, t):
    return [
        w for w in pn_words(n)
        if (cp := critical_prefix(w)).s == s and cp.t == t
    ]


def test_whole_prefix_classes_are_singletons():
    assert collect(32, 2, 30) == ["1" * 2 + "0" * 30]
    assert collect(6, 6, 0) == ["111111"]


def test_empty_classes():
    assert collect(32, 1, 32) == []  # s + t past the length
    assert collect(6, 3, 0) == []  # room left after 1^3 forces a longer 1-run
    assert critset_count(32, 1, 32) == 0


def test_invalid_queries():
    with pytest.raises(ValueError):
        collect(8, 0, 3)
    with pytest.raises(ValueError):
        collect(8, 1, -1)
    with pytest.raises(ValueError):
        critset_count(8, 0, 1)


def test_class_seeds_are_prefix_normal():
    # critset builds the seed 1^s 0^t 1 0^(n-s-t-1) without checking it;
    # the quadratic oracle checks every such seed here instead, and every
    # class up to n = 12 lists the reference seed first (LEX) and last (GRAY).
    for n in range(3, 41):
        for s in range(1, n - 1):
            for t in range(1, n - s):
                seed = "1" * s + "0" * t + "1" + "0" * (n - s - t - 1)
                assert is_prefix_normal(seed), seed
    for n in range(0, 13):
        for s in range(1, n + 2):
            for t in range(0, n - s + 2):
                seed = reference_class_root(n, s, t)[0]
                lex, gray = collect(n, s, t), collect(n, s, t, Order.GRAY)
                assert lex[:1] == gray[-1:] == ([seed] if seed else []), (n, s, t)


def test_closed_form_roots_equal_the_flipped_seeds():
    # _classes reads each root off (s, t); the reference builds the seed
    # word and flips it at min_flip.  One t past s + t == n checks empty
    # classes, and each length's classes go in one batch.
    for n in range(0, 41):
        pairs = [(s, t) for s in range(1, n + 2) for t in range(0, n - s + 2)]
        sizes, roots = [], {}
        for i, (s, t) in enumerate(pairs):
            seed, root = reference_class_root(n, s, t)
            sizes.append(int(seed is not None))
            if root:
                roots[i] = [j for j, ch in enumerate(root, 1) if ch == "1"]
        assert _classes(n, pairs) == (sizes, roots), n


def test_spot_count():
    assert critset_count(32, 7, 22) == 4


def test_count_equals_visit_count_in_both_orders():
    # The counting walk against the listing it replaces for counts.
    for n in range(1, 17):
        for s in range(1, n + 1):
            for t in range(0, n - s + 1):
                count = critset_count(n, s, t)
                for order in Order:
                    assert critset(n, s, t, lambda view: None, order) == count, (n, s, t)


def test_matches_oracle_filter():
    for n in range(2, 15):
        for s in range(1, n + 1):
            for t in range(0, n - s + 1):
                got = collect(n, s, t)
                assert sorted(got) == by_oracle(n, s, t), (n, s, t)
                assert got == sorted(got)  # lex order


def test_disjoint_cover():
    for n in range(2, 11):
        seen: list[str] = []
        for s in range(1, n + 1):
            for t in range(0, n - s + 1):
                seen.extend(collect(n, s, t))
        assert len(seen) == len(set(seen))
        assert set(seen) | {"0" * n} == set(pn_words(n))


def test_subtree_locality():
    for n in range(3, 11):
        for s in range(1, n):
            for t in range(1, n - s):
                prefix = "1" * s + "0" * t + "1"
                for w in collect(n, s, t):
                    assert w.startswith(prefix), (n, s, t, w)


def test_critset_does_not_recheck_its_root(monkeypatch):
    # The class root is prefix normal by construction, so listing a class
    # runs no membership test on it.
    n = 14
    queries = [(s, t, order) for s in range(1, n + 1) for t in range(n - s + 1)
               for order in Order]
    want = [collect(n, *q) for q in queries]

    def refuse(w):
        raise AssertionError("the class root was checked again")

    monkeypatch.setattr(generate, "_pn_ones", refuse)
    assert [collect(n, *q) for q in queries] == want


def test_gray_order_within_a_class():
    for (n, s, t) in [(8, 1, 1), (9, 2, 3), (10, 1, 2)]:
        words = collect(n, s, t, Order.GRAY)
        assert sorted(words) == by_oracle(n, s, t)
        assert all(hamming(a, b) <= 3 for a, b in zip(words, words[1:]))
        assert words[-1] == "1" * s + "0" * t + "1" + "0" * (n - s - t - 1)


def test_table_cells_and_emitters():
    table = critset_table(6, 3, 4)
    for s in range(1, 4):
        for t in range(0, 5):
            assert table.cells[s, t] == critset_count(6, s, t)
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "s\\t,0,1,2,3,4"
    assert len(lines) == 4
    assert csv.endswith("\n") and not csv.endswith("\n\n")
    payload = json.loads(table.to_json())
    assert payload["n"] == 6
    assert {"s": 1, "t": 1, "count": critset_count(6, 1, 1)} in payload["cells"]


def test_table_parallel_matches_sequential():
    seq = critset_table(8, 4, 5)
    par = critset_table(8, 4, 5, jobs=2)
    assert seq == par


def test_table_covers_language_with_the_two_singletons():
    for n in (6, 8, 10):
        table = critset_table(n, n, n)
        # every class is inside the rectangle; only the all-zero word is extra
        assert table.total() + 1 == count_pn(n)


@pytest.mark.parametrize("compiled", [True, False])
def test_table_and_histogram_equal_the_classes_counted_one_by_one(compiled, monkeypatch):
    # Both count all their classes in one batch; the reference counts each
    # class with its own critset_count.
    if compiled and _kernel.load() is None:
        pytest.skip("no compiled walk on this machine")
    if not compiled:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    for n in range(1, 23):
        cells = {(s, t): critset_count(n, s, t) for s in range(1, n + 1) for t in range(n + 1)}
        assert critset_table(n, n, n).cells == cells, n
        bins = {n: 1}
        for (s, t), count in cells.items():
            if count:
                bins[s + t] = bins.get(s + t, 0) + count
        assert critical_prefix_histogram(n).bins == bins, n


def test_table_cap():
    with pytest.raises(ValueError, match=r"n=41 exceeds the generation cap \(40\)"):
        critset_table(41, 1, 1)
    with pytest.raises(ValueError, match=r"n=9 exceeds the generation cap \(8\)"):
        critset_table(9, 1, 1, cap=8)
    assert critset_table(41, 1, 1, cap=41).cells == {(1, 0): 0, (1, 1): critset_count(41, 1, 1)}


def test_table_bounds_cap():
    # The bounds are checked against the larger of cap and DEFAULT_GEN_CAP,
    # so every bound up to 40 is taken whatever the cap.
    with pytest.raises(ValueError, match=r"^s_max=600 exceeds the generation cap \(40\)$"):
        critset_table(5, 600, 600)
    with pytest.raises(ValueError, match=r"^t_max=41 exceeds the generation cap \(40\)$"):
        critset_table(5, 40, 41, cap=5)
    with pytest.raises(ValueError, match=r"^s_max=51 exceeds the generation cap \(50\)$"):
        critset_table(5, 51, 1, cap=50)
    table = critset_table(5, 40, 40, cap=5)
    assert len(table.cells) == 40 * 41
    assert table.total() == count_pn(5) - 1
    assert len(critset_table(5, 50, 50, cap=50).cells) == 50 * 51


def test_table_lower_bounds():
    # t runs from 0: t_max = 0 is the t = 0 column, and n = 0 has only
    # empty classes.  Each message names the bound that is out of range.
    assert critset_table(0, 2, 0).cells == {(1, 0): 0, (2, 0): 0}
    assert critset_table(4, 4, 0).cells == {(1, 0): 0, (2, 0): 0, (3, 0): 0, (4, 0): 1}
    with pytest.raises(ValueError, match=r"^s_max must be >= 1$"):
        critset_table(4, 0, 0)
    with pytest.raises(ValueError, match=r"^t_max must be >= 0$"):
        critset_table(4, 1, -1)


def test_histogram_small_fixture():
    hist = critical_prefix_histogram(3)
    assert hist.bins == {2: 1, 3: 4}
    assert hist.total == 5
    assert hist.to_csv() == "length,count,percent\n2,1,20.000000\n3,4,80.000000\n"


def test_histogram_sums_and_consistency():
    for n in range(2, 11):
        hist = critical_prefix_histogram(n)
        assert sum(hist.bins.values()) == count_pn(n)
        table = critset_table(n, n, n)
        for length, cnt in hist.bins.items():
            diag = sum(
                table.cells[s, t]
                for (s, t) in table.cells
                if s + t == length
            )
            if length == n:
                diag += 1  # the all-zero word
            assert diag == cnt, (n, length)


def test_histogram_equals_per_word_tally():
    # The histogram is a fold of class sizes; tally each word directly so
    # the fold is checked against something other than itself.
    for n in range(1, 15):
        tally: dict[int, int] = {}
        for w in pn_words(n):
            cp = critical_prefix(w)
            tally[cp.s + cp.t] = tally.get(cp.s + cp.t, 0) + 1
        hist = critical_prefix_histogram(n)
        assert hist.bins == tally, n
        assert hist.total == len(pn_words(n))


def test_histogram_json():
    payload = json.loads(critical_prefix_histogram(3).to_json())
    assert payload == {
        "n": 3,
        "total": 5,
        "bins": [
            {"length": 2, "count": 1, "percent": 20.0},
            {"length": 3, "count": 4, "percent": 80.0},
        ],
    }


def test_histogram_cap():
    with pytest.raises(ValueError):
        critical_prefix_histogram(9, cap=8)
