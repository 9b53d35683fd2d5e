"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v`.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from prefixnormal import (
    OpCounter,
    Order,
    ScanCapExceeded,
    bubble,
    critical_prefix_histogram,
    critset,
    critset_count,
    density_profile,
    detect_period,
    generate_all,
    hamming,
    iter_all,
    iter_pn,
    min_flip,
)
from prefixnormal.ops import _run

from helpers import pn_words, verify_densest

TABLE_SMALL = {
    1: ["0", "1"],
    2: ["00", "10", "11"],
    3: ["000", "100", "101", "110", "111"],
    4: ["0000", "1000", "1001", "1010", "1100", "1101", "1110", "1111"],
    5: [
        "00000", "10000", "10001", "10010", "10100", "10101", "11000",
        "11001", "11010", "11011", "11100", "11101", "11110", "11111",
    ],
}

GRAY_SUBTREE_8 = [
    "11000001", "11000011", "11000010", "11000101", "11000110", "11000100",
    "11001001", "11001010", "11001100", "11001000", "11010001", "11010011",
    "11010010", "11010101", "11010110", "11010100", "11011001", "11011011",
    "11011010", "11011000", "11010000",
]

SPOT_CELLS_N32 = {
    (1, 1): 284663,
    (2, 2): 979458,
    (5, 9): 11658,
    (3, 15): 92,
    (7, 22): 4,
    (2, 30): 1,
    (1, 32): 0,
}


def report(num, label, ok):
    print(f"ACCEPT {'PASS' if ok else 'FAIL'} [{num:02d}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_c01_small_length_listings_via_cli():
    ok = True
    for k, expected in TABLE_SMALL.items():
        t0 = time.time()
        res = subprocess.run(
            [sys.executable, "-m", "prefixnormal", "gen", "-n", str(k), "--order", "lex"],
            capture_output=True,
            text=True,
        )
        elapsed = time.time() - t0
        ok = ok and res.returncode == 0
        ok = ok and res.stdout == "".join(w + "\n" for w in expected)
        ok = ok and elapsed < 1.0
    counts = [len(TABLE_SMALL[k]) for k in range(1, 6)]
    ok = ok and counts == [2, 3, 5, 8, 14]
    report(1, "lengths 1-5 listed exactly, in order, under a second each", ok)


def test_c02_generator_equals_bruteforce_2_to_18():
    t0 = time.time()
    ok = True
    for n in range(2, 19):
        expected = list(pn_words(n))
        lex = list(iter_all(n, Order.LEX))
        gray = list(iter_all(n, Order.GRAY))
        ok = ok and lex == expected
        ok = ok and sorted(gray) == expected
        ok = ok and len(set(lex)) == len(lex)
        ok = ok and len(set(gray)) == len(gray)
        ok = ok and all(a < b for a, b in zip(lex, lex[1:]))
    ok = ok and (time.time() - t0) < 300
    report(2, "both orders equal brute force for n=2..18, lex ascending", ok)


def test_c03_min_flip_fixtures():
    ok = min_flip("1101001001011000") == 16
    for w, phi, phi_b in [
        ("100100000000", 7, 9),
        ("110001010000", 11, 11),
        ("101001001000", 11, 12),
    ]:
        ok = ok and min_flip(w) == phi
        ok = ok and min_flip(bubble(w)) == phi_b
    report(3, "minimum-flip fixtures exact", ok)


def test_c04_bubble_shortcut_equals_rescan_up_to_16():
    ok = True
    for n in range(2, 17):
        for w in pn_words(n):
            if w.count("1") >= 2:
                r = w.rfind("1") + 1
                rest, second, _, _ = _run([i for i, ch in enumerate(w, 1) if ch == "1"], n)
                v = w
                for q in range(r, n + 1):
                    got = min(n + 1, max(rest, (second or q) + q) - 1)
                    ok = ok and got == min_flip(v, validate=False)
                    if q < n:
                        v = bubble(v)
                if not ok:
                    break
    report(4, "bubble-run formula equals rescans for n<=16", ok)


def test_c05_gray_code_2_to_16():
    ok = True
    for n in range(2, 17):
        gray = list(iter_all(n, Order.GRAY))
        ok = ok and gray[0] == "0" * n
        ok = ok and gray[1] == "1" + "0" * (n - 1)
        ok = ok and all(hamming(a, b) <= 3 for a, b in zip(gray, gray[1:]))
        ok = ok and gray[-1] == "11" + "0" * (n - 2)
        ok = ok and hamming(gray[-1], gray[0]) == 2
    report(5, "gray listings: distances <=3, prelude, cyclic closure = 2", ok)


def test_c06_fixed_subtree_gray_fixture():
    ok = list(iter_pn("11010000", Order.GRAY)) == GRAY_SUBTREE_8
    report(6, "21-word gray listing of the 11010000 subtree exact", ok)


def test_c07_spot_counts_n32():
    t0 = time.time()
    ok = True
    for (s, t), expected in SPOT_CELLS_N32.items():
        cell_start = time.time()
        ok = ok and critset_count(32, s, t) == expected
        ok = ok and (time.time() - cell_start) <= 60
    ok = ok and (time.time() - t0) <= 300
    report(7, "spot class sizes at n=32 exact and within budget", ok)


def test_c08_critset_partition_and_histogram_up_to_14():
    ok = True
    for n in range(2, 15):
        seen: list[str] = []
        per_length: dict[int, int] = {}
        for s in range(1, n + 1):
            for t in range(0, n - s + 1):
                cnt = critset(n, s, t, seen.append)
                if cnt:
                    per_length[s + t] = per_length.get(s + t, 0) + cnt
        ok = ok and len(seen) == len(set(seen))
        ok = ok and set(seen) | {"0" * n} == set(pn_words(n))
        per_length[n] = per_length.get(n, 0) + 1  # the all-zero word
        hist = critical_prefix_histogram(n)
        ok = ok and hist.bins == per_length
    report(8, "classes partition the language and match the histogram, n<=14", ok)


def test_c09_extension_periodicity_sweep_up_to_10():
    t0 = time.time()
    ok = True
    swept = 0
    for n in range(1, 11):
        for w in pn_words(n):
            if not w.endswith("1"):
                continue
            swept += 1
            prof = density_profile(w)
            m = -(-len(w) // prof.length)
            bound = (comb(prof.length, prof.ones) - 1) * m * prof.length
            try:
                rep = detect_period(w)
            except ScanCapExceeded:
                ok = False
                break
            ok = ok and len(rep.period) == prof.length
            ok = ok and rep.period.count("1") == prof.ones
            ok = ok and len(rep.preperiod) <= bound
            ok = ok and all(rep.checks.values())
    ok = ok and swept > 0 and (time.time() - t0) < 600
    report(9, f"periodicity certified with all checks for {swept} seeds |w|<=10", ok)


def test_c10_density_fixtures():
    p = density_profile("110100101001")
    ok = (p.density, p.length, p.ones) == (Fraction(5, 11), 11, 5)
    q = density_profile("110100101010")
    ok = ok and (q.density, q.length, q.ones) == (Fraction(1, 2), 6, 3)
    report(10, "density profiles exact as rationals", ok)


def test_c11_densest_extension_dominates():
    t0 = time.time()
    ok = True
    for k in range(1, 7):
        for w in pn_words(k):
            if not w.endswith("1"):
                continue
            for n in range(len(w), 13):
                ok = ok and verify_densest(w, n)
    ok = ok and (time.time() - t0) < 300
    report(11, "minimal extension dominates every continuation, |w|<=6, n<=12", ok)


@pytest.mark.parametrize("order", [Order.LEX, Order.GRAY])
def test_c12_per_word_work_bound(order):
    C = 8
    ok = True
    for n in (8, 12, 16):
        ctr = OpCounter()
        marks: list[int] = []
        generate_all(n, lambda view: marks.append(ctr.count), order, counter=ctr)
        gaps = [marks[0]] + [b - a for a, b in zip(marks, marks[1:])]
        ok = ok and max(gaps) <= C * n
    report(12, f"symbol work between visits <= {C}n for n in 8/12/16 ({order.value})", ok)
