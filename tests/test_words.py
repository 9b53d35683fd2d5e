import json
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    CritPrefix,
    cli,
    critical_prefix,
    detect_period,
    extend_stream,
    generate,
    generate_pn,
    hamming,
    infinite,
    is_prefix_normal,
    iter_pn,
    min_flip,
    ops,
    oracle_enumerate,
    prefix_counts,
    stream_prefix,
    words as words_module,
)
from prefixnormal.words import _ones, _pn_ones

from helpers import run_in_process, seeds_ending_in_one, window_formulation_is_pn

words = st.text(alphabet="01", max_size=24)


@given(words)
def test_rank1_monotone_unit_steps(w):
    p = prefix_counts(w)
    assert p[0] == 0
    assert p[len(w)] == w.count("1")
    for i in range(1, len(w) + 1):
        assert p[i] - p[i - 1] in (0, 1)
        assert p[i] == w.count("1", 0, i)


def test_is_prefix_normal_fixtures():
    assert is_prefix_normal("11001010")
    assert not is_prefix_normal("11001101")  # the factor 1101 is too heavy
    assert not is_prefix_normal("1101000100110100")
    assert is_prefix_normal("")
    assert is_prefix_normal("0000")


def test_word_validation():
    with pytest.raises(ValueError):
        is_prefix_normal("10a2")
    with pytest.raises(ValueError):
        is_prefix_normal(b"101")


def test_two_formulations_agree_up_to_14():
    for n in range(15):
        for k in range(1 << n):
            w = format(k, f"0{n}b") if n else ""
            assert is_prefix_normal(w) == window_formulation_is_pn(w), w


def _is_pn(w):
    return _pn_ones(_ones(w))


def test_closed_form_equals_the_naive_test_up_to_16():
    for n in range(17):
        for k in range(1 << n):
            w = format(k, f"0{n}b") if n else ""
            assert _is_pn(w) == is_prefix_normal(w), w


@st.composite
def long_words(draw):
    # A prefix of a seed's densest extension, which is prefix normal, or
    # that word with one symbol flipped, which often is not.
    seed = draw(st.sampled_from(seeds_ending_in_one(10)))
    w = stream_prefix(seed, draw(st.integers(1, 2000)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(w) - 1))
        w = w[:i] + "10"[int(w[i])] + w[i + 1 :]
    return w


@settings(max_examples=40)
@given(long_words())
def test_closed_form_equals_the_naive_test_on_long_words(w):
    assert _is_pn(w) == is_prefix_normal(w), w


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _membership_paths():
    # Every production path that tests a caller's word: the seeds of
    # detect_period (and its aligned_pn_ok check), extend_stream,
    # stream_prefix and `extend`, those of generate_pn and iter_pn,
    # min_flip's validation and `check`.  The last three seeds are not
    # prefix normal.
    got = []
    for w in ("1", "101", "1101001", "110100101001", "1010010001", "1011", "1101101", "01"):
        got += [
            _outcome(detect_period, w),
            _outcome(lambda: "".join(islice(extend_stream(w), 60))),
            _outcome(stream_prefix, w, 60),
            _outcome(lambda: list(iter_pn(w + "000"))),
            _outcome(lambda: generate_pn(w + "000", lambda word: None)),
            _outcome(min_flip, w + "00"),
            run_in_process("check", w),
            run_in_process("check", w + "00"),
            run_in_process("extend", w),
            run_in_process("extend", w, "--steps", 5),
            run_in_process("extend", w, "--detect"),
        ]
    return got


def test_production_paths_never_run_the_naive_test(monkeypatch):
    # The naive test stays the ground truth; every path that checks a
    # word uses the closed form, with the same outcome.
    want = _membership_paths()

    def refuse(w):
        raise AssertionError(f"the naive test ran on {w!r}")

    for module in (words_module, infinite, generate, ops, cli):
        monkeypatch.setattr(module, "is_prefix_normal", refuse, raising=False)
    assert _membership_paths() == want


def test_critical_prefix_fixtures():
    assert critical_prefix("1100001001") == CritPrefix(2, 4)
    assert critical_prefix("0011101001") == CritPrefix(0, 2)
    assert critical_prefix("1111000000") == CritPrefix(4, 6)
    assert critical_prefix("1111000000").length == 10
    with pytest.raises(ValueError):
        critical_prefix("")


@given(words.filter(bool))
def test_critical_prefix_reconstruction(w):
    cp = critical_prefix(w)
    assert cp.s >= 0 and cp.t >= 0
    if cp.s == 0:
        assert cp.t > 0
    assert w.startswith("1" * cp.s + "0" * cp.t)
    if cp.length < len(w):
        assert w[cp.length] == "1"


def test_oracle_enumerate_small_lengths():
    assert oracle_enumerate(1) == ("0", "1")
    assert oracle_enumerate(3) == ("000", "100", "101", "110", "111")
    five = oracle_enumerate(5)
    assert len(five) == 14
    assert five[0] == "00000" and five[-1] == "11111"
    assert oracle_enumerate(0) == ("",)


def test_oracle_enumerate_cap_refusal():
    # The messages the CLI prints for the same refusals.
    with pytest.raises(ValueError, match=r"^n=25 exceeds the oracle cap \(20\)$"):
        oracle_enumerate(25)
    with pytest.raises(ValueError, match=r"^n=6 exceeds the oracle cap \(5\)$"):
        oracle_enumerate(6, 5)
    with pytest.raises(ValueError, match="^word length must be nonnegative$"):
        oracle_enumerate(-1)


# Calls each integer argument of the listing and counting entry points
# with non-integers, with the compiled walk or (argv[1] == "python") the
# Python walks, and prints [argument, call, outcome] for each as JSON.
_NON_INTEGER_PROBE = """
import json, sys
from prefixnormal import (_kernel, count_pn, critical_prefix_histogram, critset, critset_count,
                          critset_table, generate_all, iter_all)

if sys.argv[1] == "python":
    _kernel.load = lambda: None
calls = [
    ("n", "count_pn(x)", lambda x: count_pn(x)),
    ("n", "iter_all(x)", lambda x: list(iter_all(x))),
    ("n", "generate_all(x)", lambda x: generate_all(x, print)),
    ("n", "critset(x, 2, 1)", lambda x: critset(x, 2, 1, print)),
    ("s", "critset(10, x, 1)", lambda x: critset(10, x, 1, print)),
    ("t", "critset(10, 2, x)", lambda x: critset(10, 2, x, print)),
    ("n", "critset_count(x, 2, 1)", lambda x: critset_count(x, 2, 1)),
    ("s", "critset_count(10, x, 1)", lambda x: critset_count(10, x, 1)),
    ("t", "critset_count(10, 2, x)", lambda x: critset_count(10, 2, x)),
    ("n", "critset_table(x, 2, 2)", lambda x: critset_table(x, 2, 2)),
    ("s_max", "critset_table(5, x, 2)", lambda x: critset_table(5, x, 2)),
    ("t_max", "critset_table(5, 2, x)", lambda x: critset_table(5, 2, x)),
    ("jobs", "critset_table(5, 2, 2, jobs=x)", lambda x: critset_table(5, 2, 2, jobs=x)),
    ("n", "critical_prefix_histogram(x)", lambda x: critical_prefix_histogram(x)),
]
out = []
for name, call, f in calls:
    for x in (2.0, 2.5, "3", None):
        try:
            f(x)
            outcome = "returned"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        out.append([name, f"{call} x={x!r}", outcome])
print(json.dumps(out))
"""


def test_both_walks_refuse_the_same_non_integer_arguments():
    # A float or a str once passed the Python walk's checks and broke the
    # kernel's (count_pn(2.5) == 3.5 in Python, a TypeError in C), and
    # critset_count(10, 2, 2.5) never returned in Python, so each walk runs
    # in a child process with a timeout.
    runs = [json.loads(subprocess.run([sys.executable, "-c", _NON_INTEGER_PROBE, walk],
                                      capture_output=True, text=True, check=True,
                                      timeout=30).stdout)
            for walk in ("kernel", "python")]
    assert runs[0] == runs[1]
    for name, call, outcome in runs[0]:
        assert outcome == f"ValueError: {name} must be an integer", call
    # The oracle's cache tells 2.0 from 2.
    assert oracle_enumerate(2) == ("00", "10", "11")
    with pytest.raises(ValueError, match="^n must be an integer$"):
        oracle_enumerate(2.0)


def test_hamming():
    n = 8
    assert hamming("11" + "0" * (n - 2), "0" * n) == 2
    assert hamming("10110", "10110") == 0
    assert hamming("11000001", "11000011") == 1
    with pytest.raises(ValueError):
        hamming("10", "100")


def test_nonzero_pn_words_start_with_one():
    for n in range(1, 11):
        for w in oracle_enumerate(n):
            assert w == "0" * n or w[0] == "1"


def test_prefixes_of_pn_words_are_pn():
    for n in range(1, 11):
        for w in oracle_enumerate(n):
            for i in range(n + 1):
                assert is_prefix_normal(w[:i])


def test_appending_zeros_preserves_pn():
    for n in range(1, 9):
        for w in oracle_enumerate(n):
            for i in range(1, 6):
                assert is_prefix_normal(w + "0" * i)


def test_append_one_characterization():
    # w1 stays prefix normal iff every i-length suffix of w has fewer 1s than
    # the (i+1)-length prefix, for 1 <= i < len(w).  The single word "0" is
    # excluded: its quantifier range is empty, yet "01" is not prefix normal.
    for n in range(1, 13):
        for w in oracle_enumerate(n):
            if w == "0":
                continue
            p = prefix_counts(w)
            cond = all(
                p[i + 1] > w[n - i :].count("1") for i in range(1, n)
            )
            assert cond == is_prefix_normal(w + "1"), w
