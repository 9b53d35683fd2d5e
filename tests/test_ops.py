import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import bubble, extend_min, flip, is_prefix_normal, min_flip
from prefixnormal.ops import _run

from helpers import oracle_min_flip, pn_words, prefix_normal_form, reference_phi_scan

words = st.text(alphabet="01", min_size=1, max_size=24)


def test_flip_fixtures():
    assert flip("11010000", 6) == "11010100"
    assert flip("100100000000", 7) == "100100100000"


@given(words, st.data())
def test_flip_involution(w, data):
    j = data.draw(st.integers(1, len(w)))
    assert flip(flip(w, j), j) == w


def test_flip_range_errors():
    with pytest.raises(IndexError):
        flip("101", 0)
    with pytest.raises(IndexError):
        flip("101", 4)


def test_bubble_fixtures():
    assert bubble("100100000000") == "100010000000"
    assert bubble("11010000") == "11001000"
    assert bubble("110001010000") == "110001001000"


def test_bubble_preconditions():
    with pytest.raises(ValueError):
        bubble("0000")
    with pytest.raises(ValueError):
        bubble("101")  # rightmost 1 already at the end


def test_min_flip_fixtures():
    assert min_flip("1101001001011000") == 16
    assert min_flip("100100000000") == 7
    assert min_flip("101001001000") == 11


def test_min_flip_sentinel_on_words_ending_in_one():
    assert min_flip("111") == 4
    assert min_flip("1101") == 5


def test_min_flip_preconditions():
    with pytest.raises(ValueError):
        min_flip("0000")
    with pytest.raises(ValueError):
        min_flip("11001101")  # not prefix normal


def test_min_flip_matches_bruteforce_up_to_14():
    for n in range(1, 15):
        for w in pn_words(n):
            if "1" in w:
                assert min_flip(w) == oracle_min_flip(w), w


def ones_positions(w: str) -> list[int]:
    return [i for i, ch in enumerate(w, 1) if ch == "1"]


def run_min_flip(w: str, q: int) -> tuple[int, int]:
    """min_flip of the node of w's bubble run whose rightmost 1 is at q,
    by the run formula, and the run's position reads."""
    n = len(w)
    rest, second, _, reads = _run(ones_positions(w), n)
    return min(n + 1, max(rest, (second or q) + q) - 1), reads


def test_phi_reads_one_position_per_pair():
    # The closed form reads the k - 1 paired positions of the k 1s, and
    # nothing when the rightmost 1 is at n.
    for n in range(2, 15):
        for w in pn_words(n):
            if w.count("1") >= 2:
                _, reads = run_min_flip(w, w.rfind("1") + 1)
                assert reads == (0 if w.endswith("1") else w.count("1") - 1), w


def assert_phi_matches_scan(w: str) -> None:
    scan = reference_phi_scan(w.encode("ascii"), w.rfind("1") + 1, len(w))[0]
    assert min_flip(w, validate=False) == scan, w
    if w.count("1") >= 2:
        assert run_min_flip(w, w.rfind("1") + 1)[0] == scan, w


def test_phi_matches_full_scan():
    for n in range(1, 17):
        for w in pn_words(n):
            if "1" in w:
                assert_phi_matches_scan(w)


@settings(max_examples=200)
@given(st.text(alphabet="01", min_size=17, max_size=96), st.integers(0, 40))
def test_phi_matches_full_scan_on_long_words(raw, zeros):
    w = prefix_normal_form(raw) + "0" * zeros
    if "1" in w:
        assert_phi_matches_scan(w)


def test_min_flip_is_the_capped_minimal_extension():
    # min_flip puts the next 1 where extend_min puts it after w[:r], unless
    # that is past the end.
    for n in range(1, 13):
        for w in pn_words(n):
            if "1" in w:
                r = w.rfind("1") + 1
                assert min_flip(w) == min(n + 1, len(extend_min(w[:r]))), w


def test_flips_at_or_past_min_flip_stay_pn():
    for n in range(2, 17):
        for w in pn_words(n):
            if "1" not in w:
                continue
            phi = min_flip(w, validate=False)
            for ell in range(phi, n + 1):
                assert is_prefix_normal(flip(w, ell)), (w, ell)


def test_flips_before_min_flip_break_pn():
    for n in range(2, 17):
        for w in pn_words(n):
            if "1" not in w:
                continue
            r = w.rfind("1") + 1
            phi = min_flip(w, validate=False)
            for j in range(r + 1, phi):
                assert not is_prefix_normal(flip(w, j)), (w, j)


def test_bubble_preserves_pn():
    for n in range(2, 17):
        for w in pn_words(n):
            if w.count("1") >= 2 and w.endswith("0"):
                assert is_prefix_normal(bubble(w)), w


def test_flip_keeps_pn_fixtures():
    w = "1101001001011000"
    assert not is_prefix_normal(flip(w, 14))
    assert is_prefix_normal(flip(w, 16))
    assert is_prefix_normal(flip("11000000", 3))


def test_flip_keeps_pn_agrees_with_oracle_and_threshold():
    # A flip past the rightmost 1 keeps the word prefix normal exactly from
    # min_flip on.
    for n in range(2, 15):
        for w in pn_words(n):
            if "1" not in w:
                continue
            r = w.rfind("1") + 1
            phi = min_flip(w, validate=False)
            for j in range(r + 1, n + 1):
                assert is_prefix_normal(flip(w, j)) == (j >= phi), (w, j)


def bubbled_phi(w: str) -> int:
    """min_flip(bubble(w)) by the run formula at q = r + 1."""
    return run_min_flip(w, w.rfind("1") + 2)[0]


def test_min_flip_after_bubble_fixtures():
    assert bubbled_phi("100100000000") == 9
    assert bubbled_phi("110001010000") == 11
    assert bubbled_phi("101001001000") == 12


def test_min_flip_after_bubble_matches_rescan_up_to_12():
    for n in range(2, 13):
        for w in pn_words(n):
            if w.count("1") >= 2 and w.endswith("0"):
                assert bubbled_phi(w) == min_flip(bubble(w)), w
