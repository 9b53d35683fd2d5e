import json
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    ScanCapExceeded,
    density_profile,
    detect_period,
    extend_min,
    extend_stream,
    is_prefix_normal,
    iter_all,
    prefix_counts,
    stream_prefix,
)

from helpers import (
    prefix_normal_form,
    reference_detect_period,
    reference_detect_period_by_symbol,
    reference_extend_stream,
    run_in_process,
    seeds_ending_in_one,
    verify_densest,
)

words = st.text(alphabet="01", min_size=1, max_size=24)


def pn_seeds(low, high):
    """Prefix normal seeds ending in 1 of length low..high: the prefix normal
    form of a word that starts and ends in 1."""
    return (
        st.integers(low - 2, high - 2)
        .flatmap(lambda k: st.text(alphabet="01", min_size=k, max_size=k))
        .map(lambda mid: prefix_normal_form("1" + mid + "1"))
    )


def stream_iterates(w, count):
    """First `count` finite iterates of the extension, cut from the stream at
    each appended 1."""
    need = w.count("1") + count
    out, seen, buf = [], 0, []
    for ch in extend_stream(w):
        buf.append(ch)
        if ch == "1":
            seen += 1
            if seen > w.count("1"):
                out.append("".join(buf))
        if seen == need:
            break
    return out


def test_density_profile_fixtures():
    p = density_profile("110100101001")
    assert (p.density, p.length, p.ones) == (Fraction(5, 11), 11, 5)
    p = density_profile("110100101010")
    assert (p.density, p.length, p.ones) == (Fraction(1, 2), 6, 3)
    p = density_profile("1")
    assert (p.density, p.length, p.ones) == (Fraction(1), 1, 1)


def test_density_profile_prefers_earliest_witness():
    assert density_profile("1010").length == 2
    assert density_profile("10").length == 2
    assert density_profile("0000").length == 1
    assert density_profile("0000").density == 0


def test_density_profile_empty_word():
    with pytest.raises(ValueError):
        density_profile("")


@given(words)
def test_density_profile_invariants(w):
    p = density_profile(w)
    counts = prefix_counts(w)
    assert p.density == Fraction(p.ones, p.length)
    assert counts[p.length] == p.ones
    for j in range(1, len(w) + 1):
        d = Fraction(counts[j], j)
        assert d >= p.density
        if j < p.length:
            assert d > p.density


def test_extend_min_fixtures():
    assert extend_min("1") == "11"
    assert extend_min("101") == "10101"
    assert extend_min("1101") == "11011"


def test_extend_min_rejects_bad_seeds():
    with pytest.raises(ValueError):
        extend_min("10")  # trailing zero
    with pytest.raises(ValueError):
        extend_min("11001101")  # not prefix normal
    with pytest.raises(ValueError):
        extend_min("")


def test_stream_prefix_fixtures():
    assert stream_prefix("1", 5) == "11111"
    assert stream_prefix("101", 9) == "101010101"
    w = "110100101001"
    assert stream_prefix(w, len(w)) == w


def test_stream_equals_iterated_extension():
    # the closed-form step inside the stream must agree with the full
    # quadratic search, step by step
    for seed in seeds_ending_in_one(12):
        cur = seed
        for _ in range(30):
            cur = extend_min(cur)
        assert stream_prefix(seed, len(cur)) == cur, seed


def test_stream_equals_iterated_extension_on_long_seeds():
    rng = random.Random(2017)
    for size in (64, 96, 128):
        seed = prefix_normal_form("1" + "".join(rng.choices("01", k=size - 2)) + "1")
        cur = seed
        for _ in range(40):
            cur = extend_min(cur)
        assert stream_prefix(seed, len(cur)) == cur, seed


@settings(max_examples=150)
@given(pn_seeds(13, 128))
def test_stream_equals_reference_stream(seed):
    assert len(seed) >= 13 and seed.endswith("1") and is_prefix_normal(seed)
    count = 3 * len(seed) + 1
    got = "".join(islice(extend_stream(seed), count))
    assert got == "".join(islice(reference_extend_stream(seed), count))


def test_stream_prefixes_stay_prefix_normal():
    from math import comb

    for seed in seeds_ending_in_one(7):
        p = density_profile(seed)
        m = -(-len(seed) // p.length)
        bound = (comb(p.length, p.ones) - 1) * m * p.length
        if bound == 0:
            continue
        assert is_prefix_normal(stream_prefix(seed, 4 * bound)), seed


def test_block_density_and_lex_non_increase():
    for seed in seeds_ending_in_one(8):
        p = density_profile(seed)
        v = stream_prefix(seed, 20 * p.length)
        blocks = [v[i : i + p.length] for i in range(0, len(v), p.length)]
        for block in blocks:
            assert block.count("1") == p.ones, seed
        assert all(a >= b for a, b in zip(blocks, blocks[1:])), seed


def _sampled_long_seeds():
    from prefixnormal import iter_all

    out = []
    for n in (10, 12, 14, 16):
        enders = [w for w in iter_all(n) if w.endswith("1")]
        out.extend(enders[:: max(1, len(enders) // 15)])
    return out


def test_density_profile_invariant_under_extension():
    for seed in seeds_ending_in_one(8) + _sampled_long_seeds():
        want = density_profile(seed)
        for it in stream_iterates(seed, 20):
            assert density_profile(it) == want, seed


def test_detect_period_fixtures():
    rep = detect_period("101")
    assert (rep.preperiod, rep.period) == ("1", "01")
    assert rep.block_len == 2 and rep.block_ones == 1
    assert rep.preperiod_bound == 4
    assert all(rep.checks.values())

    rep = detect_period("1")
    assert (rep.preperiod, rep.period) == ("", "1")

    rep = detect_period("110100101001")
    assert len(rep.period) == 11
    assert rep.period.count("1") == 5
    assert all(rep.checks.values())


def test_detect_period_rejects_bad_seeds():
    with pytest.raises(ValueError):
        detect_period("10")
    with pytest.raises(ValueError):
        detect_period("1011")


def test_detect_period_cap():
    with pytest.raises(ScanCapExceeded) as exc:
        detect_period("101", scan_cap=4)
    assert exc.value.scanned_prefix == "1010"
    assert exc.value.scan_cap == 4
    assert exc.value.seed == "101"
    # the window repeats at the fifth symbol, so a cap of 5 is enough
    assert detect_period("101", scan_cap=5).scanned_length == 5
    # A cap of 2.5 used to be compared with each length read and never met,
    # and "5" raised TypeError.
    for cap in (0, -5, 2.5, 5.0, "5", [5]):
        with pytest.raises(ValueError, match="scan_cap must be an integer >= 1"):
            detect_period("101", scan_cap=cap)


def test_detect_period_checks_the_seed_once(monkeypatch):
    # The seed's membership check runs once; the only other call is the
    # aligned_pn_ok check of a period block that starts on the grid.
    import prefixnormal.infinite as infinite

    calls = []
    check = infinite._pn_ones

    def counted(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(infinite, "_pn_ones", counted)
    for seed in ("1", "101", "1101001", "110100101001", "1010010001"):
        calls.clear()
        rep = detect_period(seed)
        assert len(calls) == 1 + (len(rep.preperiod) % rep.block_len == 0), seed


def test_each_entry_point_finds_the_seed_ones_once(monkeypatch):
    # The checked seed's 1 positions are built once and handed to the
    # extension; detect_period builds a period block's only for the
    # aligned_pn_ok check.
    import prefixnormal.infinite as infinite
    import prefixnormal.ops as ops
    import prefixnormal.words as words_module

    calls = []
    ones = words_module._ones

    def counted(w):
        calls.append(w)
        return ones(w)

    for module in (words_module, infinite, ops):
        monkeypatch.setattr(module, "_ones", counted, raising=False)
    for seed in ("1", "101", "1101001", "110100101001", "1010010001"):
        entry_points = {
            "extend_stream": lambda: list(islice(extend_stream(seed), 50)),
            "stream_prefix": lambda: stream_prefix(seed, 50),
            "extend": lambda: run_in_process("extend", seed, "--steps", 5),
            "min_flip": lambda: ops.min_flip(seed + "000"),
        }
        for name, call in entry_points.items():
            calls.clear()
            call()
            assert len(calls) == 1, (name, seed, calls)
        calls.clear()
        rep = detect_period(seed)
        assert len(calls) == 1 + (len(rep.preperiod) % rep.block_len == 0), seed


def _same_report_but_scan(seed):
    got = detect_period(seed)
    want = reference_detect_period(seed)
    assert got._replace(scanned_length=0) == want._replace(scanned_length=0), seed


def test_detect_period_equals_block_run_certificate():
    for seed in seeds_ending_in_one(12):
        _same_report_but_scan(seed)


@settings(max_examples=200)
@given(pn_seeds(13, 48))
def test_detect_period_equals_block_run_certificate_on_random_seeds(seed):
    _same_report_but_scan(seed)


def _equals_symbol_scan(seed, caps):
    """detect_period(seed) against the symbol scan, which stops at the first
    window that repeats at any distance.  Every field but `scanned_length`
    is equal; waiting for the repeat at distance iota reads fewer than iota
    more symbols, and iota minus that number divides iota.  Then, for each
    cap in caps(scanned_length): the full report when the cap reaches the
    scanned length, else ScanCapExceeded carrying the first cap symbols."""
    got = detect_period(seed)
    want = reference_detect_period_by_symbol(seed)
    assert got._replace(scanned_length=0) == want._replace(scanned_length=0), seed
    iota, extra = got.block_len, got.scanned_length - want.scanned_length
    assert 0 <= extra < iota and iota % (iota - extra) == 0, seed
    for cap in caps(got.scanned_length):
        if cap >= got.scanned_length:
            assert detect_period(seed, scan_cap=cap) == got, (seed, cap)
            continue
        with pytest.raises(ScanCapExceeded) as exc:
            detect_period(seed, scan_cap=cap)
        assert ((exc.value.seed, exc.value.scan_cap, exc.value.scanned_prefix)
                == (seed, cap, stream_prefix(seed, cap))), (seed, cap)


def test_detect_period_equals_symbol_scan_at_every_cap():
    for seed in seeds_ending_in_one(14):
        _equals_symbol_scan(seed, lambda end: range(1, end + 2))


@settings(max_examples=100)
@given(pn_seeds(13, 128), st.data())
def test_detect_period_equals_symbol_scan_on_random_seeds(seed, data):
    # Caps inside the seed, at its end, at the end of the scan and anywhere
    # in between, mostly inside a 0-run.
    def caps(end):
        drawn = data.draw(st.lists(st.integers(1, end + 1), max_size=4))
        return {1, len(seed) - 1, len(seed), len(seed) + 1, end - 1, end, end + 1, *drawn}

    _equals_symbol_scan(seed, caps)


def test_detect_period_memory_stays_near_the_scanned_length():
    # The worst-preperiod family at |w| = 200 scans 19,506 symbols.  A dict
    # of every window that ends a 1 traces 2.93 MB on this seed; the string
    # read so far and two windows at a time trace about 0.04 MB.
    import tracemalloc

    n = 200
    w = "111" + "01" * ((n - 8) // 2) + "00101"
    want = reference_detect_period_by_symbol(w)
    tracemalloc.start()
    try:
        got = detect_period(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert got._replace(scanned_length=0) == want._replace(scanned_length=0)


def test_detect_period_certifies_long_seeds():
    # Most of these have a paper bound beyond 2**63, where the block-run
    # certificate refused to scan.
    rng = random.Random(64128)
    for _ in range(30):
        density = rng.uniform(0.2, 0.6)
        mid = rng.choices("01", weights=(1 - density, density), k=rng.randint(62, 126))
        seed = prefix_normal_form("1" + "".join(mid) + "1")
        rep = detect_period(seed)
        assert all(rep.checks.values()), seed
        probe = len(rep.preperiod) + 3 * len(rep.period) + len(seed)
        rebuilt = rep.preperiod + rep.period * (probe // len(rep.period) + 1)
        assert rebuilt[:probe] == stream_prefix(seed, probe), seed


# The longest canonical preperiod over all prefix normal seeds of length n
# ending in 1, for n = 8 .. 16, from an exhaustive sweep.
WORST_PREPERIOD = [8, 15, 19, 27, 34, 43, 53, 63, 76]


def test_worst_preperiod_up_to_16():
    worst = [max(len(detect_period(w).preperiod) for w in iter_all(n) if w.endswith("1"))
             for n in range(8, 17)]
    assert worst == WORST_PREPERIOD


@pytest.mark.parametrize("n", [8, 10, 16, 20, 50, 100, 200])
def test_worst_preperiod_family_even(n):
    # The maximum for every even n of the sweep, (n^2 - 7n + 8)/2: far
    # below the paper's bound, which grows like C(iota, kappa).
    w = "111" + "01" * ((n - 8) // 2) + "00101"
    assert len(detect_period(w).preperiod) == (n * n - 7 * n + 8) // 2


@pytest.mark.parametrize("n", [9, 11, 17, 21, 51, 101, 199])
def test_worst_preperiod_family_odd(n):
    # The maximum for every odd n >= 9 of the sweep, (n^2 - 8n + 21)/2.
    w = "11" + "01" * ((n - 7) // 2) + "00101"
    assert len(detect_period(w).preperiod) == (n * n - 8 * n + 21) // 2


def test_detect_period_decomposition_reconstructs_stream():
    for seed in ("101", "1101", "11010011", "110100101001"):
        rep = detect_period(seed)
        probe = len(rep.preperiod) + 6 * len(rep.period) + len(seed)
        rebuilt = rep.preperiod + rep.period * (
            (probe - len(rep.preperiod)) // len(rep.period) + 1
        )
        assert rebuilt[:probe] == stream_prefix(seed, probe)
        # canonical form: the period never trails the preperiod
        assert not rep.preperiod.endswith(rep.period)


def test_extension_report_json_fields():
    payload = json.loads(detect_period("101").to_json())
    assert payload == {
        "seed": "101",
        "delta": "1/2",
        "iota": 2,
        "kappa": 1,
        "preperiod": "1",
        "period": "01",
        "preperiod_bound": 4,
        "scanned_length": 5,
        "checks": {
            "length_ok": True,
            "weight_ok": True,
            "bound_ok": True,
            "aligned_pn_ok": True,
        },
    }


def test_verify_densest_fixtures():
    assert verify_densest("11", 6)
    assert verify_densest("101", 7)
    assert verify_densest("1", 4)


def test_verify_densest_preconditions():
    with pytest.raises(ValueError):
        verify_densest("10", 6)
    with pytest.raises(ValueError):
        verify_densest("101", 2)
    with pytest.raises(ValueError):
        verify_densest("101", 25)
