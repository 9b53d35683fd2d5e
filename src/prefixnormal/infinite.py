"""Minimum prefix density and infinite extensions of prefix normal words.

Repeatedly appending the shortest run of 0s followed by a 1 (the densest
extension that stays prefix normal) turns a finite word into an infinite one
that is ultimately periodic.  `extend_min` finds each 0-run by trying every
candidate with the quadratic test; it is the reference.  Each entry point
checks its seed once with `words._pn_ones` and keeps the positions of its
1s.  The fast path, `_blocks`, steps one block 0^k 1 at a time, with k in
closed form (`extend_stream`); `ops.min_flip` reads the first block, and
`detect_period` certifies the period on them.
"""

from __future__ import annotations

import sys
from collections import deque, namedtuple
from itertools import chain, islice
from math import comb, inf
from operator import add

from .words import _integer, _ones, _pn_ones, check_word, is_prefix_normal


class DensityProfile(namedtuple("DensityProfile", "density length ones")):
    """Minimum over all prefixes of (number of 1s) / (prefix length).

    `length` is the shortest prefix attaining the minimum and `ones` its
    count of 1s, so density == Fraction(ones, length) exactly.
    """

    __slots__ = ()


def density_profile(w: str) -> DensityProfile:
    """Exact minimum prefix density of w with its earliest witness prefix."""
    from fractions import Fraction

    check_word(w)
    if not w:
        raise ValueError("the empty word has no density")
    best_num, best_den = 1, 0  # +infinity until the first prefix is seen
    c = 0
    for i, ch in enumerate(w, 1):
        if ch == "1":
            c += 1
        # strict comparison keeps the earliest minimizing prefix
        if c * best_den < best_num * i:
            best_num, best_den = c, i
    return DensityProfile(Fraction(best_num, best_den), best_den, best_num)


def _check_seed(w: str) -> list[int]:
    """The positions of the 1s of the seed w, once w is checked."""
    check_word(w)
    if not w.endswith("1"):
        raise ValueError("the seed must end with 1 (trim trailing zeros first)")
    ones = _ones(w)
    if not _pn_ones(ones):
        raise ValueError("the seed is not prefix normal")
    return ones


def extend_min(w: str) -> str:
    """Append the shortest 0-run followed by a 1 that keeps w prefix normal.

    Each candidate is checked with the full quadratic test; the search always
    terminates because w 0^len(w) 1 is prefix normal.
    """
    _check_seed(w)
    for k in range(len(w) + 1):
        cand = w + "0" * k + "1"
        if is_prefix_normal(cand):
            return cand
    raise AssertionError("unreachable: appending len(w) zeros and a 1 always works")


def extend_stream(w: str):
    """Lazily yield the symbols of the infinite minimal extension of w.

    The prefix of any requested length matches the corresponding finite
    iterate of extend_min.  Each 0-run has a closed form.  Let d_1 < d_2 < ...
    be the distances from the end (the last symbol at distance 1) of the 1s
    among the last len(w) - 1 symbols, and P_c the position of the c-th 1 of
    w.  The next 1 comes after max(0, max_i P_{i+1} - d_i - 1) zeros: a
    suffix holding i of these 1s is shortest when it ends at the i-th, and
    appending a 1 there must not beat the prefix of the same length.  P_{i+1}
    always exists: the word stays prefix normal, so the window holds at most
    as many 1s as w's first len(w) - 1 symbols.  Only the positions of the 1s
    in the window are kept, so a step costs O(number of those 1s).  The
    seed is checked when this is called; the symbols are the seed's, then
    those of each block 0^k 1 in turn, with no Python frame per symbol.
    """
    return chain(w, chain.from_iterable(_blocks(_check_seed(w))))


def _blocks(ones: list[int]):
    """The blocks "0" * k + "1" that extend a checked seed, one per step
    (see `extend_stream`), from the positions of its 1s; the last is its
    length."""
    size = ones[-1]
    nxt = ones[1:]  # nxt[i] = P_{i+2}, paired with the (i+1)-th most recent 1
    end = size
    recent = deque(ones[1:])  # positions of the 1s in the window
    while True:
        # P_{i+1} - d_i - 1 with d_i = end - pos + 1
        k = max(0, max(map(add, nxt, reversed(recent)), default=0) - end - 2)
        yield "0" * k + "1"
        end += k + 1
        recent.append(end)
        while recent and recent[0] < end - size + 2:
            recent.popleft()


def stream_prefix(w: str, length: int) -> str:
    """The first `length` (0 to sys.maxsize) symbols of w's infinite minimal extension."""
    symbols = extend_stream(w)  # checks the seed first
    length = _integer(length, "length", 0)
    if length > sys.maxsize:
        raise ValueError(f"length must be between 0 and {sys.maxsize}")
    return "".join(islice(symbols, length))


class ScanCapExceeded(Exception):
    """Raised when period detection hits its scan cap before certifying.

    Carries the scanned prefix so the caller can report partial progress.
    """

    def __init__(self, seed: str, scan_cap: int, scanned_prefix: str):
        super().__init__(f"no period certified within {scan_cap} symbols for seed {seed}")
        self.seed = seed
        self.scan_cap = scan_cap
        self.scanned_prefix = scanned_prefix


class ExtensionReport(namedtuple("ExtensionReport", [
        "seed", "density", "block_len", "block_ones", "preperiod", "period", "m_blocks",
        "preperiod_bound", "scanned_length", "checks"])):
    """Certified decomposition preperiod + period^infinity of a seed's extension.

    `block_len` and `block_ones` are the period's length and weight, both
    predicted from the seed; `m_blocks` is ceil(len(seed) / block_len).
    """

    __slots__ = ()

    def to_json(self) -> str:
        import json

        return json.dumps({
            "seed": self.seed,
            "delta": f"{self.density.numerator}/{self.density.denominator}",
            "iota": self.block_len,
            "kappa": self.block_ones,
            "preperiod": self.preperiod,
            "period": self.period,
            "preperiod_bound": self.preperiod_bound,
            "scanned_length": self.scanned_length,
            "checks": dict(self.checks),
        })


def detect_period(w: str, scan_cap: int | None = None) -> ExtensionReport:
    """Certify the ultimate period of the infinite minimal extension of w.

    After the seed, the stream's next 0-run depends only on its last
    h = len(w) - 1 symbols, the window (see `extend_stream`).  The paper
    proves that the stream ultimately has period iota, the length of the
    seed's minimum-density prefix, and that theorem is what ends the scan:
    it appends one block 0^k 1 at a time and stops at the first block end
    L >= len(w) + iota whose window equals the one ending at L - iota, so
    the stream has period iota from L - iota - h + 1 on.  The decomposition
    is then canonicalized: the period is read off the block grid anchored
    at the end of the seed, and whole blocks are peeled backwards as long
    as they match, so the period is never a suffix of the preperiod.
    `length_ok` checks that the scanned tail has period iota from the grid
    block on.

    `preperiod_bound` is the paper's bound on the preperiod, (C(iota, kappa)
    - 1) * m * iota with m = ceil(len(w) / iota); it is checked, not used to
    size the scan.  Raises ScanCapExceeded, carrying exactly the first
    `scan_cap` symbols, if that many are read before the certificate.
    A cap that is not an integer >= 1 raises ValueError.
    """
    cap = inf if scan_cap is None else _integer(scan_cap, "scan_cap", 1)
    ones = _check_seed(w)
    prof = density_profile(w)
    iota, kappa = prof.length, prof.ones
    seed_len = len(w)
    m = -(-seed_len // iota)
    bound = (comb(iota, kappa) - 1) * m * iota

    # v is what has been read, the window its last h symbols.
    h = seed_len - 1
    v = w
    for block in _blocks(ones):
        v += block
        length = len(v)
        if (length >= seed_len + iota and length <= cap
                and v[length - h:] == v[length - iota - h : length - iota]):
            break
        if length >= cap:
            raise ScanCapExceeded(w, cap, v[:cap])

    # Anchor the period grid at the end of the seed and peel whole blocks
    # backwards to the shortest preperiod consistent with that grid.
    a = length - iota - h + 1
    a += (seed_len + 1 - a) % iota
    x = v[a - 1 : a - 1 + iota]
    q = a
    while q - iota >= 1 and v[q - iota - 1 : q - 1] == x:
        q -= iota
    u = v[: q - 1]

    checks = {
        "length_ok": v[a - 1 + iota:] == v[a - 1 : length - iota],
        "weight_ok": x.count("1") == kappa,
        "bound_ok": len(u) <= bound,
        "aligned_pn_ok": (len(u) % iota != 0) or _pn_ones(_ones(x)),
    }
    return ExtensionReport(
        seed=w,
        density=prof.density,
        block_len=iota,
        block_ones=kappa,
        preperiod=u,
        period=x,
        m_blocks=m,
        preperiod_bound=bound,
        scanned_length=length,
        checks=checks,
    )
