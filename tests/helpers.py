"""Shared reference implementations for the test suite.

Everything here is independent of the package's optimized code paths; the
tests use these as cross-checks.  `run_in_process` is the one harness: it
calls the CLI in this process and captures what it writes.
"""

import contextlib
import functools
import io
import json
from collections import deque
from math import comb
from operator import add

from prefixnormal import (
    ExtensionReport,
    ScanCapExceeded,
    bubble,
    cli,
    density_profile,
    extend_stream,
    flip,
    is_prefix_normal,
    min_flip,
    oracle_enumerate,
    prefix_counts,
    stream_prefix,
)
from prefixnormal.generate import Order, _walk
from prefixnormal.infinite import _check_seed

_INT64_MAX = 2**63 - 1


def pn_def_set(w: str) -> set[str]:
    """The defining set for a seed: prefix normal words of the same length that
    copy w before its rightmost 1 and still have a 1 from there on.  Computed
    by filtering the brute-force enumeration."""
    n = len(w)
    r = w.rfind("1") + 1
    return {
        v
        for v in pn_words(n)
        if v[: r - 1] == w[: r - 1] and "1" in v[r - 1 :]
    }


def walk_count(a: list[int], n: int) -> int:
    """Words in the subtree of the node of length n whose 1s sit at the
    positions `a`: the lines the Python walk lists, whose words the tests
    check against the brute-force oracle, with no counting shortcut."""
    return sum(1 for _ in _walk(a, n, Order.LEX))


def reference_inorder(w: str) -> list[str]:
    """Recursive in-order listing of the bubble/flip tree rooted at w."""
    out: list[str] = []
    n = len(w)

    def rec(v: str) -> None:
        if v[-1] == "0":
            rec(bubble(v))
        out.append(v)
        phi = min_flip(v, validate=False)
        if phi <= n:
            rec(flip(v, phi))

    rec(w)
    return out


def reference_postorder(w: str) -> list[str]:
    """Recursive post-order listing of the bubble/flip tree rooted at w."""
    out: list[str] = []
    n = len(w)

    def rec(v: str) -> None:
        if v[-1] == "0":
            rec(bubble(v))
        phi = min_flip(v, validate=False)
        if phi <= n:
            rec(flip(v, phi))
        out.append(v)

    rec(w)
    return out


def window_formulation_is_pn(w: str) -> bool:
    """Alternative prefix-normality test: for every factor length k, the
    maximum sliding-window count of 1s must not exceed the k-prefix count."""
    n = len(w)
    bits = [c == "1" for c in w]
    prefix = [0]
    for b in bits:
        prefix.append(prefix[-1] + b)
    for k in range(1, n + 1):
        best = max(prefix[i + k] - prefix[i] for i in range(n - k + 1))
        if best > prefix[k]:
            return False
    return True


def dfs_listing(n: int) -> list[str]:
    """Every prefix normal word of length n in lexicographic order, built
    symbol by symbol with no bubble/flip tree and no quadratic test.

    Prefix normal words are closed under taking prefixes, so a depth-first
    search that tries 0 before 1 and keeps only prefix normal prefixes
    lists them in order.  Appending a 0 keeps a word prefix normal.  With
    the 1s at the 0-based positions d_0 < ... < d_{k-1}, a 1 appended at j
    keeps it prefix normal iff the positions stay superadditive
    (`words._pn_ones`): j = 0 when k = 0, else j >= d_p + d_{k-p} for every
    0 < p < k, an O(k) test.
    """
    out: list[str] = []
    word: list[str] = []
    d: list[int] = []

    def rec(j: int) -> None:
        if j == n:
            out.append("".join(word))
            return
        word.append("0")
        rec(j + 1)
        word.pop()
        inner = d[1:]
        if j >= max(map(add, inner, reversed(inner)), default=0) if d else j == 0:
            word.append("1")
            d.append(j)
            rec(j + 1)
            d.pop()
            word.pop()

    rec(0)
    return out


def oracle_min_flip(w: str) -> int:
    """Least position past the rightmost 1 whose flip stays prefix normal,
    found by flipping and running the quadratic test."""
    n = len(w)
    r = w.rfind("1") + 1
    for j in range(r + 1, n + 1):
        if is_prefix_normal(flip(w, j)):
            return j
    return n + 1


def reference_class_root(n: int, s: int, t: int) -> tuple[str | None, str | None]:
    """The class 1^s 0^t of length n (s >= 1, t >= 0) as (seed, root)
    words: the seed 1^s 0^t 1 0^(n-s-t-1), or 1^s 0^t when s + t == n, and
    its flip at min_flip.  seed is None for an empty class and root None
    when the seed has no flip child.  The reference for the closed-form
    roots of critstats._classes."""
    if s + t > n:
        return None, None
    if s + t == n:
        return "1" * s + "0" * t, None
    if t == 0:
        return None, None
    seed = "1" * s + "0" * t + "1" + "0" * (n - s - t - 1)
    phi = min_flip(seed, validate=False)
    return seed, flip(seed, phi) if phi <= n else None


@functools.cache
def pn_words(n: int, cap: int | None = None) -> tuple[str, ...]:
    """oracle_enumerate(n, cap), listed once per (n, cap) for the whole
    suite: the package's oracle keeps nothing between calls."""
    return oracle_enumerate(n, cap)


def seeds_ending_in_one(max_len: int) -> list[str]:
    return [
        w
        for n in range(1, max_len + 1)
        for w in pn_words(n)
        if w.endswith("1")
    ]


def reference_phi_scan(buf, r: int, n: int) -> tuple[int, int]:
    """The min_flip scan without its early exit: it always walks the whole
    prefix before r.  Returns (position, symbol reads)."""
    f = g = 0
    i = 1
    longest = 0
    reads = 0
    while i < r:
        f += buf[i - 1] & 1
        g += buf[r - i] & 1
        reads += 2
        if f == g:
            run = 0
            i += 1
            while i < r:
                reads += 1
                if buf[i - 1] & 1:
                    break
                run += 1
                i += 1
            if run > longest:
                longest = run
        else:
            i += 1
    return min(r + longest + 1, n + 1), reads


def lines_of_width(chunk: str, n: int) -> bool:
    """Whether `chunk` is nonempty text of whole lines "word\\n" of n + 1
    characters each, the only text generate._visit_each counts right."""
    lines = chunk.splitlines(keepends=True)
    return bool(lines) and all(len(line) == n + 1 and line[-1] == "\n" for line in lines)


def reference_emit_words(words: list[str], fmt: str) -> str:
    """The CLI's word output in `fmt`, built from the complete list of words."""
    if fmt == "plain":
        return "".join(w + "\n" for w in words)
    if fmt == "csv":
        return "word\n" + "".join(w + "\n" for w in words)
    return json.dumps({"count": len(words), "words": words}) + "\n"


def reference_extend_stream(w: str):
    """The extension stream that retries k = 0, 1, 2, ... zeros before each 1,
    testing every suffix of the last len(w) symbols (rebuilt for each 1)
    against the seed's prefix counts."""
    _check_seed(w)
    size = len(w)
    p = prefix_counts(w)
    yield from w
    tail = deque(w, maxlen=size)
    while True:
        last = list(tail)
        so = [0] * size  # so[j]: 1s among the last j symbols of the current word
        for j in range(1, size):
            so[j] = so[j - 1] + (last[size - j] == "1")
        k = 0
        while True:
            ok = True
            for t in range(k + 2, size + 1):
                if 1 + so[t - 1 - k] > p[t]:
                    ok = False
                    break
            if ok:
                break
            k += 1
        for _ in range(k):
            tail.append("0")
            yield "0"
        tail.append("1")
        yield "1"


def prefix_normal_form(w: str) -> str:
    """The prefix normal word whose i-length prefix holds as many 1s as the
    densest factor of w of length i.  It has w's length, and it ends in 1
    exactly when w starts and ends in 1."""
    p = prefix_counts(w)
    n = len(w)
    best = [0] + [max(p[i + k] - p[i] for i in range(n - k + 1)) for k in range(1, n + 1)]
    return "".join("1" if best[k] > best[k - 1] else "0" for k in range(1, n + 1))


def verify_densest(w: str, n: int, cap: int | None = None) -> bool:
    """Whether the minimal extension of w dominates, prefix count by prefix
    count, every prefix normal length-n word starting with w.

    Exhaustive over the brute-force enumeration; a False return means a
    counterexample exists (and would be a bug in the extension engine).
    """
    _check_seed(w)
    if n < len(w):
        raise ValueError("n must be at least the seed length")
    ext = stream_prefix(w, n)
    pv = prefix_counts(ext)
    for z in pn_words(n, cap):
        if z.startswith(w):
            pz = prefix_counts(z)
            if any(pv[i] < pz[i] for i in range(1, n + 1)):
                return False
    return True


def reference_detect_period(w: str, scan_cap: int | None = None) -> ExtensionReport:
    """The block-run certificate of the ultimate period, sized by the paper's
    preperiod bound.

    The stream is cut into blocks whose length is the seed's minimum-density
    prefix length.  Once the same block value repeats m+1 times in a row
    (m = ceil(len(w) / block length)) starting past the seed, the generation
    window has wrapped and the stream is provably periodic from there on.
    The decomposition is then canonicalized: the period is read off the block
    grid anchored at the end of the seed, and whole blocks are peeled
    backwards as long as they match, so the period is never a suffix of the
    preperiod.

    Raises ScanCapExceeded if the cap is reached first; the default cap is
    large enough that this cannot happen.
    """
    _check_seed(w)
    prof = density_profile(w)
    iota, kappa = prof.length, prof.ones
    seed_len = len(w)
    m = -(-seed_len // iota)
    binomial = comb(iota, kappa)
    bound = (binomial - 1) * m * iota
    if bound > _INT64_MAX:
        raise ValueError(
            f"preperiod bound {binomial - 1}*{m}*{iota} exceeds 64-bit range; refusing to scan"
        )
    cap = scan_cap if scan_cap is not None else max(bound, seed_len) + (m + 2) * iota

    gen = extend_stream(w)
    v: list[str] = []
    prev_block = None
    run = 0
    nblocks = 0
    periodic_from = None
    while len(v) < cap:
        v.append(next(gen))
        if len(v) % iota == 0:
            block = "".join(v[len(v) - iota :])
            run = run + 1 if block == prev_block else 1
            prev_block = block
            nblocks += 1
            if run >= m + 1 and (nblocks - m - 1) * iota + 1 > seed_len:
                periodic_from = (nblocks - m - 1) * iota + 1
                break
    if periodic_from is None:
        raise ScanCapExceeded(w, cap, "".join(v))

    # Anchor the period grid at the end of the seed and peel whole blocks
    # backwards to the shortest preperiod consistent with that grid.
    a = periodic_from
    while (a - 1) % iota != seed_len % iota:
        a += 1
    x = "".join(v[a - 1 : a - 1 + iota])
    q = a
    while q - iota >= 1 and "".join(v[q - iota - 1 : q - 1]) == x:
        q -= iota
    u = "".join(v[: q - 1])

    checks = {
        "length_ok": len(x) == iota,
        "weight_ok": x.count("1") == kappa,
        "bound_ok": len(u) <= bound,
        "aligned_pn_ok": (len(u) % iota != 0) or is_prefix_normal(x),
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
        scanned_length=len(v),
        checks=checks,
    )


def reference_detect_period_by_symbol(w: str, scan_cap: int | None = None) -> ExtensionReport:
    """The window certificate read one symbol at a time: every symbol goes
    into a list, and the last len(w) - 1 of them are joined and looked up at
    every 1 in a dict of the windows seen so far, so the scan stops at the
    first repeat at any distance.  The reference for every field of
    `detect_period` but `scanned_length`: that scan waits for the repeat at
    distance iota, up to iota - 1 symbols later.  A ScanCapExceeded carries
    the first `scan_cap` symbols in both."""
    if scan_cap is not None and scan_cap < 1:
        raise ValueError("scan_cap must be >= 1")
    _check_seed(w)
    prof = density_profile(w)
    iota, kappa = prof.length, prof.ones
    seed_len = len(w)
    m = -(-seed_len // iota)
    bound = (comb(iota, kappa) - 1) * m * iota

    v: list[str] = []
    seen: dict[str, int] = {}
    for ch in extend_stream(w):
        v.append(ch)
        if ch == "1" and len(v) >= seed_len:
            first = seen.setdefault("".join(v[len(v) - seed_len + 1 :]), len(v))
            if first < len(v):
                break
        if len(v) == scan_cap:
            raise ScanCapExceeded(w, scan_cap, "".join(v))
    # v[i - 1] == v[i - 1 + period] for every i >= periodic_from.
    period = len(v) - first
    periodic_from = first - seed_len + 2

    # Anchor the period grid at the end of the seed and peel whole blocks
    # backwards to the shortest preperiod consistent with that grid.
    a = periodic_from
    while (a - 1) % iota != seed_len % iota:
        a += 1
    x = "".join(v[periodic_from - 1 + (i - periodic_from) % period]
                for i in range(a, a + iota))
    q = a
    while q - iota >= 1 and "".join(v[q - iota - 1 : q - 1]) == x:
        q -= iota
    u = "".join(v[: q - 1])

    checks = {
        "length_ok": iota % period == 0,
        "weight_ok": x.count("1") == kappa,
        "bound_ok": len(u) <= bound,
        "aligned_pn_ok": (len(u) % iota != 0) or is_prefix_normal(x),
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
        scanned_length=len(v),
        checks=checks,
    )


def run_in_process(*args):
    """(exit code, stdout) of the CLI called in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue()
