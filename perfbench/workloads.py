"""The three benchmark workloads: their inputs, one timed pass, and its checks.

A pass times only the calls into prefixnormal; its outputs are checked
afterwards, outside the timed region.  The first pass of a run is an untimed
warm-up that also runs the costly reference checks (Gray distances, iterated
extend_min, the classes the census table leaves out); the timed passes
compare their outputs with pinned values or with the warm-up's verified ones.
Every operation whose output fails a check counts as failed, once.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import NamedTuple

from prefixnormal import cli
from prefixnormal.critstats import critical_prefix_histogram, critset_count, critset_table
from prefixnormal.generate import count_pn, iter_all
from prefixnormal.infinite import density_profile, detect_period, extend_min, extend_stream
from prefixnormal.words import is_prefix_normal

import reference

LISTING_N = 21
CENSUS_N = 21
CENSUS_S_MAX = 7
CENSUS_JOBS = 2


class Pin(NamedTuple):
    """Outputs of the seed code at one word length, checked against OEIS A194850
    (count) and the brute-force oracle (lex listing, n <= 16)."""

    count: int
    lex: str    # sha256 of `prefixnormal gen -n N --order lex`
    gray: str   # sha256 of `prefixnormal gen -n N --order gray`
    table: str  # sha256 of critset_table(N, 7, N).to_csv()


PINNED = {
    8: Pin(count=70, lex="cba4fd59d0719264bf32a5a386467aefb872cc5ba3aa997a5c8c4d00a04f265d",
           gray="e4f071f5992e8035aa9dd86f66028b9af4107f22273f883515c830c4b04f351a",
           table="5352637914266de230f58f386ea8ea0b5cd8fc1eeaef0bcf1090e8d562276b3a"),
    21: Pin(count=162456, lex="e75fa344d11f3586f7570cd7e52dea3d2d1d054322746b43ce9c6d2b26af8e55",
            gray="0606d724b98bffd3063486b4de4bf339ec504251d4a82ffcc478ba9874ab5bd4",
            table="a2d4f547fed055548d590267311061640ac0730d76a9e1fc4c784597735ffe1e"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


CHUNK_S = 0.1  # seconds of operations between two runs of the reference loop


@dataclass
class PassResult:
    """One pass: timed seconds per operation, work done, and the failed operations.

    The reference loop runs before the first operation and after each chunk
    of about CHUNK_S seconds of operations, and each operation's time is
    also kept rescaled by the loops on either side of its chunk.
    `close_chunk` ends the last chunk.
    """

    items: int = 0
    attempted: int = 0
    times: dict = field(default_factory=dict)  # operation -> timed seconds
    failed_ops: set = field(default_factory=set)
    rescaled: dict = field(default_factory=dict)  # operation -> rescaled seconds
    _chunk: list = field(default_factory=list)  # operations since the loop last ran
    _chunk_s: float = 0.0
    _loop_s: float = field(default_factory=reference.loop_seconds)

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    @property
    def rescaled_seconds(self) -> float:
        return sum(self.rescaled.values())

    @property
    def parts(self) -> dict:
        """Timed seconds per part, the label of an operation before any '#'."""
        out: dict = {}
        for op, dt in self.times.items():
            part = op.partition("#")[0]
            out[part] = out.get(part, 0.0) + dt
        return out

    def call(self, op: str, span, name: str, fn, *args):
        """Time operation `op` (its part is the label before any '#') inside span
        `name`; an exception marks the operation failed instead of ending the run."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with span(name):
                out = fn(*args)
        except Exception:  # a crash in the program under test is a failed operation
            out = None
            self.fail(op, traceback.format_exc())
        self.times[op] = perf_counter() - t0
        self._chunk.append(op)
        self._chunk_s += self.times[op]
        if self._chunk_s >= CHUNK_S:
            self.close_chunk()
        return out

    def close_chunk(self) -> None:
        """Run the reference loop and rescale the operations timed since it last ran."""
        if not self._chunk:
            return
        loop_s = reference.loop_seconds()
        factor = reference.scale(self._loop_s, loop_s)
        for op in self._chunk:
            self.rescaled[op] = self.times[op] * factor
        self._chunk, self._chunk_s, self._loop_s = [], 0.0, loop_s

    def fail(self, op: str, why: str) -> None:
        if op not in self.failed_ops:
            print(f"check failed: {op}: {why}", file=sys.stderr)
        self.failed_ops.add(op)


class _DigestWriter(io.RawIOBase):
    """Raw byte sink that hashes and counts lines; stands in for /dev/null."""

    def __init__(self, on_chunk=None):
        super().__init__()
        self.sha = hashlib.sha256()
        self.lines = 0
        self.on_chunk = on_chunk

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        data = bytes(b)
        self.sha.update(data)
        self.lines += data.count(b"\n")
        if self.on_chunk:
            self.on_chunk(data)
        return len(data)


def digest_sink(on_chunk=None) -> tuple[io.TextIOWrapper, _DigestWriter]:
    raw = _DigestWriter(on_chunk)
    return io.TextIOWrapper(io.BufferedWriter(raw, 1 << 16), encoding="ascii", newline="\n"), raw


class GrayCheck:
    """Streaming check of a Gray listing: neighbours differ in <= 3 positions
    and the last word is at distance 2 from the first."""

    def __init__(self):
        self.carry = b""
        self.first = self.prev = None
        self.far_neighbours = 0

    def feed(self, chunk: bytes) -> None:
        lines = (self.carry + chunk).split(b"\n")
        self.carry = lines.pop()
        for line in lines:
            x = int(line, 2)
            if self.prev is None:
                self.first = x
            elif (x ^ self.prev).bit_count() > 3:
                self.far_neighbours += 1
            self.prev = x

    def ok(self) -> bool:
        return (not self.carry and self.first is not None and self.far_neighbours == 0
                and (self.first ^ self.prev).bit_count() == 2)


class Listing:
    """CLI `gen` in LEX and GRAY order into a digest sink, then iter_all with copies."""

    name = "listing"

    def __init__(self, n: int = LISTING_N):
        self.n = n

    def build(self, seed: int) -> None:
        """The listing is a fixed enumeration; the seed is not used."""

    def run_pass(self, span, deep: bool = False) -> PassResult:
        pin = PINNED[self.n]
        res = PassResult()
        for order, want in (("lex", pin.lex), ("gray", pin.gray)):
            gray = GrayCheck() if deep and order == "gray" else None
            sink, raw = digest_sink(gray.feed if gray else None)
            with redirect_stdout(sink):
                code = res.call(f"gen_{order}", span, "cli.main", cli.main,
                                ["gen", "-n", str(self.n), "--order", order])
                sink.flush()
            if code != 0 or raw.lines != pin.count or raw.sha.hexdigest() != want:
                res.fail(f"gen_{order}", f"exit {code}, {raw.lines} lines, digest "
                         f"{raw.sha.hexdigest()} (want {pin.count} lines, {want})")
            if gray and not gray.ok():
                res.fail("gen_gray", f"{gray.far_neighbours} neighbours at distance > 3 "
                         "or cyclic closure distance != 2")
        words = res.call("iter_all", span, "generate.iter_all",
                         lambda: list(iter_all(self.n)))
        if (words is None or len(words) != pin.count
                or sha256("\n".join(words) + "\n") != pin.lex):
            res.fail("iter_all", "iter_all copies differ from the pinned LEX listing")
        res.items = 3 * pin.count
        return res

    def rates(self, res: PassResult) -> dict:
        return {"words_per_s": res.items / res.seconds}


class Census:
    """count_pn, the (s, t) class table fanned out to worker processes, and the
    critical-prefix histogram: the walk with no per-word output."""

    name = "census"

    def __init__(self, n: int = CENSUS_N):
        self.n = n
        self.rest: dict | None = None

    def build(self, seed: int) -> None:
        """The census is a fixed enumeration; the seed is not used."""

    def _fold(self, cells: dict) -> dict:
        """Class counts folded by critical prefix length s + t (acceptance check c08)."""
        bins = {self.n: 1}  # the all-zero word
        for (s, t), count in cells.items():
            if count:
                bins[s + t] = bins.get(s + t, 0) + count
        return bins

    def run_pass(self, span, deep: bool = False) -> PassResult:
        n, pin = self.n, PINNED[self.n]
        res = PassResult()
        count = res.call("count_pn", span, "generate.count_pn", count_pn, n)
        table = res.call("critset_table", span, "critstats.critset_table",
                         lambda: critset_table(n, CENSUS_S_MAX, n, jobs=CENSUS_JOBS))
        hist = res.call("histogram", span, "critstats.critical_prefix_histogram",
                        critical_prefix_histogram, n)
        if deep or self.rest is None:
            # The classes with s > CENSUS_S_MAX, which the table leaves out.
            self.rest = {(s, t): critset_count(n, s, t)
                         for s in range(CENSUS_S_MAX + 1, n + 1) for t in range(n - s + 1)}
        if count != pin.count:
            res.fail("count_pn", f"count_pn({n}) = {count}, want {pin.count}")
        cells = None if table is None else {**table.cells, **self.rest}
        if (table is None or sha256(table.to_csv()) != pin.table
                or sum(cells.values()) + 1 != pin.count):
            res.fail("critset_table", "class table differs from the pinned one, or its "
                     "classes plus the all-zero word do not add up to count_pn")
        if hist is None or hist.total != pin.count or (cells and hist.bins != self._fold(cells)):
            res.fail("histogram", "histogram is not the class counts folded by s + t")
        res.items = sum(x for x in (count, table and table.total(), hist and hist.total) if x)
        return res

    def rates(self, res: PassResult) -> dict:
        return {"words_per_s": res.items / res.seconds}


DETECT_SEEDS = 1025           # 25 seeds at each length 8..48, so a p99 has ten beyond it
STREAM_SEEDS = 32             # lengths spread over 64..128
STREAM_SYMBOLS = 1500
EXTEND_MIN_CHECK = 32         # symbols past the seed checked against iterated extend_min


def draw_seed(rng: random.Random, n: int) -> str:
    """A random prefix normal word of length n >= 2 that ends with 1.

    Prefix normality is closed under taking prefixes and appending a 0, so
    the word grows one symbol at a time, taking a 1 with probability 1/2
    when the quadratic test allows it.
    """
    while True:
        w = "1"
        while len(w) < n - 1:
            w += "1" if rng.random() < 0.5 and is_prefix_normal(w + "1") else "0"
        if is_prefix_normal(w + "1"):
            return w + "1"


def draw_inputs(seed: int, detect: int = DETECT_SEEDS, stream: int = STREAM_SEEDS):
    """Seeds for detect_period (lengths 8..48) and extend_stream (lengths 64..128)."""
    rng = random.Random(seed)
    det = [draw_seed(rng, 8 + i % 41) for i in range(detect)]
    long = [draw_seed(rng, 64 + (64 * i) // max(1, stream - 1)) for i in range(stream)]
    return det, long


class Extension:
    """detect_period on a batch of random seeds and extend_stream on a few long
    ones; enters only `infinite` and `words`."""

    name = "extension"

    def __init__(self, detect: int = DETECT_SEEDS, stream: int = STREAM_SEEDS,
                 symbols: int = STREAM_SYMBOLS):
        self.sizes = (detect, stream)
        self.symbols = symbols
        self.detect_seeds: list[str] = []
        self.stream_seeds: list[str] = []
        self.reference = None

    def build(self, seed: int) -> None:
        self.detect_seeds, self.stream_seeds = draw_inputs(seed, *self.sizes)

    def _stream(self, w: str) -> str:
        return "".join(islice(extend_stream(w), self.symbols))

    def run_pass(self, span, deep: bool = False) -> PassResult:
        res = PassResult()
        reports = [res.call(f"detect_period#{i}", span, "infinite.detect_period",
                            detect_period, w) for i, w in enumerate(self.detect_seeds)]
        streams = [res.call(f"extend_stream#{i}", span, "infinite.extend_stream",
                            self._stream, w) for i, w in enumerate(self.stream_seeds)]
        if deep or self.reference is None:
            self.reference = self._verified(reports, streams, res)
        for op, got, want in zip(res.times, reports + streams, self.reference):
            if got != want:
                res.fail(op, "output differs from the verified warm-up output")
        res.items = (sum(r.scanned_length for r in reports if r)
                     + sum(len(s) for s in streams if s))
        return res

    def rates(self, res: PassResult) -> dict:
        parts = res.parts
        return {"symbols_per_s": len(self.stream_seeds) * self.symbols / parts["extend_stream"],
                "seeds_per_s": len(self.detect_seeds) / parts["detect_period"]}

    def _verified(self, reports, streams, res: PassResult) -> list:
        """Check outputs against the paper's predictions and the slow path."""
        for i, (w, rep) in enumerate(zip(self.detect_seeds, reports)):
            prof = density_profile(w)
            if rep is None or not all(rep.checks.values()) or len(rep.period) != prof.length \
                    or rep.period.count("1") != prof.ones:
                res.fail(f"detect_period#{i}", f"detect_period({w}) fails its checks "
                         "or disagrees with density_profile")
        for i, (w, out) in enumerate(zip(self.stream_seeds, streams)):
            ref = w
            while len(ref) < len(w) + EXTEND_MIN_CHECK:
                ref = extend_min(ref)
            size = min(len(ref), self.symbols)
            if out is None or len(out) != self.symbols or out[:size] != ref[:size]:
                res.fail(f"extend_stream#{i}",
                         f"extend_stream({w}) differs from iterated extend_min")
        return reports + streams


WORKLOADS = {cls.name: cls for cls in (Listing, Census, Extension)}
