"""Per-module probes of the traced run.

Each probe calls one prefixnormal module's public functions at the size of
the workload that exercises it (generate, ops and cli at the listing's n,
critstats at the census's n, words and infinite on the extension's seeds for
the run's seed) and returns its metrics plus named checks.  The per-module
metric names are listed in BENCHMARK.json under `per_layer`.
"""

from __future__ import annotations

import math
import random
import traceback
from contextlib import redirect_stdout
from itertools import islice
from statistics import median
from time import perf_counter, perf_counter_ns

from prefixnormal import cli
from prefixnormal.critstats import critical_prefix_histogram, critset_count, critset_table
from prefixnormal.generate import OpCounter, Order, generate_all, iter_all
from prefixnormal.infinite import density_profile, detect_period, extend_stream
from prefixnormal.ops import min_flip
from prefixnormal.words import is_prefix_normal

from workloads import (CENSUS_JOBS, CENSUS_S_MAX, PINNED, STREAM_SYMBOLS, PassResult,
                       digest_sink, draw_seed)

WORK_BOUND = 8                  # acceptance check c12: <= 8n symbol reads between visits
MIN_FLIP_SAMPLE = 2000
MIN_FLIP_REFERENCE_EVERY = 8    # brute-force reference on every 8th sampled word
SMALL_CELL = 100                # words; "small" census cells
STREAM_BUCKETS = (32, 64, 128)  # seed lengths for extend_stream cost per symbol
STREAM_BUCKET_SEEDS = 4
ROUNDS = 5                      # timings per order of the bare walk and of `gen`


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p90/p99/p99.9 with at least ten
    samples beyond it."""
    xs = sorted(values)
    best = (50.0, median(xs))
    for p in (90.0, 99.0, 99.9):
        k = math.ceil(p / 100 * len(xs)) - 1
        if len(xs) - 1 - k >= 10:
            best = (p, xs[k])
    return best


def _noop(view) -> None:
    pass


def generate_layer(span, n: int):
    """Exact symbol reads per word from OpCounter, and walk timings."""
    max_gap = 0
    for order in (Order.LEX, Order.GRAY):
        ctr = OpCounter()
        marks: list[int] = []
        with span("generate.generate_all"):
            words = generate_all(n, lambda view: marks.append(ctr.count), order, counter=ctr)
        gaps = [marks[0]] + [b - a for a, b in zip(marks, marks[1:])]
        max_gap = max(max_gap, *gaps)
        if order is Order.LEX:
            reads, lex_words = ctr.count, words
    rpw = reads / lex_words
    res = PassResult()
    counts = {res.call(f"{order.value}#{i}", span, "generate.generate_all", generate_all,
                       n, _noop, order) for order in Order for i in range(ROUNDS)}
    copies = res.call("iter_all", span, "generate.iter_all", lambda: list(iter_all(n)))
    walks = res.parts
    metrics = {
        "generate.words": lex_words,
        "generate.reads_per_word": rpw,
        "generate.reads_per_word_over_n": rpw / n,
        "generate.reads_per_word_over_log2n": rpw / math.log2(n) ** 2,
        "generate.max_gap_reads": max_gap,
        "generate.walk_lex_s": walks["lex"] / ROUNDS,
        "generate.walk_gray_s": walks["gray"] / ROUNDS,
        "generate.iter_s": walks["iter_all"],
    }
    checks = {
        "word counts equal count_pn": counts | {lex_words, len(copies)} == {PINNED[n].count},
        f"reads between visits <= {WORK_BOUND}n": max_gap <= WORK_BOUND * n,
    }
    return metrics, checks


def cli_layer(span, n: int, import_s: float):
    """`gen` through the CLI.  Its emit cost is its time minus the bare walk's,
    the median of ROUNDS differences per order: the two are timed alternately,
    so that a change of the machine's speed cancels out."""
    pin = PINNED[n]
    res = PassResult()
    emit = gen = 0.0
    ok = True
    for order, want in ((Order.LEX, pin.lex), (Order.GRAY, pin.gray)):
        diffs, gens = [], []
        for i in range(ROUNDS):
            res.call(f"walk_{order.value}#{i}", span, "generate.generate_all", generate_all,
                     n, _noop, order)
            sink, raw = digest_sink()
            with redirect_stdout(sink):
                code = res.call(f"gen_{order.value}#{i}", span, "cli.main", cli.main,
                                ["gen", "-n", str(n), "--order", order.value])
                sink.flush()
            ok &= code == 0 and raw.sha.hexdigest() == want
            gens.append(res.times[f"gen_{order.value}#{i}"])
            diffs.append(gens[-1] - res.times[f"walk_{order.value}#{i}"])
        emit += median(diffs)
        gen += median(gens)
    metrics = {
        "cli.import_s": import_s,
        "cli.emit_s": emit,
        "cli.emit_share": emit / gen,
        "cli.emit_samples": 2 * ROUNDS,
    }
    return metrics, {"gen output equals the pinned listing in both orders": ok}


def _min_flip_reference(w: str) -> int:
    n = len(w)
    for j in range(w.rfind("1") + 2, n + 1):
        if is_prefix_normal(w[: j - 1] + "1" + w[j:]):
            return j
    return n + 1


def ops_layer(span, n: int):
    """min_flip per call over a fixed sample of the listed words."""
    words = list(iter_all(n))[1:]  # every word but the all-zero one has a 1
    sample = words[:: max(1, len(words) // MIN_FLIP_SAMPLE)]
    times = []
    got = []
    with span("ops.min_flip"):
        for w in sample:
            t0 = perf_counter_ns()
            got.append(min_flip(w, validate=False))
            times.append(perf_counter_ns() - t0)
    wrong = sum(got[i] != _min_flip_reference(sample[i])
                for i in range(0, len(sample), MIN_FLIP_REFERENCE_EVERY))
    metrics = {"ops.min_flip_us": median(times) / 1000, "ops.calls": len(sample)}
    return metrics, {"min_flip equals the brute-force flip position": wrong == 0}


def words_layer(span, seeds: list[str]):
    """The quadratic reference test on the extension workload's seed words."""
    t0 = perf_counter()
    with span("words.is_prefix_normal"):
        verdicts = [is_prefix_normal(w) for w in seeds]
    per_call = (perf_counter() - t0) / len(seeds)
    return ({"words.is_prefix_normal_us": per_call * 1e6},
            {"every seed word is prefix normal": all(verdicts)})


def critstats_layer(span, n: int):
    """A serial pass over the census cells, the same table fanned out, and the
    histogram."""
    res = PassResult()
    cells = {(s, t): res.call(f"cell#{s},{t}", span, "critstats.critset_count",
                              critset_count, n, s, t)
             for s in range(1, CENSUS_S_MAX + 1) for t in range(n + 1)}
    times = {key: res.times[f"cell#{key[0]},{key[1]}"] for key in cells}
    busy = sum(times.values())
    table = res.call("table", span, "critstats.critset_table",
                     lambda: critset_table(n, CENSUS_S_MAX, n, jobs=CENSUS_JOBS))
    hist = res.call("hist", span, "critstats.critical_prefix_histogram",
                    critical_prefix_histogram, n)
    small = [times[k] for k, c in cells.items() if c < SMALL_CELL]
    metrics = {
        "critstats.cells": len(cells),
        "critstats.cell_p50_ms": median(times.values()) * 1e3,
        "critstats.cell_max_s": max(times.values()),
        "critstats.cell_max_share": max(times.values()) / busy,
        "critstats.small_cell_us": sum(small) / len(small) * 1e6,
        "critstats.fanout_efficiency": busy / (CENSUS_JOBS * res.times["table"]),
        "critstats.hist_s": res.times["hist"],
    }
    checks = {
        f"jobs={CENSUS_JOBS} table equals the serial cells": table.cells == cells,
        "histogram total equals count_pn": hist.total == PINNED[n].count,
    }
    return metrics, checks


def infinite_layer(span, seed: int, seeds: list[str]):
    """detect_period latency over the extension's detect seeds, and
    extend_stream cost per symbol by seed length."""
    res = PassResult()
    reports = [res.call(f"detect#{i}", span, "infinite.detect_period", detect_period, w)
               for i, w in enumerate(seeds)]
    times = list(res.times.values())
    t0 = perf_counter()
    with span("infinite.density_profile"):
        profiles = [density_profile(w) for w in seeds]
    density_us = (perf_counter() - t0) / len(seeds) * 1e6
    pct, tail_s = tail(times)
    metrics = {
        "infinite.detect_ms_p50": median(times) * 1e3,
        "infinite.detect_ms_tail": tail_s * 1e3,
        "infinite.detect_tail_pct": pct,
        "infinite.detect_samples": len(times),
        "infinite.scanned_symbols": sum(r.scanned_length for r in reports),
        "infinite.density_profile_us": density_us,
    }
    rng = random.Random(f"stream-buckets-{seed}")
    for size in STREAM_BUCKETS:
        for i in range(STREAM_BUCKET_SEEDS):
            w = draw_seed(rng, size)
            res.call(f"stream{size}#{i}", span, "infinite.extend_stream",
                     lambda: "".join(islice(extend_stream(w), STREAM_SYMBOLS)))
        metrics[f"infinite.stream_us_per_symbol.len{size}"] = (
            res.parts[f"stream{size}"] / (STREAM_BUCKET_SEEDS * STREAM_SYMBOLS) * 1e6)
    checks = {
        "detect_period reports pass their checks and match density_profile": all(
            all(r.checks.values()) and len(r.period) == p.length
            and r.period.count("1") == p.ones for r, p in zip(reports, profiles)),
    }
    return metrics, checks


def run_layers(span, seed: int, detect_seeds: list[str], listing_n: int, census_n: int,
               import_s: float):
    """All probes; returns (metrics, {module: {check: passed}}).

    A probe that raises fails its module's checks instead of ending the run.
    """
    metrics, checks = {}, {}
    probes = (
        ("generate", lambda: generate_layer(span, listing_n)),
        ("cli", lambda: cli_layer(span, listing_n, import_s)),
        ("ops", lambda: ops_layer(span, listing_n)),
        ("words", lambda: words_layer(span, detect_seeds)),
        ("critstats", lambda: critstats_layer(span, census_n)),
        ("infinite", lambda: infinite_layer(span, seed, detect_seeds)),
    )
    for module, probe in probes:
        try:
            found, checks[module] = probe()
        except Exception:  # a crash in the program under test is a failed check
            traceback.print_exc()
            found, checks[module] = {}, {"probe ran without raising": False}
        metrics.update(found)
        metrics[f"{module}.failed"] = sum(not ok for ok in checks[module].values())
    return metrics, checks
