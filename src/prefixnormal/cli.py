"""Command-line surface: generation, class counts, histograms, word checks,
extensions, and a self-check against the brute-force enumeration.

Words stream to stdout, one per line; diagnostics go to stderr.  Exit codes:
0 success (or a true answer), 1 a false answer from `check`/`oracle` or
stdout closed by its reader before the output ended (as in `gen ... | head`;
no traceback is printed), 2 usage or input error, or an input too large for
the memory the process may use (one `error: out of memory` line), 3 the
scan cap of `extend --detect` was hit before a period was certified, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain, islice

from .critstats import critical_prefix_histogram, critset, critset_count, critset_table
from .generate import Order, count_pn, generate_all, iter_all
from .infinite import ScanCapExceeded, _blocks, _check_seed, density_profile, detect_period
from .ops import _min_flip
from .words import (
    DEFAULT_GEN_CAP,
    DEFAULT_ORACLE_CAP,
    _checked_length,
    _ones,
    _pn_ones,
    check_word,
    critical_prefix,
    hamming,
    oracle_enumerate,
)

# Extension blocks per write of `extend --steps`: one write per block cost
# more than the step.
_BATCH = 256

# Commands that refuse n above a cap: the cap's name, the environment
# variable that sets it, and its default.
_CAPS = {
    "generation": ("PREFIXNORMAL_GEN_CAP", DEFAULT_GEN_CAP),
    "oracle": ("PREFIXNORMAL_ORACLE_CAP", DEFAULT_ORACLE_CAP),
}


def _checked_cap(args) -> int:
    """The cap on n from --cap, else the environment, else the default.

    Raises ValueError when the environment value is not an integer, n
    exceeds the cap or n is negative.
    """
    env, default = _CAPS[args.cap_kind]
    cap = args.cap
    if cap is None:
        raw = os.environ.get(env)
        try:
            cap = default if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"{env} must be an integer, got {raw!r}") from None
    _checked_length(args.n, cap, args.cap_kind)
    return cap


def _emit_words(args, walk, count) -> None:
    """Print `count()`, or write the text chunks of lines "word\\n" that
    `walk(visit)` visits in `args.format`, one write per chunk, JSON's
    "count" from `count()` first.  Both callables reject bad arguments
    before their first chunk, and the header goes out with the first chunk
    or after an empty walk, so a rejected query writes nothing.
    """
    if args.count_only:
        print(count())
        return
    if args.format == "json":
        # The layout of json.dumps({"count": ..., "words": [...]}).
        head, sep, end = f'{{"count": {count()}, "words": [', ", ", "]}\n"

        def form(chunk):
            return '"' + chunk[:-1].replace("\n", '", "') + '"'
    else:
        head, sep, end, form = "word\n" if args.format == "csv" else "", "", "", str
    write = sys.stdout.write
    lead = head

    def visit(chunk):
        nonlocal lead
        write(lead + form(chunk))
        lead = sep

    if not walk(visit):
        write(head)
    write(end)


def _emit_report(report, fmt: str) -> None:
    sys.stdout.write(report.to_csv() if fmt == "csv" else report.to_json() + "\n")


def cmd_gen(args) -> int:
    _emit_words(args, lambda visit: generate_all(args.n, visit, Order(args.order), lines=True),
                lambda: count_pn(args.n, cap=args.cap))
    return 0


def cmd_critset(args) -> int:
    _emit_words(args, lambda visit: critset(args.n, args.s, args.t, visit, Order(args.order),
                                            lines=True),
                lambda: critset_count(args.n, args.s, args.t))
    return 0


def cmd_table(args) -> int:
    t_max = args.t_max if args.t_max is not None else args.n
    _emit_report(critset_table(args.n, args.s_max, t_max, cap=args.cap), args.format)
    return 0


def cmd_hist(args) -> int:
    _emit_report(critical_prefix_histogram(args.n, cap=args.cap), args.format)
    return 0


def cmd_check(args) -> int:
    w = check_word(args.word)
    if not w:
        raise ValueError("cannot check the empty word")
    ones = _ones(w)
    pn = _pn_ones(ones)
    prof = density_profile(w)
    cp = critical_prefix(w)
    report: dict = {"is_prefix_normal": pn, "r": ones[-1] if ones else None}
    if pn and ones:
        report["phi"] = _min_flip(ones, len(w))
    report.update(critical_prefix={"s": cp.s, "t": cp.t},
                  delta=f"{prof.density.numerator}/{prof.density.denominator}",
                  iota=prof.length, kappa=prof.ones)
    import json

    print(json.dumps(report))
    return 0 if pn else 1


def cmd_extend(args) -> int:
    steps = 1 if args.steps is None else args.steps
    if not 0 <= steps <= sys.maxsize:
        raise ValueError(f"--steps must be between 0 and {sys.maxsize}")
    if args.detect and args.steps is not None:
        raise ValueError("--steps applies only without --detect")
    if args.scan_cap is not None and not args.detect:
        raise ValueError("--scan-cap applies only with --detect")
    w = args.word
    if args.detect:
        report = detect_period(w, scan_cap=args.scan_cap)
        print(report.to_json())
        return 0
    # The checked seed, which ends with a 1, then one block 0^k 1 per step,
    # _BATCH of them per write; a partial batch goes out only at the end.
    items = chain((w,), islice(_blocks(_check_seed(w)), steps))
    for text in iter(lambda: "".join(islice(items, _BATCH)), ""):
        sys.stdout.write(text)
    sys.stdout.write("\n")
    return 0


def cmd_oracle(args) -> int:
    n = args.n
    expected = list(oracle_enumerate(n, args.cap))
    lex = list(iter_all(n))
    gray = list(iter_all(n, Order.GRAY))

    results = [
        ("lex listing equals brute force, in order", lex == expected),
        ("gray listing has no duplicates", len(set(gray)) == len(gray)),
        ("gray listing is a permutation of brute force", sorted(gray) == expected),
    ]
    if n >= 1:
        dist_ok = all(hamming(a, b) <= 3 for a, b in zip(gray, gray[1:]))
        results.append(("gray consecutive Hamming distances <= 3", dist_ok))
    if n >= 2:
        results.append(("gray cyclic closure distance == 2", hamming(gray[-1], gray[0]) == 2))
    ok = True
    for label, passed in results:
        print(f"{'PASS' if passed else 'FAIL'} {label} (n={n}, {len(expected)} words)")
        ok = ok and passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# Built once per process: building it costs 25 parses, and a parse changes nothing in it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixnormal",
        description="Generate and analyze prefix normal binary words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def sized(name: str, summary: str, func, cap_kind: str = "generation"):
        # A command over all words of length n, refused above a cap.
        p = sub.add_parser(name, help=summary)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--cap", type=int, default=None)
        p.set_defaults(func=func, cap_kind=cap_kind)
        return p

    def listing(p):
        # The options of a command whose output goes through _emit_words.
        p.add_argument("--order", choices=["lex", "gray"], default="lex")
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--format", choices=["plain", "csv", "json"], default="plain")

    listing(sized("gen", "list all prefix normal words of a given length", cmd_gen))

    p = sized("critset", "list the words with critical prefix 1^s 0^t", cmd_critset)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    listing(p)

    p = sized("table", "matrix of critical-prefix class sizes", cmd_table)
    p.add_argument("--s-max", type=int, default=7)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sized("hist", "histogram of critical prefix lengths", cmd_hist)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("check", help="analyze a single word")
    p.add_argument("word")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extend", help="extend a word or detect its ultimate period")
    p.add_argument("word")
    p.add_argument("--steps", type=int, default=None)  # None: 1
    p.add_argument("--detect", action="store_true")
    p.add_argument("--scan-cap", type=int, default=None)
    p.set_defaults(func=cmd_extend)

    sized("oracle", "compare the generator against brute force", cmd_oracle, "oracle")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "cap_kind"):
            args.cap = _checked_cap(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`gen ... | head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ScanCapExceeded as exc:
        import json

        partial = {
            "seed": exc.seed,
            "error": "scan cap exceeded before a period was certified",
            "scan_cap": exc.scan_cap,
            "scanned_length": len(exc.scanned_prefix),
            "scanned_prefix": exc.scanned_prefix,
        }
        print(json.dumps(partial))
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # An n that passes the length check can still need more memory than
        # the process may take: the compiled count holds 24 bytes per symbol.
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a process that Ctrl-C ended.
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
