"""Byte-identity gate for the CLI: run a fixed set of 51,473 argv through
`cli.main` in this process and write one line per argv: the argv, the exit
code, the SHA-256 of stdout and stderr as a JSON string.

    PYTHONPATH=src python tests/cli_gate.py > with-kernel.txt
    PYTHONPATH=src python tests/cli_gate.py --no-kernel > python-walk.txt

Run it on two trees and diff the files: every argv whose output changed
shows up as a differing line.  `--no-kernel` patches `_kernel.load` to
return None, so every walk and count runs in Python.  The set leaves out
counts that never end without the kernel (gen -n 1000 --count-only), and
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys


class _Digest:
    # A stdout that keeps only the SHA-256 of what is written to it.
    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


def argvs():
    orders = ("lex", "gray")
    words = [("--format", fmt) for fmt in ("plain", "csv", "json")] + [("--count-only",)]
    for n in range(-1, 23):
        for order in orders:
            for fmt in words:
                yield ("gen", "-n", n, "--order", order, *fmt)
    for n in range(-1, 15):
        for s in range(-1, n + 2):
            for t in range(-1, n - s + 2):
                for order in orders:
                    for fmt in words:
                        yield ("critset", "-n", n, "-s", s, "-t", t, "--order", order, *fmt)
    for n in range(-1, 15):
        for fmt in ("csv", "json"):
            yield ("hist", "-n", n, "--format", fmt)
            for s_max in ((), ("--s-max", 1), ("--s-max", 3), ("--s-max", 15)):
                for t_max in ((), ("--t-max", 0)):
                    yield ("table", "-n", n, *s_max, *t_max, "--format", fmt)
    for n in range(-1, 11):
        yield ("oracle", "-n", n)
    for cmd in (("gen",), ("hist",), ("table",), ("oracle",), ("critset", "-s", 1, "-t", 1)):
        for n in (-1, 6):
            for cap in (-5, 0, 5, 6, 64):
                yield (*cmd, "-n", n, "--cap", cap)
    # Every binary word of length <= 8, prefix normal or not, ending in 0
    # or 1.  No seed of that length scans more than 18 symbols before its
    # period is certified, so caps 1..20 fall inside the seed, inside each
    # 0-run, and on each side of every certified length.
    for n in range(9):
        for i in range(2**n):
            w = format(i, f"0{n}b") if n else ""
            yield ("check", w)
            for steps in range(13):
                yield ("extend", w, "--steps", steps)
            yield ("extend", w, "--detect")
            if w.endswith("1"):
                for cap in range(1, 21):
                    yield ("extend", w, "--detect", "--scan-cap", cap)
    # `extend --steps` writes the seed and its blocks 256 per write
    # (cli._BATCH): 255 steps fill one write, 256 and 257 spill into a
    # second, 513 into a third.  Every prefix normal seed ending in 1 of
    # length <= 5.
    from prefixnormal import is_prefix_normal

    for n in range(1, 6):
        for i in range(2**n):
            w = format(i, f"0{n}b")
            if w.endswith("1") and is_prefix_normal(w):
                for steps in (255, 256, 257, 513):
                    yield ("extend", w, "--steps", steps)
    # Every prefix normal seed ending in 1 of length 9..12: 627 seeds.  In
    # 27 of them the minimal period is shorter than iota, so the window
    # repeats before the certificate at distance iota; for each of those,
    # an even cap from 8 to 48 falls between the two.  Every seed here
    # certifies within 10..48 symbols.
    for n in range(9, 13):
        for i in range(2 ** (n - 1)):
            w = format(2 * i + 1, f"0{n}b")
            if is_prefix_normal(w):
                yield ("extend", w, "--detect")
                for cap in range(8, 49, 2):
                    yield ("extend", w, "--detect", "--scan-cap", cap)
    # Every binary word of length 9..12, prefix normal or not: `check` and
    # `extend` test membership on each.  15,360 argv.
    for n in range(9, 13):
        for i in range(2**n):
            w = format(i, f"0{n}b")
            yield ("check", w)
            yield ("extend", w)


def main(argv):
    for env in ("PREFIXNORMAL_GEN_CAP", "PREFIXNORMAL_ORACLE_CAP"):
        os.environ.pop(env, None)
    from prefixnormal import _kernel, cli

    if "--no-kernel" in argv:
        _kernel.load = lambda: None
    out = sys.stdout
    for args in argvs():
        args = [str(a) for a in args]
        digest, err = _Digest(), io.StringIO()
        with contextlib.redirect_stdout(digest), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        out.write(f"{' '.join(args)}\t{code}\t{digest.sha.hexdigest()}\t"
                  f"{json.dumps(err.getvalue())}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
