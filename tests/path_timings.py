"""Interleaved timings of the paths the benchmark does not run, on two
source trees:

    python tests/path_timings.py OLD/src NEW/src [--runs 9]

Each run starts one process per tree, the two in alternating order, that
imports prefixnormal from that tree, warms the path up at a small size
(imports, kernel load), then calls it for 0.3 s or once, whichever is
longer, and reports the median call.  The script prints, for each path,
the median and quartiles of each tree's runs and the ratio of the medians
(NEW / OLD).  The paths:

- gen-18-no-kernel: `gen -n 18` through `cli.main`, with `_kernel.load`
  patched to return None, so the Python walk lists every word;
- count-22-no-kernel: `count_pn(22)`, with `_kernel.load` patched as in
  gen-18-no-kernel, so the count runs in Python;
- extend-steps: `extend 1101001 --steps 2000000` through `cli.main`;
- counter-16: `generate_all(16, ..., counter=OpCounter())`, the charged
  Python walk;
- generate-pn-20: `generate_pn` on 110^18, the kernel's listing of one
  subtree;
- critset-20-json: `critset -n 20 -s 2 -t 1 --format json` through
  `cli.main`, the JSON writer and a class listing with its seed;
- gen-22-json: `gen -n 22 --format json` through `cli.main`, the JSON
  writer on the kernel's whole listing, one write per native call.

stdout goes to /dev/null in every path, and each visitor appends to a
list.  pytest does not collect this file.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

PATHS = ("gen-18-no-kernel", "count-22-no-kernel", "extend-steps", "counter-16", "generate-pn-20",
         "critset-20-json", "gen-22-json")


def _calls(path):
    """The path's call at a small size (the warm-up) and at its full size."""
    from prefixnormal import OpCounter, _kernel, cli, count_pn, generate_all, generate_pn

    if path == "gen-18-no-kernel":
        _kernel.load = lambda: None
        return [lambda n=n: cli.main(["gen", "-n", str(n)]) for n in (8, 18)]
    if path == "count-22-no-kernel":
        _kernel.load = lambda: None
        return [lambda n=n: count_pn(n) for n in (8, 22)]
    if path == "extend-steps":
        return [lambda k=k: cli.main(["extend", "1101001", "--steps", str(k)])
                for k in (1000, 2000000)]
    if path == "counter-16":
        return [lambda n=n: generate_all(n, [].append, counter=OpCounter()) for n in (8, 16)]
    if path == "critset-20-json":
        return [lambda n=n: cli.main(["critset", "-n", str(n), "-s", "2", "-t", "1",
                                      "--format", "json"]) for n in (8, 20)]
    if path == "gen-22-json":
        return [lambda n=n: cli.main(["gen", "-n", str(n), "--format", "json"]) for n in (8, 22)]
    return [lambda n=n: generate_pn("11" + "0" * (n - 2), [].append) for n in (8, 20)]


def quartiles(values):
    """The inclusive (q1, median, q3) of `values`; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def child(path):
    warm, full = _calls(path)
    with open(os.devnull, "w") as null:
        sys.stdout = null
        try:
            warm()
            times = []
            while sum(times) < 0.3:
                t0 = time.perf_counter()
                full()
                times.append(time.perf_counter() - t0)
        finally:
            sys.stdout = sys.__stdout__
    print(statistics.median(times))


def timed(src, path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, __file__, "--child", path], env=env,
                         capture_output=True, text=True, check=True, timeout=600)
    return float(out.stdout)


def main(argv):
    if argv[:1] == ["--child"]:
        return child(argv[1])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--runs", type=int, default=9)
    args = parser.parse_args(argv)
    if args.runs < 9:
        parser.error("--runs must be at least 9")
    print("path\told median s [q1, q3]\tnew median s [q1, q3]\tnew/old")
    for path in PATHS:
        runs = {args.old: [], args.new: []}
        for i in range(args.runs):
            for src in (args.old, args.new)[:: 1 if i % 2 == 0 else -1]:
                runs[src].append(timed(src, path))
        cells = []
        for src in (args.old, args.new):
            q1, median, q3 = quartiles(runs[src])
            cells.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}]")
        ratio = statistics.median(runs[args.new]) / statistics.median(runs[args.old])
        print(f"{path}\t{cells[0]}\t{cells[1]}\t{ratio:.3f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
