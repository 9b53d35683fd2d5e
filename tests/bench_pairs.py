"""Alternating parent/change runs of one benchmark workload:

    python tests/bench_pairs.py PARENT_REV --workload W --pairs K [--seconds S]
                                [--out BENCH_N.json]

The parent side is `git archive PARENT_REV` of the whole tree; the change
side is a copy of the working tree's `src` and `perfbench`.  Both live in a
temporary directory, so nothing is written inside the repository.  Pair i
runs `perfbench/run.py --workload W --seed i --seconds S --trace 0` once on
each side, the parent first in odd pairs and the change first in even
ones, one run at a time, with every `__pycache__` in both trees deleted
before each run.  The values are the end-to-end metrics of each run's last
stdout line (the names and directions in BENCHMARK.json), and `passes` is
its number of timed passes.

With `--out`, the workload's entry is written into that file's
"workloads", in the schema of the BENCH_*.json files at the root of the
repository (the file is created if it is missing; its other keys are
kept).  The last line of stdout is one JSON object: the workload, whether
every run reported "correct": true, and the ratio of the medians (change
over parent) of each metric.  pytest does not collect this file.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from path_timings import quartiles

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def trees(rev: str, tmp: Path) -> dict:
    """The parent's whole tree at `rev` and the change's src and perfbench."""
    parent, change = tmp / "parent", tmp / "change"
    parent.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    return {"parent": parent, "change": change}


def run(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(last line, line before it) of one untraced benchmark run in `tree`."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True,
                         timeout=10 * seconds + 600).stdout.splitlines()
    return json.loads(out[-1]), json.loads(out[-2])


def summary(runs: dict, better: str) -> dict:
    """A metric's quartiles per side, the pairs the change won and the ratio
    of the medians (change over parent)."""
    entry = {}
    for side in SIDES:
        q1, median, q3 = quartiles(runs[side])
        entry[side] = {"median": median, "q1": q1, "q3": q3}
    wins = [c < p if better == "lower" else c > p for p, c in zip(runs["parent"], runs["change"])]
    entry["change_better_pairs"] = sum(wins)
    entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
    entry["parent_runs"], entry["change_runs"] = runs["parent"], runs["change"]
    return entry


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent_rev],
                                   capture_output=True, text=True, check=True).stdout.strip()
    lasts = {side: [] for side in SIDES}
    passes = {side: [] for side in SIDES}
    first_side = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = trees(parent_commit, Path(tmp))
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            first_side.append(order[0])
            for side in order:
                last, before = run(paths[side], args.workload, seed, args.seconds)
                lasts[side].append(last)
                passes[side].append(before["details"]["pass_s"]["measured"]["samples"])
                print(f"pair {seed} {side}: correct={last['correct']}", file=sys.stderr,
                      flush=True)
    entry = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "first_side": first_side,
        "attempted": {s: sum(r["attempted"] for r in lasts[s]) for s in SIDES},
        "failed": {s: sum(r["failed"] for r in lasts[s]) for s in SIDES},
        "correct": {s: all(r["correct"] is True for r in lasts[s]) for s in SIDES},
        "attempted_per_run": {s: [r["attempted"] for r in lasts[s]] for s in SIDES},
        "passes": passes,
        "metrics": {m["name"]: summary({s: [r["metrics"][m["name"]]["value"] for r in lasts[s]]
                                        for s in SIDES}, m["better"])
                    for m in metrics},
    }
    if args.out is not None:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        number = args.out.stem.rpartition("_")[2]
        if number.isdigit():
            bench.setdefault("bench", int(number))
        bench.update(parent_commit=parent_commit, python=platform.python_version(),
                     nproc=os.cpu_count())
        bench.setdefault("method", (
            f"tests/bench_pairs.py: perfbench/run.py --workload W --seed S --seconds"
            f" {args.seconds} --trace 0, the parent from a git archive copy and the change from a"
            " copy of the working tree's src and perfbench, PYTHONDONTWRITEBYTECODE="
            f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')}, every __pycache__ deleted in"
            " both trees before every run, one run at a time. Pair i uses seed i for both"
            " sides; the first side alternates, parent first in pair 1. Values are the"
            " metrics of the last stdout line; passes is the number of timed passes"
            " (details.pass_s.measured.samples); median and quartiles (inclusive) over"
            " pairs."))
        bench.setdefault("claim", None)
        bench.setdefault("workloads", {})[args.workload] = entry
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({
        "workload": args.workload,
        "correct": entry["correct"]["parent"] and entry["correct"]["change"],
        "ratio_of_medians": {name: m["ratio_of_medians"] for name, m in entry["metrics"].items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
