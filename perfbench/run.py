#!/usr/bin/env python3
"""prefixnormal benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload listing --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports prefixnormal from that checkout's
src/ and refuses to run without it.  The untraced run (--trace 0) reports the
end-to-end metrics, with every time rescaled by the reference loop
(reference.py); the traced run (--trace 1) reports the per-module metrics.
The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata and details.  Both, and the traced run's spans, are also written
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import reference
from spans import MODULES, Tracer, no_span, patch_module_boundaries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 5
SETUPS = 9  # set-ups per run, spread over its passes
# Run in a fresh interpreter: the import's time, the reference loop's time
# before and after it, and where the package came from.
IMPORT_PROBE = """
import time, reference
before = reference.loop_seconds()
t0 = time.perf_counter()
import prefixnormal.cli
seconds = time.perf_counter() - t0
print(seconds, before, reference.loop_seconds(), prefixnormal.cli.__file__)
"""


def fresh_import() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import prefixnormal.cli, measured
    inside it so that starting the interpreter is left out, and the factor
    that rescales them by the reference loop run in the same interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
                         timeout=60, check=True)
    seconds, before, after, path = out.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"the fresh interpreter imported {path}, not the checkout's source")
    return float(seconds), reference.scale(float(before), float(after))


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def spread(values: list[float]) -> dict:
    """Median and quartiles, with the sample count behind them."""
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "samples": len(values)}


class Run:
    """One run of one workload: repeated set-ups, a warm-up pass, timed passes.

    Every time is kept as measured and as rescaled by the reference loop
    (see reference.py); the end-to-end metrics are the rescaled ones.
    """

    def __init__(self, workload, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.imports: list[float] = []
        self.setups: list[tuple[float, float]] = []  # (measured, rescaled) seconds
        self.passes = []
        self.setup()
        self.warmup = workload.run_pass(no_span, deep=True)
        self.start = perf_counter()

    def setup(self) -> None:
        imported, import_factor = fresh_import()
        before = reference.loop_seconds()
        t0 = perf_counter()
        self.workload.build(self.seed)
        built = perf_counter() - t0
        build_factor = reference.scale(before, reference.loop_seconds())
        self.imports.append(imported)
        self.setups.append((imported + built, imported * import_factor + built * build_factor))

    def timed_pass(self, span):
        res = self.workload.run_pass(span)
        res.close_chunk()
        self.passes.append(res)
        # Set-up is repeated between passes, so that its median spans the
        # whole run: on a shared machine, slow phases last tens of seconds.
        if perf_counter() - self.start >= len(self.imports) * self.seconds / SETUPS:
            self.setup()
        return res

    def elapsed(self) -> float:
        return perf_counter() - self.start


def untraced(run: Run, children_rss: bool):
    """End-to-end metrics, with their spreads for the metadata line."""
    while len(run.passes) < MIN_PASSES or run.elapsed() < run.seconds:
        run.timed_pass(no_span)
    passes = run.passes
    # The sum over a pass's operations of each one's median: a slow phase
    # that hits one operation in some passes does not move it.
    wall = sum(median(p.rescaled[op] for p in passes) for op in passes[0].rescaled)
    metrics = {
        "setup_s": (median(r for _, r in run.setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (passes[0].items / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(children_rss), "MB"),
    }
    rates = [run.workload.rates(p) for p in passes]
    details = {
        "pass_s": {"measured": spread([p.seconds for p in passes]),
                   "rescaled": spread([p.rescaled_seconds for p in passes])},
        "rates_measured": {k: spread([r[k] for r in rates]) for k in rates[0]},
        "parts_measured_s": {k: spread([p.parts[k] for p in passes]) for k in passes[0].parts},
    }
    return metrics, details


def traced(run: Run, detect_seeds: list[str], units: dict):
    """Per-layer metrics from traced passes and from the module probes."""
    from layers import run_layers
    from workloads import CENSUS_N, LISTING_N

    # Untraced and traced passes alternate, so that the ratio within each
    # pair is the tracing overhead and not a change of the machine's speed.
    pass_tracer, probe_tracer = Tracer(), Tracer()
    pairs = []
    while not pairs or run.elapsed() < run.seconds / 2:
        plain = run.timed_pass(no_span)
        restore = patch_module_boundaries(pass_tracer)
        try:
            pairs.append((plain, run.timed_pass(pass_tracer.span)))
        finally:
            restore()
    restore = patch_module_boundaries(probe_tracer)
    try:
        found, checks = run_layers(probe_tracer.span, run.seed, detect_seeds, LISTING_N,
                                   CENSUS_N, median(run.imports))
    finally:
        restore()
    self_pass, self_probes = pass_tracer.self_times(), probe_tracer.self_times()
    for module in MODULES:
        found[f"{module}.self_s"] = self_pass[module] / len(pairs)
        found[f"{module}.probe_self_s"] = self_probes[module]
    found["trace.overhead_share"] = median(t.rescaled_seconds / p.rescaled_seconds
                                           for p, t in pairs) - 1
    found["trace.pairs"] = len(pairs)
    found["trace.spans"] = len(pass_tracer.spans) + len(probe_tracer.spans)
    details = {
        "layer_checks": checks,
        "pass_rescaled_s": {"untraced": spread([p.rescaled_seconds for p, _ in pairs]),
                            "traced": spread([t.rescaled_seconds for _, t in pairs])},
    }
    spans_out = {"passes": pass_tracer.rows(), "probes": probe_tracer.rows()}
    return {name: (value, units[name]) for name, value in found.items()}, details, spans_out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("listing", "census", "extension"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prefixnormal" / "__init__.py").is_file():
        print(f"error: no prefixnormal source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prefixnormal
    if Path(prefixnormal.__file__).resolve().parent != (SRC / "prefixnormal").resolve():
        print(f"error: imported {prefixnormal.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, draw_inputs

    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds)
    checks: dict = {}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics, details, spans_out = traced(run, draw_inputs(args.seed)[0], units)
        checks = details["layer_checks"]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans_out))
    else:
        metrics, details = untraced(run, children_rss=args.workload == "census")
    details["setup_s"] = {"measured": spread([m for m, _ in run.setups]),
                          "rescaled": spread([r for _, r in run.setups]),
                          "import_measured": spread(run.imports)}

    attempted = sum(p.attempted for p in [run.warmup, *run.passes])
    failed = sum(len(p.failed_ops) for p in [run.warmup, *run.passes])
    for named in checks.values():
        attempted += len(named)
        failed += sum(not ok for ok in named.values())
    details["failed_ratio"] = failed / attempted
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "measured_s": run.elapsed(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "details": details, **result}, indent=1))
    print(json.dumps({"meta": meta, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
