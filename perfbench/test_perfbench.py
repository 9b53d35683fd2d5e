"""Self-tests of the benchmark at tiny sizes: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Census, Extension, Listing, Pin  # noqa: E402

TINY = {
    "listing": lambda: Listing(n=8),
    "census": lambda: Census(n=8),
    "extension": lambda: Extension(detect=41, stream=2, symbols=200),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_passes_its_checks_at_tiny_size(name):
    workload = TINY[name]()
    workload.build(7)
    for deep in (True, False):
        res = workload.run_pass(spans.no_span, deep=deep)
        assert res.attempted > 0 and res.items > 0 and res.seconds > 0
        assert res.failed_ops == set()
        assert all(rate > 0 for rate in workload.rates(res).values())


@pytest.mark.parametrize("chunk_s", [0.0, 60.0])
def test_rescaled_times_cover_every_operation(chunk_s, monkeypatch):
    monkeypatch.setattr(workloads, "CHUNK_S", chunk_s)
    workload = TINY["extension"]()
    workload.build(7)
    res = workload.run_pass(spans.no_span)
    res.close_chunk()
    assert res.rescaled.keys() == res.times.keys() and len(res.times) == 43
    assert all(t > 0 for t in res.rescaled.values())


def test_extension_inputs_follow_the_seed():
    a, b, c = (workloads.draw_inputs(seed, 41, 2) for seed in (1, 1, 2))
    assert a == b and a != c
    assert all(w.endswith("1") and workloads.is_prefix_normal(w) for w in a[0] + a[1])
    assert sorted({len(w) for w in a[0]}) == list(range(8, 49))


@pytest.mark.parametrize("name", ["listing", "census"])
def test_a_wrong_pin_is_a_failure_not_a_crash(name, monkeypatch):
    monkeypatch.setitem(workloads.PINNED, 8, Pin(count=71, lex="0" * 64, gray="0" * 64,
                                                 table="0" * 64))
    workload = TINY[name]()
    res = workload.run_pass(spans.no_span, deep=True)
    assert res.failed_ops == ({"gen_lex", "gen_gray", "iter_all"} if name == "listing"
                              else {"count_pn", "critset_table", "histogram"})


def test_a_raising_operation_is_a_failure_not_a_crash(monkeypatch):
    def broken(w):
        raise ValueError("broken on purpose")

    workload = TINY["extension"]()
    workload.build(7)
    workload.run_pass(spans.no_span, deep=True)
    monkeypatch.setattr(workloads, "detect_period", broken)
    res = workload.run_pass(spans.no_span)
    assert res.failed_ops == {f"detect_period#{i}" for i in range(41)}


def test_traced_pass_charges_time_to_the_called_module():
    from prefixnormal import cli, generate

    tracer = spans.Tracer()
    restore = spans.patch_module_boundaries(tracer)
    try:
        res = TINY["listing"]().run_pass(tracer.span, deep=True)
    finally:
        restore()
    assert res.failed_ops == set()
    assert cli.generate_all is generate.generate_all
    by_id = {sp.id: sp for sp in tracer.spans}
    walks = [sp for sp in tracer.spans if sp.name == "generate.generate_all"]
    assert len(walks) == 2 and all(by_id[sp.parent].name == "cli.main" for sp in walks)
    self_s = tracer.self_times()
    assert set(self_s) == set(spans.MODULES)
    assert self_s["generate"] > 0 and self_s["cli"] > 0 and self_s["infinite"] == 0


def test_layer_probes_report_their_metrics_and_pass_their_checks():
    seeds = workloads.draw_inputs(3, 41, 0)[0]
    metrics, checks = layers.run_layers(spans.no_span, 3, seeds, 8, 8, 0.05)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    added_by_run = ({f"{m}.{kind}" for m in spans.MODULES for kind in ("self_s", "probe_self_s")}
                    | {"trace.overhead_share", "trace.pairs", "trace.spans"})
    assert set(metrics) == names - added_by_run
    assert all(ok for named in checks.values() for ok in named.values())
    assert metrics["generate.words"] == 70 and metrics["generate.max_gap_reads"] <= 64
    assert metrics["infinite.detect_tail_pct"] == 50.0


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail(list(range(1000)))[0] == 99.0
    assert layers.tail(list(range(999)))[0] == 90.0
    assert layers.tail(list(range(5))) == (50.0, 2)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "listing",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
