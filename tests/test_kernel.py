"""The compiled counting kernel against the Python counting walk, and the
Python fallback when the kernel is missing."""

import shutil
import signal
import stat
import subprocess
import sys
import time

import pytest

from prefixnormal import _kernel, count_pn, critset_count, critset_table, oracle_enumerate
from prefixnormal import generate
from prefixnormal.critstats import _class_root
from prefixnormal.generate import _count, _count_run

# count_pn(n) for n = 0 .. 21 (OEIS A194850).
COUNTS = [1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185,
          7568, 13997, 25500, 47414, 87024, 162456]
# critset_table(32, 1, 3).cells, as in tests/test_table_extended.py.
CELLS_N32 = {(1, 0): 0, (1, 1): 284663, (1, 2): 14295, (1, 3): 2226}


def ones(w):
    return [i for i, ch in enumerate(w, 1) if ch == "1"]


def kernel():
    k = _kernel.load()
    if k is None:
        pytest.skip("no counting kernel on this machine")
    return k


def roots(n):
    """110^(n-2) and every class root of length n."""
    yield "11" + "0" * (n - 2)
    for s in range(1, n + 1):
        for t in range(n - s + 1):
            root = _class_root(n, s, t)[1]
            if root:
                yield root


def test_kernel_loads_where_there_is_a_compiler():
    # Without this a broken C file would fall back to Python unnoticed.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert _kernel.load() is not None


def test_kernel_equals_the_python_walk_on_every_class_root_up_to_20():
    count = kernel()
    for n in range(2, 21):
        for root in roots(n):
            assert count(ones(root), n) == _count_run(ones(root), n), root


def test_kernel_resumes_after_any_budget(monkeypatch):
    count = kernel()
    for budget in (1, 2, 3, 7):
        monkeypatch.setattr(_kernel, "_BUDGET", budget)
        for n in range(2, 11):
            for w in oracle_enumerate(n):
                if w.count("1") >= 2:
                    assert count(ones(w), n) == _count_run(ones(w), n), (budget, w)


def test_kernel_refuses_what_it_cannot_count():
    count = kernel()
    for a, n in (([1], 5), ([1, 2], 64), ([0, 2], 5), ([1, 6], 5)):
        with pytest.raises(ValueError):
            count(a, n)


def test_long_words_count_in_python(monkeypatch):
    # Above 63 a count may not fit 64 bits, so the Python walk counts.
    calls = []

    def spy(a, n):
        calls.append(n)
        return _count_run(a, n)

    monkeypatch.setattr(generate, "_count_run", spy)
    assert _count("1" * 63 + "0") == 3
    assert calls == [64]


def test_python_fallback_without_the_kernel(monkeypatch):
    calls = []

    def spy(a, n):
        calls.append(n)
        return _count_run(a, n)

    monkeypatch.setattr(_kernel, "load", lambda: None)
    monkeypatch.setattr(generate, "_count_run", spy)
    assert [count_pn(n) for n in range(22)] == COUNTS
    assert critset_table(32, 1, 3).cells == CELLS_N32
    assert critset_count(32, 7, 22) == 4
    assert calls


def test_build_into_a_private_cache(tmp_path, monkeypatch):
    kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    count = _kernel._build()
    assert count(ones("11" + "0" * 19), 21) == COUNTS[21] - 2
    cache = tmp_path / "prefixnormal"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]
    # A second build loads the cached library without compiling again.
    monkeypatch.setattr(shutil, "which", lambda name: "/nonexistent/cc")
    assert _kernel._build()(ones("11" + "0" * 19), 21) == COUNTS[21] - 2


def test_shared_cache_is_refused(tmp_path, monkeypatch):
    kernel()
    cache = tmp_path / "prefixnormal"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(OSError):
        _kernel._build()
    assert list(cache.iterdir()) == []


def test_ctrl_c_stops_a_long_count():
    # gen -n 40 --count-only counts for minutes even with the kernel.
    proc = subprocess.Popen(
        [sys.executable, "-m", "prefixnormal", "gen", "-n", "40", "--count-only"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(1)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=3)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0 and out == ""
