"""The compiled walk against the Python walk, in both of its modes
(listing and counting), the listings that go through it, and the Python
fallback when it is missing."""

import os
import random
import shutil
import signal
import stat
import subprocess
import sys
import time
from itertools import chain, islice

import pytest

from prefixnormal import (OpCounter, Order, _kernel, count_pn, critset_count, critset_table,
                          generate, generate_all, generate_pn, iter_all, iter_pn,
                          is_prefix_normal)
from prefixnormal.critstats import _classes
from prefixnormal.generate import _count, _walk
from prefixnormal.ops import _min_flip, _run

from helpers import lines_of_width, pn_words, reference_class_root, run_in_process, walk_count

# count_pn(n) for n = 0 .. 21 (OEIS A194850).
COUNTS = [1, 2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185,
          7568, 13997, 25500, 47414, 87024, 162456]
# critset_table(32, 1, 3).cells, as in tests/test_table_extended.py.
CELLS_N32 = {(1, 0): 0, (1, 1): 284663, (1, 2): 14295, (1, 3): 2226}


def ones(w):
    return [i for i, ch in enumerate(w, 1) if ch == "1"]


def native():
    k = _kernel.load()
    if k is None:
        pytest.skip("no compiled walk on this machine")
    return k


def kernel():
    # One root per call; test_batch_resumes_after_any_budget counts batches.
    count = native().count
    return lambda a, n: count([a], n)[0]


def walk_lines(root, order):
    return "".join(_walk(ones(root), len(root), order))


def walk_words(a, n, order, k=None):
    """The first k words (all when k is None) of the Python walk."""
    return [line[:-1] for line in islice(_walk(a, n, order), k)]


def whole_lines(chunk, n):
    """Whether `chunk` is nonempty text of whole lines "word\\n" of length
    n, no longer than one native call may write."""
    return len(chunk) <= _kernel.buffers(n)[1] and lines_of_width(chunk, n)


def kernel_lines(root, order):
    chunks = list(native().lines(ones(root), len(root), order is Order.LEX))
    # Each native call yields one chunk of whole lines.
    assert all(whole_lines(chunk, len(root)) for chunk in chunks)
    return "".join(chunks)


def kernel_words(a, n, order, k=None):
    """The first k words (all when k is None) of the kernel's listing, each
    chunk checked as kernel_lines does."""
    def words(chunk):
        assert whole_lines(chunk, n)
        return chunk.splitlines()

    chunks = native().lines(a, n, order is Order.LEX)
    return list(islice(chain.from_iterable(map(words, chunks)), k))


def roots(n):
    """110^(n-2) and every class root of length n."""
    yield "11" + "0" * (n - 2)
    for s in range(1, n + 1):
        for t in range(n - s + 1):
            root = reference_class_root(n, s, t)[1]
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
            assert count(ones(root), n) == walk_count(ones(root), n), root


def test_kernel_counts_long_words_exactly():
    # No length limit: each native call's 64-bit total holds one budget of
    # steps, and the calls add up in a Python int.
    count = kernel()
    checked = 0
    for n in (64, 80, 120):
        for s in range(n - 16, n + 1):
            for t in range(n - s + 1):
                root = reference_class_root(n, s, t)[1]
                if root:
                    assert count(ones(root), n) == walk_count(ones(root), n), root
                    checked += 1
    assert checked == 315


def test_long_class_count_through_the_kernel():
    # 2^26 words: about 100 s on the Python walk, under a second in the
    # kernel (2 CPUs, Python 3.11).
    kernel()
    assert critset_count(64, 34, 3) == 2 ** 26


def test_kernel_resumes_after_any_budget(monkeypatch):
    count = kernel()
    # A class root at n = 64 with 4095 words: many calls add up.
    long_root = reference_class_root(64, 48, 3)[1]
    for budget in (1, 2, 3, 7):
        monkeypatch.setattr(_kernel, "_BUDGET", budget)
        for n in range(2, 11):
            for w in pn_words(n):
                if w.count("1") >= 2:
                    assert count(ones(w), n) == walk_count(ones(w), n), (budget, w)
        assert count(ones(long_root), 64) == walk_count(ones(long_root), 64) == 4095


def test_count_mode_equals_the_python_walk_on_every_node_up_to_14(monkeypatch):
    # The counter counts a flip child's run when it creates it and gives it
    # a frame only if it has a flip child below n: every node as a root,
    # resumed after any budget, also from inside a pushed frame.
    count = native().count
    batches = {n: [ones(w) for w in pn_words(n) if w.count("1") >= 2]
               for n in range(2, 15)}
    want = {n: [walk_count(a, n) for a in batch] for n, batch in batches.items()}
    # Roots with two 1s (no second), and runs whose rest is n + 1 (every
    # flip child a leaf at n).
    assert [1, 2] in batches[14]
    assert any(_run(a, n)[0] == n + 1 for n, batch in batches.items() for a in batch)
    for budget in (1, 2, 3, 7, _kernel._BUDGET):
        monkeypatch.setattr(_kernel, "_BUDGET", budget)
        for n, batch in batches.items():
            assert count(batch, n) == want[n], (budget, n)


def test_batch_resumes_after_any_budget(monkeypatch):
    # Every root of a length in one batch: the budget runs out inside roots
    # and on their boundaries, and each partial count lands on its root.
    count = native().count
    for budget in (1, 2, 3, 7):
        monkeypatch.setattr(_kernel, "_BUDGET", budget)
        for n in range(2, 21):
            batch = [ones(root) for root in roots(n)]
            assert count(batch, n) == [walk_count(a, n) for a in batch], (budget, n)


def test_kernel_refuses_what_it_cannot_count():
    count = kernel()
    # Repeated or unsorted positions are no node of the tree: the walk
    # would not end on [1, 1] and [1, 1, 1], and would miscount the rest.
    bad = (([1], 5), ([0, 2], 5), ([1, 6], 5), ([1] * 6, 5),
           ([1, 1], 6), ([1, 1, 1], 6), ([2, 2, 3], 6), ([1, 3, 2], 6),
           ([1, 2 ** 32 + 2, 3], 6))
    for a, n in bad:
        with pytest.raises(ValueError):
            count(a, n)
        with pytest.raises(ValueError):
            native().count([[1, 2], a], n)
    for a, n in bad:
        with pytest.raises(ValueError):
            next(native().lines(a, n, True))


def test_kernel_lines_equal_the_python_walk():
    for order in Order:
        for n in range(2, 19):
            root = "11" + "0" * (n - 2)
            assert kernel_lines(root, order) == walk_lines(root, order), (n, order)
        for n in range(2, 15):
            for root in roots(n):
                assert kernel_lines(root, order) == walk_lines(root, order), (root, order)


def test_kernel_lists_long_words():
    # No length limit, unlike counting: the first chunk at n = 200 is the
    # start of the Python walk's listing.
    root = "11" + "0" * 198
    for order in Order:
        chunk = next(native().lines(ones(root), 200, order is Order.LEX))
        assert whole_lines(chunk, 200) and len(chunk) <= _kernel._CHUNK
        words = chunk.splitlines()
        assert words == walk_words(ones(root), 200, order, len(words)), order


@pytest.mark.parametrize("floor", [False, True])
def test_kernel_lines_across_copy_blocks(monkeypatch, floor):
    # A line copies its run base in blocks of 16 bytes and may run up to 15
    # past it: word lengths on either side of multiples of 8, 16, 32 and
    # 64, at the default chunk and at the two-line floor, where every line
    # ends near the end of its buffer.  Whole listings up to n = 20, the
    # first 5,000 words above.
    if floor:
        monkeypatch.setattr(_kernel, "_CHUNK", 0)
    for n in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200):
        k = None if n <= 20 else 5000
        for order in Order:
            assert kernel_words([1, 2], n, order, k) == walk_words([1, 2], n, order, k), (n, order)


def test_kernel_is_clean_under_sanitizers(tmp_path, monkeypatch):
    # tests/kernel_driver.c lists and counts at n = 2..40 in both orders,
    # with buffers of exactly the sizes _kernel.buffers gives at the default
    # chunk and at the floor, built with the address and undefined-behaviour
    # sanitizers: a block copy past a buffer is reported and fails the run.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    flags = ["-O2", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    env = {**os.environ, "ASAN_OPTIONS": "detect_leaks=0"}
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run([cc, *flags, "-o", str(tmp_path / "probe"), str(probe)],
                           capture_output=True)
    if built.returncode or subprocess.run([str(tmp_path / "probe")], env=env).returncode:
        pytest.skip("no sanitizer runtime")
    driver = os.path.join(os.path.dirname(__file__), "kernel_driver.c")
    res = subprocess.run([cc, *flags, "-o", str(tmp_path / "driver"), _kernel._SOURCE, driver],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    cases = []
    for chunk in (_kernel._CHUNK, 0):
        monkeypatch.setattr(_kernel, "_CHUNK", chunk)
        for n in range(2, 41):
            (wsize, osize), cap = _kernel.buffers(n)
            cases += [f"{n} {lex} {wsize} {cap} {osize}\n" for lex in (0, 1)]
    res = subprocess.run([str(tmp_path / "driver")], input="".join(cases), env=env,
                         capture_output=True, text=True, timeout=600)
    assert (res.returncode, res.stdout, res.stderr) == (0, f"{len(cases)} cases\n", ""), res.stderr


def test_lister_equals_the_walk_below_deep_roots():
    # 20 seeded random nodes at n = 24..32, reached by random bubbles and
    # flips from 110^(n-2), 12 of them with more than 5,000 words in their
    # subtrees (up to 80 million): the first 5,000 words of iter_pn are the
    # Python walk's.
    native()
    rng = random.Random(25)
    long = 0
    for _ in range(20):
        n = rng.randint(24, 32)
        a = [1, 2]
        for _ in range(rng.randint(2, 12)):
            phi = _min_flip(a, n)
            steps = (([a[:-1] + [a[-1] + 1]] if a[-1] < n else [])
                     + ([a + [phi]] if phi <= n else []))
            if not steps:
                break
            a = rng.choice(steps)
        root = "".join("1" if i in a else "0" for i in range(1, n + 1))
        assert is_prefix_normal(root), root
        for order in Order:
            got = list(islice(iter_pn(root, order), 5000))
            assert got == walk_words(a, n, order, 5000), (root, order)
            long += len(got) == 5000
    assert long == 24


def test_kernel_lister_resumes_after_any_budget(monkeypatch):
    native()
    # The smallest buffer: room for one step's two lines.
    monkeypatch.setattr(_kernel, "_CHUNK", 0)
    for budget in (1, 2, 3, 7):
        monkeypatch.setattr(_kernel, "_BUDGET", budget)
        for n in range(2, 11):
            for w in pn_words(n):
                if w.count("1") >= 2:
                    for order in Order:
                        assert kernel_lines(w, order) == walk_lines(w, order), (budget, w)


def test_long_words_count_in_the_kernel(monkeypatch):
    # The kernel counts at every n; the Python walk is not entered.
    native()
    calls = []

    def spy(a, n, *rest):
        calls.append(n)
        return _walk(a, n, *rest)

    monkeypatch.setattr(generate, "_walk", spy)
    assert _count([list(range(1, 64))], 64) == [3]
    assert _count(list(_classes(64, [(48, 3)])[1].values()), 64) == [4095]
    assert calls == []


def test_python_fallback_without_the_kernel(monkeypatch):
    calls = []

    def spy(a, n, *rest):
        calls.append(n)
        return _walk(a, n, *rest)

    monkeypatch.setattr(_kernel, "load", lambda: None)
    monkeypatch.setattr(generate, "_walk", spy)
    assert [count_pn(n) for n in range(22)] == COUNTS
    assert critset_table(32, 1, 3).cells == CELLS_N32
    assert critset_count(32, 7, 22) == 4
    assert calls


@pytest.mark.parametrize("compiled", [True, False])
def test_an_empty_batch_counts_nothing(monkeypatch, compiled):
    if compiled:
        native()
    else:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    for n in (2, 21):
        assert _count([], n) == []


def test_listings_come_from_the_kernel(monkeypatch):
    # Every listing but one charged to an OpCounter takes the kernel's
    # words; the Python walk is not entered.
    native()
    want = {order: ["0" * 12, "1" + "0" * 11, *walk_words([1, 2], 12, order)]
            for order in Order}
    seed = "1101" + "0" * 8
    want_pn = {order: walk_words(ones(seed), 12, order) for order in Order}

    def refuse(*args):
        raise AssertionError("listed by the Python walk")

    monkeypatch.setattr(generate, "_walk", refuse)
    for order in Order:
        got = []
        assert generate_all(12, got.append, order) == len(want[order])
        assert got == list(iter_all(12, order)) == want[order]
        got = []
        assert generate_pn(seed, got.append, order) == len(want_pn[order])
        assert got == list(iter_pn(seed, order)) == want_pn[order]
    with pytest.raises(AssertionError, match="Python walk"):
        generate_all(12, got.append, counter=OpCounter())


def test_word_output_without_the_kernel(monkeypatch):
    # The CLI's word output from the Python walk, byte for byte.
    native()
    queries = [("gen", "-n", n) for n in range(-1, 15)]
    queries += [("critset", "-n", n, "-s", s, "-t", t)
                for n in range(12) for s in range(n + 2) for t in range(-1, n - s + 2)]
    queries = [(*q, "--order", order.value, "--format", fmt)
               for q in queries for order in Order for fmt in ("plain", "csv", "json")]
    compiled = [run_in_process(*q) for q in queries]
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert [run_in_process(*q) for q in queries] == compiled


def test_cli_import_leaves_the_kernel_out():
    # The kernel, and the compiler it may start, load on first use only.
    code = ("import sys, prefixnormal.cli; "
            "print('prefixnormal._kernel' in sys.modules, 'subprocess' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (0, "False False\n"), res.stderr


def test_kernel_compiles_without_warnings(tmp_path):
    # A failed build falls back to Python unnoticed, so the C file is kept
    # free of warnings under the flags the build uses.
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    res = subprocess.run([cc, *_kernel._FLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "kernel.so"), _kernel._SOURCE],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_build_into_a_private_cache(tmp_path, monkeypatch):
    kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    count = _kernel._build().count
    assert count([ones("11" + "0" * 19)], 21) == [COUNTS[21] - 2]
    cache = tmp_path / "prefixnormal"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]
    # A second build loads the cached library without compiling again.
    monkeypatch.setattr(shutil, "which", lambda name: "/nonexistent/cc")
    assert _kernel._build().count([ones("11" + "0" * 19)], 21) == [COUNTS[21] - 2]


def test_shared_cache_is_refused(tmp_path, monkeypatch):
    kernel()
    cache = tmp_path / "prefixnormal"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(OSError):
        _kernel._build()
    assert list(cache.iterdir()) == []


def interrupt(*argv, stdout=subprocess.PIPE, env=None):
    """Start the CLI, in `env` if given, send it SIGINT after a second, and
    return its exit code, stdout (None when not piped) and stderr.  The
    child starts with SIGINT's default action: one that pytest ignores, as
    in a background job of a non-interactive shell, would be inherited, and
    Python then installs no KeyboardInterrupt handler."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "prefixnormal", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        time.sleep(1)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=3)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, out, err


def test_ctrl_c_stops_a_long_count():
    # gen -n 40 --count-only counts for minutes even with the kernel.
    assert interrupt("gen", "-n", "40", "--count-only") == (130, "", "error: interrupted\n")


def test_deep_count_without_a_compiler_runs_until_ctrl_c(tmp_path):
    # No cc on PATH and an empty cache: the Python walk counts, and at
    # n = 1000 it nests runs deeper than the interpreter's recursion limit.
    empty = tmp_path / "bin"
    empty.mkdir()
    env = {**os.environ, "PATH": str(empty), "XDG_CACHE_HOME": str(tmp_path)}
    assert (interrupt("gen", "-n", "1000", "--cap", "1000", "--count-only", env=env)
            == (130, "", "error: interrupted\n"))


def test_ctrl_c_stops_a_long_table():
    # The whole table is one batch, and the batch returns to Python as often.
    assert interrupt("table", "-n", "40") == (130, "", "error: interrupted\n")


def test_ctrl_c_stops_a_long_listing():
    assert (interrupt("gen", "-n", "40", stdout=subprocess.DEVNULL)
            == (130, None, "error: interrupted\n"))
