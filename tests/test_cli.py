import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (Order, _kernel, cli, critset, extend_min, extend_stream, hamming,
                          iter_all)
from prefixnormal.generate import _visit_each

from helpers import (
    reference_emit_words,
    reference_extend_stream,
    run_in_process,
    seeds_ending_in_one,
)

CMD = [sys.executable, "-m", "prefixnormal"]


def run(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=timeout
    )


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_gen_lex_small():
    res = run("gen", "-n", "3", "--order", "lex")
    assert res.returncode == 0
    assert res.stdout == "000\n100\n101\n110\n111\n"


def test_gen_count_only():
    res = run("gen", "-n", "5", "--count-only")
    assert res.returncode == 0
    assert res.stdout == "14\n"


def test_gen_gray_stream_is_a_gray_code():
    res = run("gen", "-n", "8", "--order", "gray")
    assert res.returncode == 0
    words = res.stdout.splitlines()
    assert len(words) == 70
    assert all(hamming(a, b) <= 3 for a, b in zip(words, words[1:]))
    assert hamming(words[-1], words[0]) == 2


def test_gen_formats():
    res = run("gen", "-n", "3", "--format", "csv")
    assert res.stdout.splitlines()[0] == "word"
    res = run("gen", "-n", "3", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["count"] == 5
    assert payload["words"][0] == "000"


def _critset_words(n, s, t, order):
    """The class as a list, or None when critset rejects the query."""
    words = []
    try:
        critset(n, s, t, words.append, order)
    except ValueError:
        return None
    return words


def _expected(words, mode):
    if words is None:
        return 2, ""
    if mode == ("--count-only",):
        return 0, f"{len(words)}\n"
    return 0, reference_emit_words(words, mode[1])


def test_gen_and_critset_output_equals_the_complete_list():
    # Streamed output equals what the full list of words gives, byte for
    # byte, in every format and both orders, and a rejected query writes
    # nothing to stdout.
    modes = [("--format", fmt) for fmt in ("plain", "csv", "json")] + [("--count-only",)]
    for order in Order:
        queries = [(("gen", "-n", n), list(iter_all(n, order)) if n >= 0 else None)
                   for n in range(-1, 13)]
        queries += [(("critset", "-n", n, "-s", s, "-t", t), _critset_words(n, s, t, order))
                    for n in range(11) for s in range(n + 2) for t in range(-1, n - s + 2)]
        for query, words in queries:
            for mode in modes:
                got = run_in_process(*query, "--order", order.value, *mode)
                assert got == _expected(words, mode), (query, order, mode)


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_word_output_across_batch_boundaries(batch, monkeypatch):
    # Word counts that fill whole batches and leave a last partial one
    # (the class has 13 words), and an empty class: a dropped or repeated
    # batch changes the bytes.
    monkeypatch.setattr(cli, "_BATCH", batch)
    for order in Order:
        queries = [(("gen", "-n", n), list(iter_all(n, order))) for n in range(10)]
        queries += [(("critset", "-n", 9, "-s", s, "-t", t), _critset_words(9, s, t, order))
                    for s, t in ((1, 1), (3, 0))]
        assert [len(words) for _, words in queries[-2:]] == [13, 0]
        for query, words in queries:
            for fmt in ("plain", "csv", "json"):
                got = run_in_process(*query, "--order", order.value, "--format", fmt)
                assert got == (0, reference_emit_words(words, fmt)), (batch, query, order, fmt)


@pytest.mark.parametrize("argv", [
    ("gen", "-n", 18, "--format", "json"),
    ("gen", "-n", 18, "--format", "csv"),
    ("critset", "-n", 18, "-s", 2, "-t", 1, "--format", "plain"),
    ("critset", "-n", 18, "-s", 2, "-t", 1, "--format", "json"),
])
def test_word_output_streams_in_bounded_memory(argv):
    # 25,500 words from gen and 3,557 from the class, written a batch at a
    # time: the peak of traced allocations stays far below what a list of
    # the words would take.  The compiled walk is loaded first: its one-time
    # build and load is not part of the stream.
    _kernel.load()
    with contextlib.redirect_stdout(_Discard()):
        tracemalloc.start()
        try:
            code = cli.main([str(a) for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 200_000, peak


def test_gen_cap_flag_and_env():
    res = run("gen", "-n", "10", "--cap", "9")
    assert res.returncode == 2
    assert "cap" in res.stderr
    res = run("gen", "-n", "10", "--count-only",
              env_extra={"PREFIXNORMAL_GEN_CAP": "9"})
    assert res.returncode == 2
    res = run("gen", "-n", "10", "--count-only",
              env_extra={"PREFIXNORMAL_GEN_CAP": "12"})
    assert res.returncode == 0
    res = run("gen", "-n", "3", env_extra={"PREFIXNORMAL_GEN_CAP": "ten"})
    assert res.returncode == 2
    assert "PREFIXNORMAL_GEN_CAP" in res.stderr and "Traceback" not in res.stderr


def test_gen_reader_closing_the_pipe_early():
    proc = subprocess.Popen(CMD + ["gen", "-n", "20"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"0" * 20 + b"\n"
    assert stderr == b""


def test_gen_piped_into_head_keeps_stderr_empty():
    # `gen -n 20 | head -1`, with a Python `head -1` so that no coreutils
    # need be on PATH: it prints the first line and exits.
    gen = subprocess.Popen(CMD + ["gen", "-n", "20"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    head = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdout.write(sys.stdin.readline())"],
        stdin=gen.stdout, stdout=subprocess.PIPE)
    gen.stdout.close()
    out = head.communicate(timeout=60)[0]
    stderr = gen.stderr.read()
    gen.stderr.close()
    assert gen.wait(timeout=60) == 1
    assert (out, stderr) == (b"0" * 20 + b"\n", b"")


class _Stop(Exception):
    pass


def _full_batches(words, fmt, total):
    """What the CLI has written in `fmt` once it has taken `words`: only
    the whole batches, nothing of the partial one."""
    k = len(words) - len(words) % cli._BATCH
    if not k:
        return ""
    if fmt == "json":
        return f'{{"count": {total}, "words": [' + ", ".join(f'"{w}"' for w in words[:k])
    return reference_emit_words(words[:k], fmt)


@pytest.mark.parametrize("j", [0, 1, cli._BATCH - 1, cli._BATCH, cli._BATCH + 1])
def test_a_walk_that_raises_leaves_only_the_full_batches(j):
    # The partial batch is written on the normal return only: neither the
    # error nor the collection of the writer afterwards writes more.
    words = list(iter_all(12))
    for fmt in ("plain", "csv", "json"):
        def walk(visit):
            def source():
                yield from words[:j]
                raise _Stop
            return _visit_each(source(), visit)

        out = io.StringIO()
        args = argparse.Namespace(count_only=False, format=fmt)
        with contextlib.redirect_stdout(out):
            with pytest.raises(_Stop):
                cli._emit_words(args, walk, lambda: len(words))
            gc.collect()
        assert out.getvalue() == _full_batches(words[:j], fmt, len(words)), (j, fmt)


def test_critset_counts():
    res = run("critset", "-n", "32", "-s", "7", "-t", "22", "--count-only")
    assert res.returncode == 0
    assert res.stdout == "4\n"
    res = run("critset", "-n", "32", "-s", "2", "-t", "30", "--count-only")
    assert res.stdout == "1\n"


def test_critset_listing_and_errors():
    res = run("critset", "-n", "6", "-s", "2", "-t", "4")
    assert res.stdout == "110000\n"
    res = run("critset", "-n", "6", "-s", "0", "-t", "2")
    assert res.returncode == 2


def test_table_csv_and_jobs_determinism():
    a = run("table", "-n", "10", "--s-max", "3", "--t-max", "4")
    b = run("table", "-n", "10", "--s-max", "3", "--t-max", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "s\\t,0,1,2,3,4"


def test_table_jobs_is_refused():
    # Every count runs in the calling process, so there is no --jobs.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "-n", "10", "--jobs", "2"])
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert err.getvalue() == (cli._build_parser().format_usage()
                              + "prefixnormal: error: unrecognized arguments: --jobs 2\n")


def test_table_negative_length():
    # The length is checked before the table's bounds.
    res = run("table", "-n", "-2")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: word length must be nonnegative\n"


def test_table_t_max_0():
    # t runs from 0, so --t-max 0 is the t = 0 column; it is also the
    # default at n = 0, whose classes are all empty.
    assert run_in_process("table", "-n", "0") == (0, "s\\t,0\n" + "".join(
        f"{s},0\n" for s in range(1, 8)))
    assert run_in_process("table", "-n", "4", "--s-max", "4", "--t-max", "0") == (
        0, "s\\t,0\n1,0\n2,0\n3,0\n4,1\n")


def test_table_bounds_above_the_cap_exit_2():
    res = run("table", "-n", "5", "--s-max", "600", "--t-max", "600")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: s_max=600 exceeds the generation cap (40)\n"
    res = run("table", "-n", "5", "--t-max", "41", "--cap", "5")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: t_max=41 exceeds the generation cap (40)\n"
    # The cap raises the bound; a cap below the default --s-max 7 does not
    # lower it.
    assert run_in_process("table", "-n", "5", "--s-max", "41", "--cap", "41")[0] == 0
    code, out = run_in_process("table", "-n", "5", "--cap", "5")
    assert (code, out) == run_in_process("table", "-n", "5", "--s-max", "7")
    assert out.splitlines()[-1] == "7,0,0,0,0,0,0"


def test_table_counts_in_one_process():
    # No worker pool machinery is even imported.
    probe = (
        "import sys\n"
        "from prefixnormal import cli\n"
        "code = cli.main(['table', '-n', '21'])\n"
        "pools = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "print(code, sorted(pools), file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.stderr == "0 []\n"
    assert res.stdout.splitlines()[0].startswith("s\\t,0,1,")


def test_table_json():
    res = run("table", "-n", "8", "--s-max", "2", "--t-max", "2", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["n"] == 8
    assert all(set(cell) == {"s", "t", "count"} for cell in payload["cells"])


def test_hist_csv():
    res = run("hist", "-n", "3", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout == "length,count,percent\n2,1,20.000000\n3,4,80.000000\n"


def test_check_prefix_normal_word():
    res = run("check", "1101001001011000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["is_prefix_normal"] is True
    assert payload["phi"] == 16
    assert payload["r"] == 13


def test_check_non_prefix_normal_word():
    res = run("check", "11001101")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["is_prefix_normal"] is False
    assert "phi" not in payload


def test_check_density_fields():
    res = run("check", "110100101001")
    payload = json.loads(res.stdout)
    assert payload["delta"] == "5/11"
    assert payload["iota"] == 11
    assert payload["kappa"] == 5
    assert payload["critical_prefix"] == {"s": 2, "t": 1}


def test_check_all_zero_word():
    res = run("check", "0000")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["r"] is None
    assert "phi" not in payload


def test_check_r_is_the_rightmost_one():
    assert json.loads(run_in_process("check", "11010000")[1])["r"] == 4
    assert json.loads(run_in_process("check", "10010")[1])["r"] == 4


def test_check_malformed():
    assert run("check", "10a2").returncode == 2
    assert run("check", "").returncode == 2


def test_extend_steps():
    res = run("extend", "101", "--steps", "1")
    assert res.returncode == 0
    assert res.stdout == "10101\n"
    res = run("extend", "101", "--steps", "3")
    assert res.stdout == "101010101\n"


def test_extend_steps_equal_iterated_extend_min():
    for seed in seeds_ending_in_one(8):
        cur = seed
        for steps in range(12):
            assert run_in_process("extend", seed, "--steps", steps) == (0, cur + "\n")
            cur = extend_min(cur)


def test_extend_many_steps_reads_the_stream():
    # Iterating extend_min 2000 times would take hours; the stream cut takes
    # milliseconds.
    seed, steps = "1101001", 2000
    res = run("extend", seed, "--steps", str(steps), timeout=60)
    assert res.returncode == 0 and res.stderr == ""
    want, left = [], seed.count("1") + steps
    for ch in reference_extend_stream(seed):
        want.append(ch)
        left -= ch == "1"
        if not left:
            break
    assert res.stdout == "".join(want) + "\n"


def test_extend_steps_across_the_write_batch():
    # The seed and the blocks go out cli._BATCH = 256 per write: k = 255 fills
    # one batch exactly, 256 and 257 leave a partial one, 512 and 513 span
    # two full ones.
    for seed in ("1", "101", "1101001"):
        for k in (255, 256, 257, 512, 513):
            code, out = run_in_process("extend", seed, "--steps", k)
            want, left = [], seed.count("1") + k
            for ch in extend_stream(seed):
                want.append(ch)
                left -= ch == "1"
                if not left:
                    break
            assert code == 0 and out == "".join(want) + "\n", (seed, k)
            assert out.startswith(seed) and out[len(seed):].count("1") == k


def test_extend_detect():
    res = run("extend", "101", "--detect")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["period"] == "01"
    assert payload["iota"] == 2
    assert payload["kappa"] == 1
    res = run("extend", "1", "--detect")
    payload = json.loads(res.stdout)
    assert payload["period"] == "1"
    assert payload["preperiod"] == ""


def test_extend_negative_steps():
    res = run("extend", "101", "--steps", "-3")
    assert res.returncode == 2
    assert "--steps" in res.stderr and res.stdout == ""


def test_extend_steps_past_the_largest_index():
    # islice takes at most sys.maxsize; past that the CLI names --steps and
    # its range in one line.
    for steps in (sys.maxsize + 1, 10**30):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["extend", "101", "--steps", str(steps)])
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: --steps must be between 0 and {sys.maxsize}\n")


def test_extend_bad_seed():
    assert run("extend", "10", "--steps", "1").returncode == 2
    assert run("extend", "11001101", "--detect").returncode == 2
    # --steps 0 checks the seed too, though it reads no symbol past it.
    for word in ("11001101", "10"):
        res = run("extend", word, "--steps", "0")
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_extend_scan_cap_exit_3():
    res = run("extend", "101", "--detect", "--scan-cap", "4")
    assert res.returncode == 3
    payload = json.loads(res.stdout)
    assert payload["scanned_prefix"] == "1010"
    assert payload["scan_cap"] == 4


def test_extend_non_positive_scan_cap():
    for cap in ("0", "-5"):
        res = run("extend", "101", "--detect", "--scan-cap", cap)
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_extend_scan_cap_needs_detect():
    # Valid or not, a scan cap without --detect is refused, not ignored.
    for cap in ("4", "-3"):
        res = run("extend", "101", "--scan-cap", cap, "--steps", "2")
        assert res.returncode == 2 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_extend_detect_refuses_steps():
    # --detect reads no --steps; any value given with it is refused.
    for steps in ("1", "0"):
        res = run("extend", "101", "--detect", "--steps", steps)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: --steps applies only without --detect\n"


def test_extend_detect_long_seed():
    # Its paper bound on the preperiod is beyond 2**63.
    seed = "1111010110101010111010110001000100000110000010000001000010010001"
    res = run("extend", seed, "--detect")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert all(payload["checks"].values())
    assert payload["scanned_length"] == 403


def test_oracle_pass():
    res = run("oracle", "-n", "12")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS")
    res = run("oracle", "-n", "1")
    assert res.returncode == 0


def test_oracle_cap():
    res = run("oracle", "-n", "25")
    assert res.returncode == 2
    res = run("oracle", "-n", "6", env_extra={"PREFIXNORMAL_ORACLE_CAP": "5"})
    assert res.returncode == 2
    assert res.stderr == "error: n=6 exceeds the oracle cap (5)\n"
    res = run("oracle", "-n", "6", env_extra={"PREFIXNORMAL_ORACLE_CAP": "5.5"})
    assert res.returncode == 2
    assert "PREFIXNORMAL_ORACLE_CAP" in res.stderr


@pytest.mark.parametrize("kernel", [True, False])
@pytest.mark.parametrize("n", [2**31, 10**20])
def test_lengths_past_c_ints_exit_2(n, kernel, monkeypatch):
    # The compiled walk holds lengths in C ints.  Past them, gen raised
    # OverflowError from the kernel's state, and critset, table and hist
    # set out to build that many strings, cells or classes.  The shared
    # length check now refuses n, with or without the kernel, before
    # anything is allocated.
    if not kernel:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    for cmd in (("gen", "--count-only"), ("gen",), ("critset", "-s", 1, "-t", 1),
                ("table",), ("hist",), ("oracle",)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in (*cmd, "-n", n, "--cap", n)])
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: n={n} exceeds the longest word length (2147483647)\n"), cmd


def test_out_of_memory_exits_2():
    # A length under the C-int limit can still need more memory than the
    # process may take: the compiled count holds 24 bytes per symbol, about
    # 7 GB here.  The child runs under a 1 GiB address-space limit, so the
    # allocation fails at once; it printed a MemoryError traceback and
    # exited 1.  Without a compiler the Python count would run instead.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    res = subprocess.run(CMD + ["gen", "--count-only", "-n", "300000000", "--cap", "2147483647"],
                         capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", "error: out of memory\n")


def test_gen_deterministic_bytes():
    a = run("gen", "-n", "9", "--order", "gray")
    b = run("gen", "-n", "9", "--order", "gray")
    assert a.stdout == b.stdout


# Flag values: mostly small ints, then negatives and strings that are not
# integers, so that most draws reach the command rather than argparse.
_VALUE = st.integers(0, 9).flatmap(lambda kind: (
    st.integers(0, 12).map(str) if kind < 6 else
    st.integers(-3, -1).map(str) if kind < 8 else
    st.sampled_from(["x", "1.5", "", "07", "-0"])))
_N = st.integers(-2, 10).map(str)
_WORD = st.one_of(st.text(alphabet="01", max_size=8), st.text(alphabet="01x", max_size=8))
# Each command's flags and the values they draw.
_LISTING = {"--order": st.sampled_from(["lex", "gray", "up"]), "--count-only": None,
            "--format": st.sampled_from(["plain", "csv", "json", "xml"])}
_COMMANDS = {
    "gen": ([], {"-n": _N, "--cap": _VALUE, **_LISTING}),
    "critset": ([], {"-n": _N, "-s": _VALUE, "-t": _VALUE, "--cap": _VALUE, **_LISTING}),
    "table": ([], {"-n": _N, "--cap": _VALUE, "--s-max": _VALUE, "--t-max": _VALUE,
                   "--format": st.sampled_from(["csv", "json", "plain"])}),
    "hist": ([], {"-n": _N, "--cap": _VALUE, "--format": st.sampled_from(["csv", "json", "plain"])}),
    "check": ([_WORD], {}),
    "extend": ([_WORD], {"--steps": _VALUE, "--detect": None, "--scan-cap": _VALUE}),
    "oracle": ([], {"-n": _N, "--cap": _VALUE}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, flags = _COMMANDS[command]
    argv = [command] + [draw(value) for value in positional]
    for flag, value in flags.items():
        # Required flags are usually present; leaving one out is a usage error.
        if draw(st.integers(0, 9)) < (8 if flag in ("-n", "-s", "-t") else 4):
            argv.append(flag)
            if value is not None:
                argv.append(draw(value))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_every_argv_exits_0_to_3_without_a_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
