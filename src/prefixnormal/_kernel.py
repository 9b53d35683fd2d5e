"""The compiled walk (`_kernel.c`) that lists and counts, built on first use.

`load()` compiles the C file with the system's `cc` into a private cache
directory ($XDG_CACHE_HOME/prefixnormal, else ~/.cache/prefixnormal, mode
0700), under a name keyed by a hash of the source, the flags and the
machine, and loads it with ctypes.  It returns None when there is no
compiler or the build or load fails; the caller then walks in Python.
Nothing here runs at import time.
"""

from __future__ import annotations

import functools
import os
import shutil
import sys
import zlib
from collections import namedtuple
from operator import add

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
# Steps per native call, about 8 ms of work: Python handles Ctrl-C and
# other signals only between calls.
_BUDGET = 1 << 20
# Bytes of lines per chunk of either walk (`buffers`): warm `gen -n 18 --order gray
# --format json` peaks at 168 kB here and 203 kB at 32 KiB (tracemalloc), and a
# plain `gen -n 18` from the Python walk, which holds a chunk's lines as it joins
# them, at 176 kB; test_cli bounds both at 200 kB.
_CHUNK = 3 << 13

Kernel = namedtuple("Kernel", "count lines")


def buffers(n: int):
    """((run base, output) buffer sizes, cap) of the lister at length n.  Cap,
    the most bytes of lines in a chunk of either walk, holds a step's two
    lines; a line's block copy (BLOCK in _kernel.c) may run 15 bytes past
    its word."""
    cap = max(_CHUNK, 2 * (n + 1))
    return (n + 16, cap + 16), cap


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        # Unset, empty or relative; the XDG spec says to ignore a relative path.
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):
        raise OSError("no home directory for the kernel cache")
    path = os.path.join(root, "prefixnormal")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    # A directory that someone else owns or can write to could hold a
    # library that is not ours.
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{path} is not private to this user")
    return path


def _build():
    import ctypes
    import struct

    cc = shutil.which("cc")
    if cc is None:
        return None
    with open(_SOURCE, "rb") as f:
        source = f.read()
    # zlib is already loaded, where hashlib would load OpenSSL (3.5 MB of
    # resident memory); the key only tells our own builds apart.
    key = zlib.crc32(b"\0".join(
        [source, " ".join(_FLAGS).encode(), sys.platform.encode(),
         os.uname().machine.encode()]
    ))
    cache = _cache_dir()
    lib = os.path.join(cache, f"kernel-{key:08x}.so")
    if not os.path.exists(lib):
        # Only a build needs these, so a warm cache never imports them.
        import subprocess
        import tempfile

        # Built under a temporary name and renamed, so that a process that
        # builds at the same time never loads a half-written file.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([cc, *_FLAGS, "-o", tmp, _SOURCE], check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=120)
            os.replace(tmp, lib)
        except subprocess.SubprocessError:
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    native = ctypes.CDLL(lib)
    c_int_p = ctypes.POINTER(ctypes.c_int)
    c_count = native.pn_count
    c_count.argtypes = [ctypes.c_int, ctypes.c_int, c_int_p, c_int_p, c_int_p, c_int_p,
                        c_int_p, c_int_p, ctypes.POINTER(ctypes.c_uint64), ctypes.c_uint64]
    c_count.restype = ctypes.c_int
    c_list = native.pn_list
    c_list.argtypes = [ctypes.c_int, c_int_p, ctypes.c_int, ctypes.c_int, c_int_p, c_int_p,
                       c_int_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_size_t,
                       ctypes.POINTER(ctypes.c_size_t), ctypes.c_uint64]
    c_list.restype = ctypes.c_int

    def state(n: int):
        # Room for the positions of the 1s, zeroed frames, and no root entered.
        return (ctypes.c_int * n)(), (ctypes.c_int * (5 * (n + 1)))(), ctypes.c_int(0)

    def ints(m: int, values):
        # m C ints packed in one call: (c_int * m)(*values) converts them
        # one at a time, about 8 times as slow for the histogram's roots.
        try:
            return (ctypes.c_int * m).from_buffer_copy(struct.pack(f"{m}i", *values))
        except struct.error:
            raise ValueError(_NOT_A_NODE) from None

    def count(roots: list[list[int]], n: int) -> list[int]:
        """Words in the subtree of each root, a list of the positions of
        its 1s, exact at any n: pn_count's partials (see _kernel.c) added
        up in Python ints.  Raises ValueError if a root is not a node."""
        # Extended a root at a time: the histogram's 162 roots at n = 21
        # pack in about 35 us, against 50 us through chain.from_iterable
        # (2 CPUs, Python 3.11).
        flat, lens = [], list(map(len, roots))
        for a in roots:
            flat += a
        m = len(lens)
        packed, lengths = ints(len(flat), flat), ints(m, lens)
        parts = (ctypes.c_uint64 * m)()
        i = ctypes.c_int(0)
        pos, frames, k = state(n)
        totals = [0] * m
        while True:
            start = i.value
            done = c_count(n, m, packed, lengths, i, pos, frames, k, parts, _BUDGET)
            if done < 0:
                raise ValueError(_NOT_A_NODE)
            stop = min(i.value + 1, m)
            totals[start:stop] = map(add, totals[start:stop], parts[start:stop])
            if done:
                return totals

    def lines(a: list[int], n: int, lex: bool):
        """Yield the lines "word\\n" of the subtree of the node whose 1s sit
        at `a`, in the order of generate._walk, one str of whole lines of
        n + 1 characters per native call (see generate's docstring).
        Raises ValueError if `a` is not a node of the tree."""
        root = ints(len(a), a)
        pos, frames, k = state(n)
        sizes, cap = buffers(n)
        base, out = map(ctypes.create_string_buffer, sizes)
        view = memoryview(out)
        used = ctypes.c_size_t(0)
        while True:
            done = c_list(n, root, len(a), lex, pos, frames, k, base, out, cap, used, _BUDGET)
            if done < 0:
                raise ValueError(_NOT_A_NODE)
            if used.value:
                # Decoded straight from the buffer, with no bytes copy.
                yield str(view[:used.value], "ascii")
                used.value = 0
            if done:
                return

    return Kernel(count, lines)


_NOT_A_NODE = ("the kernel walks only nodes of the tree: two or more strictly "
               "increasing positions from 1 to at most n")


@functools.cache
def load():
    """The native walk as Kernel(count, lines), or None when it cannot be
    built here.

    The first call builds and loads the library; later calls return the
    same result.
    """
    try:
        return _build()
    # AttributeError: no os.uname, or a library without pn_count or pn_list.
    except (OSError, AttributeError):
        return None
