"""The complete 7 x 32 critical-prefix class matrix at n=32.

With the compiled counting kernel it takes under a second and runs by
default.  Without the kernel it is skipped, because the Python walk lists
every word of the matrix, about three minutes (170 s and 179 s in two
runs, Python 3.11, 2 CPUs); set PREFIXNORMAL_EXTENDED=1 to run it on the
Python walk anyway.
"""

import os

import pytest

from prefixnormal import _kernel, critset_table

# fmt: off
FULL_MATRIX_N32 = {
    1: [284663, 14295, 2226, 597, 220, 100, 53, 30, 16, 11, 9, 7, 5, 3, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
    2: [9453217, 979458, 162336, 38404, 11679, 4317, 1788, 813, 451, 276,
        161, 90, 47, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
        1, 1, 0, 0],
    3: [25025726, 4907605, 1103214, 293913, 91632, 32459, 12606, 5815, 2962,
        1475, 723, 346, 121, 106, 92, 79, 67, 56, 46, 37, 29, 22, 16, 11,
        7, 4, 2, 1, 1, 0, 0, 0],
    4: [27244624, 7961078, 2338632, 732602, 248717, 91441, 37967, 16994,
        7693, 3507, 1594, 576, 470, 378, 299, 232, 176, 130, 93, 64, 42,
        26, 15, 8, 4, 2, 1, 1, 0, 0, 0, 0],
    5: [20423789, 7521441, 2677376, 964483, 360542, 144460, 61139, 26459,
        11658, 5169, 1941, 1471, 1093, 794, 562, 386, 256, 163, 99, 57,
        31, 16, 8, 4, 2, 1, 1, 0, 0, 0, 0, 0],
    6: [12789981, 5378726, 2178190, 874907, 358717, 151429, 65165, 28543,
        12605, 4944, 3473, 2380, 1586, 1024, 638, 382, 219, 120, 63, 32,
        16, 8, 4, 2, 1, 1, 0, 0, 0, 0, 0, 0],
    7: [7270699, 3301575, 1454694, 633310, 276593, 121726, 54118, 24188,
        9949, 6476, 4096, 2510, 1486, 848, 466, 247, 127, 64, 32, 16, 8,
        4, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0],
}
# fmt: on


def test_full_class_matrix_n32():
    if not os.environ.get("PREFIXNORMAL_EXTENDED") and _kernel.load() is None:
        pytest.skip("no counting kernel; set PREFIXNORMAL_EXTENDED=1 to run "
                    "the full n=32 matrix on the Python walk")
    table = critset_table(32, 7, 32)
    mismatches = [
        (s, t, FULL_MATRIX_N32[s][t - 1], table.cells[s, t])
        for s in range(1, 8)
        for t in range(1, 33)
        if table.cells[s, t] != FULL_MATRIX_N32[s][t - 1]
    ]
    print(f"ACCEPT {'PASS' if not mismatches else 'FAIL'} [extended] "
          f"all 224 class sizes at n=32")
    assert not mismatches, mismatches
