"""The five result records are named tuples: built by keyword or by
position, read by attribute, printed as they were when they were frozen
dataclasses, immutable, and changed only into a copy with _replace."""

from fractions import Fraction

import pytest

from prefixnormal import (
    CountsTable,
    CritPrefix,
    DensityProfile,
    ExtensionReport,
    Histogram,
    critical_prefix,
    critical_prefix_histogram,
    critset_table,
    density_profile,
    detect_period,
)

CHECKS = {"length_ok": True, "weight_ok": True, "bound_ok": True, "aligned_pn_ok": True}
# Each record with its fields in order, its repr, a field to replace with a
# new value, and the same record as the library returns it.
RECORDS = [
    (CritPrefix, {"s": 2, "t": 3}, "CritPrefix(s=2, t=3)", ("t", 0),
     lambda: critical_prefix("110001")),
    (DensityProfile, {"density": Fraction(2, 3), "length": 3, "ones": 2},
     "DensityProfile(density=Fraction(2, 3), length=3, ones=2)", ("ones", 1),
     lambda: density_profile("1101")),
    (CountsTable,
     {"n": 3, "s_values": (1,), "t_values": (0, 1), "cells": {(1, 0): 0, (1, 1): 1}},
     "CountsTable(n=3, s_values=(1,), t_values=(0, 1), cells={(1, 0): 0, (1, 1): 1})",
     ("n", 4), lambda: critset_table(3, 1, 1)),
    (Histogram, {"n": 3, "bins": {3: 4, 2: 1}, "total": 5},
     "Histogram(n=3, bins={3: 4, 2: 1}, total=5)", ("total", 6),
     lambda: critical_prefix_histogram(3)),
    (ExtensionReport,
     {"seed": "1101", "density": Fraction(2, 3), "block_len": 3, "block_ones": 2,
      "preperiod": "1", "period": "101", "m_blocks": 2, "preperiod_bound": 12,
      "scanned_length": 7, "checks": CHECKS},
     "ExtensionReport(seed='1101', density=Fraction(2, 3), block_len=3, block_ones=2,"
     " preperiod='1', period='101', m_blocks=2, preperiod_bound=12, scanned_length=7,"
     " checks={'length_ok': True, 'weight_ok': True, 'bound_ok': True,"
     " 'aligned_pn_ok': True})",
     ("scanned_length", 0), lambda: detect_period("1101")),
]


@pytest.mark.parametrize("record, fields, text, change, made", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record(record, fields, text, change, made):
    r = record(**fields)
    assert record._fields == tuple(fields)
    assert all(getattr(r, name) == value for name, value in fields.items())
    assert repr(r) == repr(made()) == text
    assert r == made() == record(*fields.values())
    name, value = change
    other = r._replace(**{name: value})
    assert other != r and other == record(**{**fields, name: value})
    assert getattr(r, name) == fields[name]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, field, value)
    # Named tuples unpack and equal the plain tuple of their fields.
    assert r == tuple(fields.values()) and [*r] == [*fields.values()]


def test_crit_prefix_length_and_hash():
    cp = CritPrefix(s=2, t=3)
    assert cp.length == 5 and CritPrefix(4, 0).length == 4
    # The hash of its fields, as the frozen dataclass had.
    assert hash(cp) == hash(CritPrefix(2, 3)) == hash((2, 3))
    assert {cp: "x"}[critical_prefix("110001")] == "x"
    assert cp != CritPrefix(3, 2)
