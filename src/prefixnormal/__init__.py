"""Prefix normal binary words: testing (`words`), generation (`generate`),
critical-prefix classes (`critstats`) and infinite extensions (`infinite`)."""

from .critstats import (
    CountsTable,
    Histogram,
    critical_prefix_histogram,
    critset,
    critset_count,
    critset_table,
)
from .generate import (
    OpCounter,
    Order,
    count_pn,
    generate_all,
    generate_pn,
    iter_all,
    iter_pn,
)
from .infinite import (
    DensityProfile,
    ExtensionReport,
    ScanCapExceeded,
    density_profile,
    detect_period,
    extend_min,
    extend_stream,
    stream_prefix,
)
from .ops import bubble, flip, min_flip
from .words import (
    DEFAULT_GEN_CAP,
    DEFAULT_ORACLE_CAP,
    CritPrefix,
    check_word,
    critical_prefix,
    hamming,
    is_prefix_normal,
    oracle_enumerate,
    prefix_counts,
)

__version__ = "0.1.0"
