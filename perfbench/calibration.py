"""Host speed, measured beside every operation.

The 2-core host this benchmark was defined on (Intel Xeon, shared) switches
between speed states about 1.5x apart for seconds to minutes at a time; CPU
time shows the same slowdown, so it is not steal.  Raw medians of 20 s runs
spread by 10-37% from run to run, which no amount of work per run removes.

So a fixed pure-Python loop with emclab's instruction mix (Fraction row
updates as in the simplex, bitmask filters and set building as in the
kernel and the hypergraph layer) is timed before and after each operation,
and each operation's time is reported scaled by REFERENCE_S / (mean of the
two loop times): seconds at the host's fast state.  The loop is the
benchmark's own code, so no change to emclab can move it.  Raw times are
kept in the run's detail line.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0050   # the loop's time in the host's fast state

_MASKS = [(1 << (i % 40)) | (1 << (i * 7 % 40)) | (1 << (i * 13 % 40)) for i in range(3000)]


def loop_seconds() -> float:
    """Time one run of the reference loop."""
    t0 = perf_counter()
    row = [Fraction(i, i + 3) for i in range(1, 60)]
    for r in range(12):
        f = Fraction(r + 2, 7)
        row = [a - f * b for a, b in zip(row, reversed(row))]
    acc = 0
    for _ in range(6):
        acc |= sum(1 for m in _MASKS if not m & acc)
        acc ^= len({m for m in _MASKS if m & 0xFFFF})
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to reference seconds for work done between
    two loop timings."""
    return REFERENCE_S / ((before + after) / 2)
