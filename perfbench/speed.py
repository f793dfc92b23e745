"""How fast this machine runs Python right now, from a fixed reference job.

On a shared host the speed of one core drifts by up to about 1.8x in
phases lasting seconds to minutes, as other tenants come and go, and a
wall-clock rate measured in one phase cannot be compared with one
measured in another. The benchmark therefore runs a small reference job
just before and just after every op and every set-up, and expresses each
op's time in reference seconds: its wall time scaled by how much slower or
faster the reference job ran around it than its nominal time. The job is
part of the benchmark, not of the program, so a change to the program
moves reference seconds exactly as it moves wall seconds at a steady
machine speed.

The job is a backtracking search over sets and recursion, the same kind
of interpreter work as the program's own search. Nothing here can see
the program.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# Typical wall time of one `_queens(8)` on a shared 2-core 2.0 GHz Xeon
# under CPython 3. Only sets the scale of reference seconds: the
# same constant on both sides of a comparison cancels out.
NOMINAL_SECONDS = 0.0045
REPEATS = 9


def _queens(n: int) -> int:
    cols: set[int] = set()
    up: set[int] = set()
    down: set[int] = set()

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for col in range(n):
            if col in cols or row + col in up or row - col in down:
                continue
            cols.add(col)
            up.add(row + col)
            down.add(row - col)
            found += place(row + 1)
            cols.discard(col)
            up.discard(row + col)
            down.discard(row - col)
        return found

    return place(0)


def reference() -> float:
    """Seconds the reference job takes now: the median of REPEATS runs, with
    the cyclic collector held off so it cannot land in one of them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            if _queens(8) != 92:
                raise AssertionError("reference job gave a wrong answer")
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning wall seconds into reference seconds for work that ran
    between two reference measurements."""
    return NOMINAL_SECONDS / math.sqrt(before * after)
