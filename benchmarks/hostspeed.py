"""Host speed reference for the cacodes benchmark.

The benchmark runs on shared virtual machines whose speed is not constant.
On the 2-vCPU VM where it was defined, a fixed pure-Python loop flips
between two speeds, about 1.75x apart, in spells of milliseconds to
seconds, and the share of time spent in the slow state drifts over minutes;
run-to-run spreads of raw op times reached 30-40%.

So a fixed pure-Python computation, independent of ``cacodes``, is timed
after every op; its mean time over a run, divided by ``NOMINAL_S``, is the
run's host slowdown.  Timing metrics are divided by that slowdown, so they
read as times on a host of nominal speed.  The mean, not the median, is
used: op times grow linearly with the share of time the host spends slow,
and so does the mean of the reference, while the median of a two-state
sample jumps between the states.  A change to the program moves the
corrected metrics as much as the raw times, because the reference runs
none of the program's code.
"""

from __future__ import annotations

import statistics
import time

# The unit of the corrected timings: one ``reference()`` call takes this long
# on average on a host of nominal speed.  3.5 ms is the call's slower state
# on the VM described above (Python 3.11.7); only the ratio to it matters.
NOMINAL_S = 0.0035


def _eliminate_once(p: int = 7, n: int = 16) -> int:
    """Row-reduce a fixed n x n matrix over GF(p) by table lookups, then hash rows."""
    mul = [[(a * b) % p for b in range(p)] for a in range(p)]
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    rows = [[(i * 3 + j * 5 + 1) % p for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [mul[inv][x] for x in rows[rank]]
        for i in range(n):
            f = rows[i][c]
            if i != rank and f:
                neg = (p - f) % p
                rows[i] = [add[x][mul[neg][y]] for x, y in zip(rows[i], rows[rank])]
        rank += 1
    seen: dict[tuple, int] = {}
    for i in range(400):
        key = (*rows[i % n][:4], i % 5)
        seen[key] = seen.get(key, 0) + 1
    return rank * 1000 + len(seen)


def reference() -> int:
    """The fixed computation: a few milliseconds of interpreter work."""
    return sum(_eliminate_once() for _ in range(8))


def timed_reference() -> float:
    """Wall seconds of one ``reference()`` call."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def slowdown(reference_times) -> float:
    """Host slowdown over nominal speed: mean reference time / ``NOMINAL_S``."""
    return statistics.fmean(reference_times) / NOMINAL_S
