"""Times scaled to a reference speed of the host.

The benchmark's host is a share of a busy machine, and how much of that
machine it gets changes from second to second and from minute to minute:
the same round of operations took 5.6 s in one process and 3.2 s in the
next.  So every timed piece of work is bracketed by a fixed piece of
interpreter work, the *gauge*, timed just before and just after it.  The
work's time is scaled by ``REFERENCE_S`` over the mean of the two gauge
times: it reads as the seconds the work would take on a host where the
gauge takes ``REFERENCE_S``.  A change that makes the program faster lowers
the scaled time as much as the raw one, since the gauge is the benchmark's
own code and never calls the program.

The gauge builds a small dict keyed by tuples of strings and integers, with
frozenset values, and walks it: the kind of work the program does.  A tight
arithmetic loop tracked the host's speed worse, because the busy spells
slow dict- and allocation-heavy code more than arithmetic.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Near the gauge's time in quiet periods on the host of the reference
# figures (2.3 ms; see README.md).
REFERENCE_S = 0.0025
# Four small tables rather than one large one, so that the gauge adds less
# than a megabyte to the benchmark process's peak memory.
GAUGE_ENTRIES = 1500
GAUGE_TABLES = 4


def gauge() -> float:
    """Seconds the gauge takes now, with the collector off.

    With the collector on, a full collection could fall inside the gauge and
    walk the program's heap, so the gauge would measure the heap's size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        hits = 0
        for _ in range(GAUGE_TABLES):
            table = {}
            for i in range(GAUGE_ENTRIES):
                table[(str(i & 63), i)] = frozenset((i & 7, i & 3))
            hits += sum(1 for (_, i), v in table.items() if i & 7 in v)
            del table
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if hits != GAUGE_ENTRIES * GAUGE_TABLES:  # i & 7 is in every value
        raise AssertionError(f"gauge counted {hits}")
    return elapsed


class Scaled:
    """Times a sequence of pieces of work, each between two gauges.

    Consecutive pieces share the gauge between them.
    """

    def __init__(self) -> None:
        self.last = gauge()

    def time(self, thunk) -> tuple:
        """(output or the exception raised, raw seconds, scaled seconds)."""
        before = self.last
        start = perf_counter()
        try:
            out = thunk()
        except Exception as err:  # judged by the workload's check
            out = err
        raw = perf_counter() - start
        self.last = gauge()
        return out, raw, raw * REFERENCE_S * 2 / (before + self.last)
