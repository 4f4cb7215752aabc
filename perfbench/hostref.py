"""A fixed reference loop that gauges how fast the host runs right now.

On a 2-vCPU VM of a shared Xeon host, the speed of the same
single-threaded code shifts by up to about 2.4x over seconds to minutes.
The process's CPU time moves with its wall time, so the slowdown is
contention for the cores' shared resources, not descheduling, and no
clock excludes it.  Whole runs land in fast or slow phases, and a run's
median epoch time tells more about the phase than about the program.

So the benchmark times this loop between every two epochs and reports,
beside the plain wall times, *adjusted* times: each epoch's wall time
scaled by ``(REFERENCE_S / t) ** SENSITIVITY``, where ``t`` is the loop's
time around that epoch.  An adjusted time reads as the epoch would take
on a host where the loop takes ``REFERENCE_S``.  The loop is the
benchmark's own code and uses nothing of the program, so a faster
program shortens adjusted times as much as wall times.  It allocates one
small dict and nothing else the garbage collector tracks, so the
program's collections do not land inside it.
"""

from __future__ import annotations

import hmac
import random
import time
from typing import Dict, List, Sequence

_clock = time.perf_counter

#: The loop's time, in seconds, that adjusted times are scaled to.  It
#: is a fixed constant, near the loop's time on an uncontended 2-vCPU
#: Xeon VM under CPython 3.11.
REFERENCE_S = 0.005

#: How closely epoch times follow the loop: across host phases an epoch's
#: wall time grows about as the loop's time to this power.  Ten runs per
#: workload, with the loop's time between 4 and 10 ms, were steadiest at
#: 0.7; at 1 the adjustment over-corrected, and runs in fast phases
#: read slowest.
SENSITIVITY = 0.7

#: Timings of the loop per measurement; the median is kept.
REPEATS = 3

_KEY = bytes(range(32))

#: Entries of the lookup table, about 14 MB: several times a core's
#: private caches, so lookups wait on memory as the program's do.
TABLE_ENTRIES = 100_000
LOOKUPS = 8000

_table: Dict[str, int] = {}
_probes: List[str] = []


def _fill_table() -> None:
    rng = random.Random(0)
    _table.update((f"k{i:07d}", i) for i in range(TABLE_ENTRIES))
    # New string objects, so that each lookup compares against the
    # table's own key string, wherever that lies in memory.
    _probes.extend(f"k{rng.randrange(TABLE_ENTRIES):07d}" for __ in range(LOOKUPS))


def _reference_loop() -> int:
    """Interpreter-bound hashing, then random lookups in a large table.

    The two kinds of work the program's epochs do: bytecode with HMAC
    calls, and dict lookups that miss the caches.
    """
    counts = {}
    acc = 0
    for i in range(6000):
        slot = i % 251
        counts[slot] = counts.get(slot, 0) + 1
        if i % 8 == 0:
            acc ^= hmac.digest(_KEY, i.to_bytes(4, "big"), "sha256")[0]
    table = _table
    for key in _probes:
        acc += table[key]
    return acc + len(counts)


def time_reference() -> float:
    """Median seconds of ``REPEATS`` timings of the reference loop."""
    if not _table:
        _fill_table()
    times = []
    for __ in range(REPEATS):
        start = _clock()
        _reference_loop()
        times.append(_clock() - start)
    times.sort()
    return times[len(times) // 2]


def adjust_scales(reference_s: Sequence[float]) -> List[float]:
    """Per-epoch scale factors from the loop's times around the epochs.

    ``reference_s`` holds one timing before the first epoch and one after
    each; epoch ``i`` lies between timings ``i`` and ``i + 1`` and is
    scaled by ``REFERENCE_S`` over their mean, to the power
    ``SENSITIVITY``.
    """
    return [
        (REFERENCE_S / ((before + after) / 2.0)) ** SENSITIVITY
        for before, after in zip(reference_s, reference_s[1:])
    ]
