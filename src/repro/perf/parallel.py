"""Process-pool fan-out for the experiment sweeps.

:func:`parallel_map` backs ``--workers N`` on figures/headlines/validate.
It falls back to a plain loop for ``workers <= 1``; callables must be
module-level picklables.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List


def parallel_map(fn: Callable, items: Iterable, workers: int = 0) -> List:
    """``[fn(x) for x in items]``, optionally over a process pool.

    ``workers <= 1`` (or a single item) runs inline.  ``fn`` and every
    item must be picklable (module-level functions / ``functools.partial``
    of them).  Results come back in input order, and because every sweep
    point carries its own explicit seed/parameters, parallel results are
    identical to serial ones.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    max_workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        chunksize = max(1, len(items) // (max_workers * 4))
        return list(pool.map(fn, items, chunksize=chunksize))


def available_cpus() -> int:
    """Best-effort *usable* CPU count (1 when undetectable).

    Prefers the scheduler affinity mask over ``os.cpu_count()`` so
    container CPU limits are respected.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1
