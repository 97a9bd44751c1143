"""Ordered parallel map for scans over immutable portrait data.

Results are returned in input order, so any reduction over them is
independent of the worker count; certificates built from pmap output are
byte-identical for 1 and N workers.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["pmap", "pool_size"]


def pool_size(workers: int, cpus: int | None) -> int:
    """Worker processes to start: the request clamped to 1..cpus."""
    return max(1, min(workers, cpus or 1))


def _usable_cpus() -> int | None:
    """CPUs this process may run on, which can be fewer than the host has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count()


def pmap(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    """Map fn over items, preserving order; fork a pool when workers > 1.

    The pool never has more processes than this process has CPUs.
    """
    data: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    if workers > 1:
        workers = pool_size(workers, _usable_cpus())
    if workers <= 1 or len(data) < 4:
        return [fn(x) for x in data]
    # Imported here: the pool machinery (multiprocessing and its helpers)
    # would otherwise load with the package, on every start-up and
    # single-worker run.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(data) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, data, chunksize=chunk))
