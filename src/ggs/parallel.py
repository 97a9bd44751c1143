"""Ordered map used by the scans over group elements.

Every scan runs in this process; pmap is the one named place where a scan
maps a function over its items, so a tracer can time it.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["pmap"]


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """fn over items, as a list in input order."""
    return list(map(fn, items))
