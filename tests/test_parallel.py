"""Ordered map."""
from __future__ import annotations

from ggs.parallel import pmap


def _square(x: int) -> int:
    return x * x


def test_pmap_sequential_matches_map():
    data = list(range(40))
    assert pmap(_square, data) == [x * x for x in data]


def test_pmap_accepts_iterators():
    assert pmap(_square, iter(range(10))) == [x * x for x in range(10)]
