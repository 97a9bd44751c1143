"""Ordered parallel map."""
from __future__ import annotations

import os
from functools import partial

from ggs import commutator, order, tree_shape
from ggs.generators import make_a
from ggs.parallel import _usable_cpus, pmap, pool_size


def _square(x: int) -> int:
    return x * x


def test_pmap_sequential_matches_map():
    data = list(range(40))
    assert pmap(_square, data, workers=1) == [x * x for x in data]


def test_pmap_parallel_preserves_order():
    data = list(range(200))
    assert pmap(_square, data, workers=3) == [x * x for x in data]


def test_pmap_short_input():
    assert pmap(_square, [3], workers=4) == [9]
    assert pmap(_square, [], workers=4) == []


def test_pmap_accepts_iterators():
    assert pmap(_square, iter(range(10)), workers=2) == [x * x for x in range(10)]


def test_pmap_with_portraits():
    sh = tree_shape(3, 2)
    a = make_a(sh)
    xs = [a**k for k in range(12)]
    assert pmap(order, xs, workers=2) == [order(x) for x in xs]
    fn = partial(commutator, a)
    assert pmap(fn, xs, workers=2) == [commutator(a, x) for x in xs]


def test_pool_size_clamps_to_cpus():
    assert pool_size(1, 8) == 1
    assert pool_size(4, 8) == 4
    assert pool_size(10_000, 8) == 8
    assert pool_size(3, None) == 1
    assert pool_size(0, 8) == 1
    assert 1 <= _usable_cpus() <= os.cpu_count()
