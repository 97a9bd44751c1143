"""Microbenchmark of the portrait product kernel `Portrait.__mul__`.

Each shape gets seeded random portrait pairs.  Every product the timing
loop makes is checked against `reference_product`, which composes the two
automorphisms by walking vertices letter by letter and reads the labels of
the composite back off its action; it shares no code with the package.

The left operands are fresh objects in every timed round, so each product
includes the vertex permutation the kernel computes for its left operand,
as it does for a newly made element.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

SHAPES = (("p5n2", 5, 2), ("p7n2", 7, 2), ("p3n3", 3, 3), ("p3n5", 3, 5))
PAIRS = 200
ROUNDS = 15


def _index(p: int, word: tuple[int, ...]) -> int:
    """Breadth-first index of an internal vertex given by letters 0..p-1."""
    start, width = 0, 1
    for _ in word:
        start += width
        width *= p
    offset = 0
    for x in word:
        offset = offset * p + x
    return start + offset


def _image(labels: bytes, p: int, word: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for k, x in enumerate(word):
        out.append((x + labels[_index(p, word[:k])]) % p)
    return tuple(out)


def reference_product(f: bytes, g: bytes, p: int, n: int) -> bytes:
    """Labels of f-then-g: the composite rotates the subtree at u by the
    last letter of the image of u·0."""
    out = bytearray(len(f))
    words = [()]
    for _ in range(n):
        for u in words:
            out[_index(p, u)] = _image(g, p, _image(f, p, u + (0,)))[-1]
        words = [u + (x,) for u in words for x in range(p)]
    return bytes(out)


def run(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median microseconds per product for each shape, and the shapes whose
    products differed from the reference."""
    from ggs import Portrait, tree_shape

    rng = random.Random(seed)
    medians: dict[str, float] = {}
    failed = []
    for name, p, n in SHAPES:
        shape = tree_shape(p, n)
        size = shape.internal_count
        pairs = [
            (bytes(rng.randrange(p) for _ in range(size)), bytes(rng.randrange(p) for _ in range(size)))
            for _ in range(PAIRS)
        ]
        expected = [reference_product(f, g, p, n) for f, g in pairs]
        right = [Portrait(shape, g) for _, g in pairs]
        per_product = []
        ok = True
        for _ in range(ROUNDS):
            left = [Portrait(shape, f) for f, _ in pairs]
            start = perf_counter()
            products = [x * y for x, y in zip(left, right)]
            per_product.append((perf_counter() - start) / PAIRS * 1e6)
            ok &= [z.labels for z in products] == expected
        if not ok:
            failed.append(name)
        medians[name] = statistics.median(per_product)
    return medians, failed
