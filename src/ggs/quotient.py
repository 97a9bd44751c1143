"""Finite quotients of a GGS group acting on the truncated tree.

The level-n quotient is the image of the group in the automorphisms of the
depth-n tree.  It splits as G_n = <a> x| H with H = st(1)/st(n).  The last
layer L = (st(n-1) & st(1))/st(n) is an F_p-space: left multiplication by
its elements only adds labels at depth n-1.  So the enumeration
(_walk_queue) walks H modulo st(n-1), spans L from the Schreier generators,
and writes each label column of G as joins of L's column shifted by the
representatives' labels, with no product and no sum.
Exponent-sum coordinates are carried along; for n >= 2 they map G onto
G/G' = C_p x C_p, so the derived subgroup, the p + 1 maximal subgroups and
generation are all read off them (lines()), and the Frattini subgroup G'G^p
equals G'.

The walk stores columns, not objects: one label column per internal vertex
(`cols`, a byte per element), one buffer of vertex permutations, m bytes
per power class, and the coordinate columns.  Each translate of L is a
power class: a run of class_size elements with one permutation, since
labels at depth n-1 move no internal vertex, and so one slice of every
column.  Under l_fg(u) = l_f(u) + l_g(pi_f(u)) every product and conjugate
of a class's members is their columns read at moved vertices plus one
constant row.  The scans over every element (orders, powers, socles,
conjugation tables, class members) read these columns, and an identity
that is affine on each class is decided on an affine basis of it
(affine_suspects), with one call of the p-power kernel (p_power_chains)
on the bases of every class.  Enumeration indices are computed, not
looked up: _locator reads a key's index off its top and its coordinates
in L, and _class_images the indices of every image of a class under a
product or conjugation, for the subgroup walks, the conjugation tables
and the signature table.  The label keys (one bytes object per element)
are split from a transient row buffer on first read, and the interned
Portrait elements built on the first read of `elements`, or one at a
time through `element`.  The order formula and the element budget it
guards live in generators.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import cached_property, lru_cache, partial, reduce as fold, wraps
from itertools import accumulate, chain, compress, count, cycle, repeat
from operator import add, attrgetter, getitem, mul, or_
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, cast

from .generators import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DefiningVector,
    _echelon_mod_p,
    _exceeds,
    _guard_exponent,
    exceeds_budget,
    written_order,
)
from . import metrics
from .parallel import pmap
from .portrait import Portrait, TreeShape, commutator, make_a, make_b, tree_shape

__all__ = [
    "SubgroupHandle",
    "QuotientGroup",
    "coordinate_line",
    "enumerate_quotient",
    "p_power_chains",
    "orders",
    "orders_and_tops",
    "socles",
    "map_power_classes",
    "affine_suspects",
    "failures",
]

# The row kernels hold vertex indices in bytes and move them with translate
# tables, so enumeration is limited to trees with at most this many internal
# vertices.  No quotient past it is enumerable anyway: the order
# p^(t*p^(n-2)+1-delta*(p^(n-2)-1)/(p-1)) with t >= 2 is at least 17^34 on
# every such tree.
MAX_BATCH_VERTICES = 256

R = TypeVar("R")
F = TypeVar("F", bound=Callable)


def coordinate_line(a: int, b: int, p: int) -> int:
    """Number of the line of F_p^2 = G/G' through the coordinates (a, b).

    Line 0 is <a>G', line 1 is <b>G' and line 1 + i is <ab^i>G' for
    i = 1..p-1; (0, 0) lies on every line and gets p + 1.
    """
    a, b = a % p, b % p
    if not a:
        return 1 if b else p + 1
    return 1 + b * pow(a, -1, p) % p if b else 0


def stage(fn: F) -> F:
    """Memoise a derived table of a group: fn(group) runs once per group,
    stored in the group's own dict under the stage name.  Stored results
    must not refer to the group, so that it is freed as soon as it is
    dropped.
    """
    name = fn.__qualname__

    @wraps(fn)
    def memo(group):
        store = group._stages
        if name not in store:
            store[name] = fn(group)
        return store[name]

    return cast(F, memo)


class SubgroupHandle:
    """A subgroup of an enumerated quotient: its members and their keys."""

    def __init__(self, elements: tuple[Portrait, ...]):
        self.elements = elements  # distinct, so len() counts them

    @cached_property
    def keys(self) -> frozenset[bytes]:
        """The label keys of the members, built on first read."""
        return frozenset(map(attrgetter("labels"), self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Portrait]:
        return iter(self.elements)

    def __contains__(self, x: Portrait | bytes) -> bool:
        key = x.labels if isinstance(x, Portrait) else x
        return key in self.keys


# A group map on a power class: from the class's vertex permutation, the
# sources and the row for which label u of each image is label sources[u]
# of the member plus row[u] mod p (see _class_images).
ClassMap = Callable[[bytes], tuple[Sequence[int], bytes]]


def _walk(group: "QuotientGroup", steps: list[ClassMap]) -> list[int]:
    """Enumeration indices of the elements reachable from 1 under the step
    maps, in discovery order, 1 first.

    The first time the breadth-first walk reaches a power class, every step
    maps the whole class with one _class_images each, and the images'
    indices are kept; new elements join element-major, step-minor, as a
    walk taking one element and one step at a time finds them.
    """
    size = group.class_size
    kernels = [_class_images(group, step) for step in steps]
    tables: dict[int, list[memoryview]] = {}  # class start -> images of its members, by step
    found, seen = [0], bytearray(len(group))
    seen[0] = 1
    for i in found:  # grows while it is read: breadth-first order
        start = i - i % size
        images = tables.get(start)
        if images is None:
            images = tables[start] = [memoryview(kernel(start)).cast("I") for kernel in kernels]
        for image in images:
            j = image[i - start]
            if not seen[j]:
                seen[j] = 1
                found.append(j)
    return found


# Indices are summed as one integer of array('I') slots in the machine's
# byte order, which add slot by slot while none overflows.
_SLOT = array("I").itemsize
_LOW = 0 if sys.byteorder == "little" else _SLOT - 1  # the byte of a slot below 256


def _slots(column: bytes) -> int:
    """The bytes of column as one integer, one array('I') slot each."""
    spread = bytearray(len(column) * _SLOT)
    spread[_LOW::_SLOT] = column
    return int.from_bytes(spread, sys.byteorder)


def _class_images(group: "QuotientGroup", step: ClassMap) -> Callable[[int], bytes]:
    """The map from the start of a power class to the enumeration indices
    of its members' images under step, in order, as array('I') bytes.

    A class is a coset L*s of the last layer, and step (x -> x*g, g*x or
    x^c) takes u*s to M(u)*s' with M linear on L and the same for every
    class, so the digits of the images' offsets in L (_locator) are affine
    in u.  The first class a step maps is mapped whole and checked (each
    column above depth n-1 constant, each image less the first in L), and
    every class adds those digits to its first image's, from _position.
    """
    p, shape, size = group.vector.p, group.shape, group.class_size
    cut, shifts = shape.level_starts[shape.n - 1], _add_tables(p)
    chunk = max(k for k in range(1, 9) if p**k <= 256)  # digits summed within a byte
    ones = _slots(b"\1" * size)
    first: list[bytes] = []  # the digit columns of the first class's images, less the first

    def images(start: int) -> bytes:
        sources, row = step(group._perm_row(start))
        key = group._key(start)
        head = bytes(map(add, map(key.__getitem__, sources), row)).translate(shape.reduce)
        i = group._position(head)  # the image of the class's first member
        base, offset = divmod(i, size)
        if size > 1 and not first:  # each image less the first: its columns less their first entry
            columns = [group.cols[v][start : start + size] for v in sources]
            if any(column.count(column[0]) < size for column in columns[:cut]):
                raise ValueError("a step split a power class")
            layer = [column.translate(shifts[-column[0] % p]) for column in columns[cut:]]
            solved = _eliminate(layer, group._pivots, shape)
            if any(map(any, solved[len(group._pivots) :])):
                raise ValueError("a step left the quotient")
            first.extend(solved[: len(group._pivots)])
        shifted = [
            int.from_bytes(column.translate(shifts[offset // p**k % p]), "little")
            for k, column in enumerate(first)
        ]
        total = base * size * ones
        for k in range(0, len(shifted), chunk):
            part = sum(d * p**j for j, d in enumerate(shifted[k : k + chunk]))
            total += _slots(part.to_bytes(size, "little")) * p**k
        return total.to_bytes(size * _SLOT, sys.byteorder)

    return images


def _reduced(v: int, width: int, reduce: bytes) -> bytes:
    """The width bytes of v, little-endian, each reduced by the table."""
    return v.to_bytes(width, "little").translate(reduce)


def _eliminate(
    layer: list[bytes], pivots: Sequence[tuple[int, bytes]], shape: TreeShape
) -> list[bytes]:
    """The coordinates in L's basis (pivots and negated rows, as
    QuotientGroup._pivots) of the vectors whose depth-(n-1) label columns
    are given, one digit column per basis vector, then what is left of the
    non-pivot columns: all zero exactly for the vectors in L.  The basis is
    not reduced, so the columns are eliminated pivot by pivot, as
    big-integer sums of byte columns reduced before a byte can pass 255."""
    p, reduce, width = shape.p, shape.reduce, len(layer[0])
    room, times = 255 // (p - 1) - 1, _mul_tables(p)  # pivots between two reductions
    ints, digits = [int.from_bytes(column, "little") for column in layer], []
    for k, (c, row) in enumerate(pivots):
        if k and not k % room:  # each byte a sum of at most room + 1 reduced terms
            ints = [int.from_bytes(_reduced(v, width, reduce), "little") for v in ints]
        d = _reduced(ints[c], width, reduce)
        digits.append(d)
        for j in range(c + 1, len(row)):
            if row[j]:
                ints[j] += int.from_bytes(d.translate(times[row[j]]), "little")
    pivot_columns = {c for c, _ in pivots}
    rest = (ints[j] for j in range(len(layer)) if j not in pivot_columns)
    return digits + [_reduced(v, width, reduce) for v in rest]


def _times(g: Portrait) -> ClassMap:
    """x -> x*g: label u is l_x(u) + l_g(pi(u)), pi the class's permutation,
    so the sources are the vertices themselves and the row is l_g o pi."""
    by_label = _vertex_table(g.labels)
    return lambda perm: (range(len(perm)), perm.translate(by_label))


def _conjugation(c: Portrait) -> ClassMap:
    """x -> x^c = c^-1 * x * c: with ci = c^-1 and v = pi_ci(u), label u is
    l_ci(u) + l_x(v) + l_c(pi(v)), pi the class's permutation, so the
    sources are pi_ci and the row is l_ci + l_c o pi o pi_ci mod p."""
    ci = c.inverse()
    sources, by_label, reduce = bytes(ci.vertex_perm()), _vertex_table(c.labels), c.shape.reduce

    def moved(perm: bytes) -> tuple[bytes, bytes]:
        lifted = sources.translate(_vertex_table(perm)).translate(by_label)
        return sources, bytes(map(add, ci.labels, lifted)).translate(reduce)

    return moved


def _distinct(xs: Iterable[Portrait]) -> list[Portrait]:
    """The non-identity elements of xs, each once, in first-seen order."""
    return list({x.labels: x for x in xs if not x.is_identity()}.values())


# -- row and column kernels --------------------------------------------------------
#
# A run of elements is held as concatenated label rows or as byte columns,
# one per internal vertex: column k holds the label at vertex k of every
# element.  Labels are below p <= 127, so two label columns read as
# little-endian integers add without any byte carrying into the next.


def _columns(rows: bytes, m: int) -> list[bytes]:
    """The m columns of concatenated rows of length m."""
    return [rows[k::m] for k in range(m)]


def _rows(columns: Sequence[bytes], width: int) -> bytearray:
    """The concatenated rows of columns of the given width; inverts _columns."""
    m = len(columns)
    out = bytearray(width * m)
    for k, column in enumerate(columns):
        out[k::m] = column
    return out


@lru_cache(maxsize=None)
def _row_block(m: int) -> Struct:
    """Unpacker of 64 rows of length m.  A fixed block keeps struct's
    cache of compiled formats small: one format per batch size would fill
    it with formats tens of kilobytes long."""
    return Struct(f"{m}s" * 64)


def _split(rows: bytes, m: int) -> Iterator[bytes]:
    """Concatenated rows of length m, one bytes object each, made as they
    are read."""
    block = _row_block(m)
    full = len(rows) - len(rows) % block.size
    tail = bytes(rows[full:])
    return chain(
        chain.from_iterable(block.iter_unpack(memoryview(rows)[:full])),
        (tail[i : i + m] for i in range(0, len(tail), m)),
    )


def _vertex_table(values: Sequence[int]) -> bytes:
    """Translate table taking vertex index v to values[v]."""
    return bytes(values).ljust(256, b"\0")


@lru_cache(maxsize=None)
def _add_tables(p: int) -> tuple[bytes, ...]:
    """Translate tables taking every byte b to (b + s) mod p, for s < p."""
    return tuple(bytes((b + s) % p for b in range(256)) for s in range(p))


@lru_cache(maxsize=None)
def _mul_tables(p: int) -> tuple[bytes, ...]:
    """Translate tables taking every byte b < p to b * s mod p, for s < p."""
    return tuple(bytes(b * s % p for b in range(256)) for s in range(p))


# Byte j of a column OR becomes 1 when element j has a nonzero label.
_NONZERO = bytes([0]) + bytes([1]) * 255

# A run of a batch: its vertex permutation and how many consecutive rows
# share it.
Run = tuple[Sequence[int], int]


def _slot_ints(columns: bytes, cuts: Sequence[slice]) -> list[int]:
    """The slots of concatenated columns, each read as one integer."""
    return list(map(int.from_bytes, map(columns.__getitem__, cuts), repeat("little")))


def _slot_bytes(ints: Iterable[int], widths: Iterable[int], reduce: bytes) -> bytes:
    """The slots written back as concatenated columns, each byte mod p."""
    return b"".join(map(int.to_bytes, ints, widths, repeat("little"))).translate(reduce)


def p_power_chains(
    shape: TreeShape, columns: Sequence[bytes], runs: Sequence[Run]
) -> tuple[bytes, list[bytes]]:
    """The p-power chains x, x^p, ..., x^(p^(n-1)) of a batch of elements
    given as runs: consecutive members that share their labels above the
    last level, and so one vertex permutation.  columns holds their labels,
    one column per internal vertex (a byte per member), and runs lists each
    run's (permutation, member count).

    Returns the order exponents (the order of member j is p^exps[j]) and,
    for i = 0..n-1, the labels of every x^(p^i) as concatenated columns,
    a byte per member each, so that the labels of member j are
    level[j::len(exps)]: a caller gathers only the rows it reads.
    With x^(j+1) = x^j * x and pi_(x^j) = pi^j, label column k of x^p is
    the sum of the columns pi^j(k) for j < p, and every member's x^p
    shares the permutation pi^p.

    Each level is read as slots, one integer per column of each run: slot
    k*R + r is column k of run r (R runs).  The slot permutation
    sigma(k*R + r) = pi_r(k)*R + r serves every run at once, so a level's
    sums are p - 1 passes of one map(add) over the slots, the j-th read
    through sigma^j, and its labels are written back with one join and
    one translate.
    """
    p, m, reduce = shape.p, shape.internal_count, shape.reduce
    width, counts, perms = len(columns[0]), [c for _, c in runs], [perm for perm, _ in runs]
    room = 255 // (p - 1)  # terms summed before each reduction
    # Where each slot lies in the columns, and its width.
    starts = list(accumulate(counts, initial=0))[:-1]
    offsets = [k * width + s for k in range(m) for s in starts]
    cuts = list(map(slice, offsets, map(add, offsets, cycle(counts))))
    widths = counts * m
    sigma = [v * len(runs) + r for column in zip(*perms) for r, v in enumerate(column)]
    by_column = [slice(k * len(runs), (k + 1) * len(runs)) for k in range(m)]
    columns = b"".join(columns)
    exps = 0
    levels: list[bytes] = []
    for _ in range(shape.n):
        ints = _slot_ints(columns, cuts)
        live_ints = fold(partial(map, or_), map(ints.__getitem__, by_column))
        live = b"".join(map(int.to_bytes, live_ints, counts, repeat("little")))
        if not any(live):
            break
        levels.append(columns)
        exps += int.from_bytes(live.translate(_NONZERO), "little")
        total, power = ints, sigma
        held = 1  # terms in total since its last reduction
        for _ in range(p - 1):
            if held == room:
                total, held = _slot_ints(_slot_bytes(total, widths, reduce), cuts), 1
            total = list(map(add, total, map(ints.__getitem__, power)))
            power = list(map(sigma.__getitem__, power))
            held += 1
        columns, sigma = _slot_bytes(total, widths, reduce), power
    else:
        if any(columns):
            raise RuntimeError("order exceeded the exponent bound of the tree")
    levels += [shape.zero_labels * width] * (shape.n - len(levels))
    return exps.to_bytes(width, "little"), levels


# -- readers of the p-power chains: fns of map_power_classes and affine_suspects --


def _orders_of(shape: TreeShape, exps: bytes) -> list[int]:
    """The orders p^e for order exponents e."""
    return list(map([shape.p**k for k in range(shape.n + 1)].__getitem__, exps))


def orders(shape: TreeShape, columns: Sequence[bytes], runs: Sequence[Run]) -> list[int]:
    """Orders of the members of runs of power classes, from their batched
    p-power chains."""
    return _orders_of(shape, p_power_chains(shape, columns, runs)[0])


def orders_and_tops(
    shape: TreeShape, columns: Sequence[bytes], runs: Sequence[Run]
) -> list[tuple[int, bytes]]:
    """Order of each x of runs of power classes and the labels of
    x^(p^(n-1)), equal labels sharing one bytes object."""
    m = shape.internal_count
    exps, levels = p_power_chains(shape, columns, runs)
    width, top = len(exps), levels[-1]
    rows = _rows([top[k * width : (k + 1) * width] for k in range(m)], width)
    tops: dict[bytes, bytes] = {}
    return list(zip(_orders_of(shape, exps), (tops.setdefault(t, t) for t in _split(rows, m))))


def socles(shape: TreeShape, columns: Sequence[bytes], runs: Sequence[Run]) -> list[bytes | None]:
    """Labels of the last nontrivial p-power of each member of runs of
    power classes (a generator of the order-p subgroup of <x>), None for
    the identity."""
    exps, levels = p_power_chains(shape, columns, runs)
    return [levels[e - 1][j :: len(exps)] if e else None for j, e in enumerate(exps)]


def map_power_classes(
    fn: Callable[[TreeShape, Sequence[bytes], Sequence[Run]], list[R]],
    group: "QuotientGroup",
    mask: bytes | None = None,
) -> list[R]:
    """fn over the power classes of the group, with one result for each
    element that mask selects (a byte per element, 1 to select; all by
    default), in enumeration order.

    A power class, the elements sharing their labels above the last level
    and so one vertex permutation, is a run of group.class_size elements.
    fn takes the column slices of a class's selected members and the class
    as one run, as p_power_chains does, and returns one result per member.
    Classes with no selected member are skipped.  fn runs once per class:
    one call over all classes would hold every level of the chains of every
    element at once.
    """
    size = group.class_size
    mask = bytes([1]) * len(group) if mask is None else mask

    def run(i: int) -> list[R]:
        block, chosen = [column[i : i + size] for column in group.cols], mask[i : i + size]
        if 0 in chosen:
            block = [bytes(compress(column, chosen)) for column in block]
        return fn(group.shape, block, [(group._perm_row(i), len(block[0]))])

    starts = [i for i in range(0, len(group), size) if mask.find(1, i, i + size) >= 0]
    return list(chain.from_iterable(pmap(run, starts)))


def _layer_span(
    shape: TreeShape, basis: Sequence[tuple[bytes, int]]
) -> tuple[tuple[bytes, ...], bytes]:
    """Every vector of the last layer as label columns and its b-coordinate
    column, from an F_p basis of (row, coordinate) pairs: the vector at
    offset sum k_t * p^t is sum k_t * basis[t], so each basis vector joins
    p shifts of every column, the k-th by k times the vector's entry."""
    p, shifts = shape.p, _add_tables(shape.p)
    columns = [bytes(1)] * (shape.internal_count + 1)  # the labels, then the coordinate
    for row, c in basis:
        pairs = zip(columns, (*row, c))
        columns = [b"".join(col.translate(shifts[k * x % p]) for k in range(p)) for col, x in pairs]
    return tuple(columns[:-1]), columns[-1]


def affine_suspects(
    fn: Callable[[TreeShape, Sequence[bytes], Sequence[Run]], list[R]],
    passes: Callable[[int, R], bool],
    group: "QuotientGroup",
    mask: bytes | None = None,
) -> bytes:
    """The elements left to scan in full: mask (every element by default)
    kept on the power classes where passes(i, r) may fail for a selected
    member i with result r of fn (as for map_power_classes), and zeroed on
    the others.  Sound for an n >= 2 quotient and a check that is an affine
    identity in a member's depth-(n-1) labels and b-coordinate, or that
    follows from one on the selected members.

    A power class is a coset L*s of the last layer L, an F_p-space of
    labels at depth n-1 that is normal in the automorphisms of the tree.
    For u in L, (u*s)^p = u * u^(s^-1) * ... * u^(s^-(p-1)) * s^p, and
    conjugation acts linearly on L, so every level of p_power_chains is
    affine in u, and so is the b-coordinate.  An affine identity that holds
    on d + 1 affinely independent members (d = dim L) holds on the coset.

    Per class with a selected member: the premise, that its slice of each
    label column and of the b-coordinates is L's shifted by its first
    entry; then fn and passes on q0, its first selected member, and on
    q0 + k_t*b_t for each basis vector b_t of L (at span offset p^t), with
    k_t the least of 1..p-1 that gives a selected member.  The
    class stays in the mask when the premise fails, no such basis is
    selected, or passes fails on a basis member.  fn runs once, on the
    bases of every class that passes the premise, each class one run.
    """
    shape, size, p = group.shape, group.class_size, group.vector.p
    columns = (*group.cols, group.coords[1])  # the labels, then the b-coordinates
    layer, shifts = (*group.layer_span[0], group.layer_span[1]), _add_tables(p)
    mask = bytes([1]) * len(group) if mask is None else mask

    @lru_cache(maxsize=None)  # the shifts the classes of this call need
    def shifted(k: int, c: int) -> bytes:
        return layer[k].translate(shifts[c])

    steps = [p**t for t in range(len(group.layer_basis))]  # the span offsets of L's basis
    d1 = len(steps) + 1  # members of every basis
    suspects = bytearray(len(group))
    bases: list[tuple[int, list[int]]] = []  # (class start, basis) where the premise holds
    for i in range(0, len(group), size):
        q0 = mask.find(1, i, i + size)
        if q0 < 0:
            continue
        chosen = [q0]
        for step in steps:
            digit = (q0 - i) // step % p
            for k in range(1, p):
                q = q0 + ((digit + k) % p - digit) * step
                if mask[q]:
                    chosen.append(q)
                    break
        first = map(getitem, columns, repeat(i))
        slices = map(getitem, columns, repeat(slice(i, i + size)))
        if len(chosen) == d1 and list(slices) == list(map(shifted, count(), first)):
            bases.append((i, chosen))
        else:
            suspects[i : i + size] = mask[i : i + size]
    if bases:
        members = [q for _, chosen in bases for q in chosen]
        runs = [(group._perm_row(i), d1) for i, _ in bases]
        block = [bytes(map(column.__getitem__, members)) for column in group.cols]
        passed = list(map(passes, members, fn(shape, block, runs)))
        for k, (i, _) in enumerate(bases):
            if not all(passed[k * d1 : (k + 1) * d1]):
                suspects[i : i + size] = mask[i : i + size]
    return bytes(suspects)


def failures(
    fn: Callable[[TreeShape, Sequence[bytes], Sequence[Run]], list[R]],
    passes: Callable[[int, R], bool],
    group: "QuotientGroup",
    mask: bytes | None = None,
) -> list[tuple[int, R]]:
    """The members i that mask selects (every element by default) whose
    result r of fn fails passes(i, r), as (i, r) pairs in enumeration
    order: affine_suspects clears the classes an affine basis decides, and
    map_power_classes scans the rest.  Only the span from the first to the
    last suspect is walked, and label_keys is not built."""
    suspects = affine_suspects(fn, passes, group, mask)
    start, stop = max(suspects.find(1), 0), suspects.rfind(1) + 1
    found = compress(range(start, stop), suspects[start:stop])
    scanned = zip(found, map_power_classes(fn, group, suspects))
    return [(i, r) for i, r in scanned if not passes(i, r)]


def _stabilizer_steps(a: Portrait, b: Portrait) -> list[tuple[Portrait, int]]:
    """The generators b_j = b^(a^j) of st(1), j = 0..p-1, each with what it
    adds to the b-coordinate: 1, as b_j has coordinates (0, 1)."""
    return [(b.conjugate_by(a**j), 1) for j in range(a.shape.p)]


def _interned(shape: TreeShape, key: bytes, perm: tuple[int, ...]) -> Portrait:
    """The element with label key, carrying its vertex permutation perm."""
    x = object.__new__(Portrait)
    x.shape, x.labels, x._perm = shape, key, perm
    return x


def _locator(group: "QuotientGroup", tops: dict[bytes, int]) -> Callable[[bytes], int | None]:
    """The enumeration index of a label key, None when it is no element.

    Index r*|H| + t*|L| + sum d_k p^k holds the representative of top t
    (labels above depth n-1, root label 0; tops numbers them) plus
    sum d_k b_k at root label r, b_k the basis of L in group._pivots.
    _eliminate is linear, so it is solved once, for the unit vectors and
    the representatives: a key's depth-(n-1) labels less its
    representative's then solve as a sum of table entries, reduced every
    255 // (p - 1) terms, the digits d and a remainder zero only on
    elements.  At level 1, G = <a> and the index is the root label.
    """
    shape, size, pivots = group.shape, group.class_size, group._pivots
    p, m, reduce = shape.p, shape.internal_count, shape.reduce
    if shape.n == 1:
        return lambda labels: labels[0] if len(labels) == 1 and labels[0] < p else None
    cut, stride, times = shape.level_starts[shape.n - 1], len(tops) * size, _mul_tables(p)
    width, step = m - cut, 255 // (p - 1) - 1  # terms added to a reduced sum per reduction
    # The unit vectors and the representatives (top t's is element t*|L|)
    # solved at once: a row of digits and remainder each.
    layer = [
        bytes(c) + b"\1" + bytes(width - c - 1) + column[:stride:size]
        for c, column in enumerate(group.cols[cut:])
    ]
    solutions = _rows(_eliminate(layer, pivots, shape), width + len(tops))
    rows = [solutions[k : k + width] for k in range(0, len(solutions), width)]
    table = [[int.from_bytes(row.translate(s), "little") for s in times] for row in rows[:width]]
    lifts = [int.from_bytes(row.translate(times[-1]), "little") for row in rows[width:]]
    chunks = [(k, table[k : k + step]) for k in range(0, width, step)]
    zero, weights = bytes(width - len(pivots)), [p**k for k in range(len(pivots))]

    def locate(labels: bytes) -> int | None:
        if len(labels) != m or max(labels) >= p:
            return None
        t = tops.get(bytes(1) + labels[1:cut])
        if t is None:
            return None
        total = lifts[t]
        for k, part in chunks:
            solved = _reduced(total + sum(map(getitem, part, labels[cut + k :])), width, reduce)
            total = int.from_bytes(solved, "little")
        if not solved.endswith(zero):
            return None
        return labels[0] * stride + t * size + sum(map(mul, solved, weights))

    return locate


class QuotientGroup:
    """The level-n quotient of the GGS group with a given defining vector."""

    def __init__(self, vector: DefiningVector, n: int, budget: int = DEFAULT_BUDGET):
        # Checked before the tree is built: at a deep level the tree alone
        # can outgrow memory.
        predicted = written_order(vector, n)
        if exceeds_budget(vector, n, budget):
            raise BudgetExceeded(budget, 0, predicted)
        vertices = (vector.p**n - 1) // (vector.p - 1)
        if vertices > MAX_BATCH_VERTICES:
            raise BudgetExceeded(
                budget,
                0,
                predicted,
                f"enumeration refused: a depth-{n} tree at p={vector.p} has {vertices} "
                f"internal vertices, more than the {MAX_BATCH_VERTICES} the walk handles",
            )
        k = _guard_exponent(vector, n)
        if _exceeds(vector.p, k, budget):  # only symmetric vectors get this far
            raise BudgetExceeded(
                budget,
                0,
                predicted,
                f"enumeration budget {budget} exceeded (order {vector.p}^{k} by the "
                "Fernandez-Alcober & Zugadi-Reizabal formula)",
            )
        self.vector = vector
        self.shape = tree_shape(vector.p, n)

        self.a = make_a(self.shape)
        self.b = make_b(vector, self.shape)
        self.identity = Portrait.identity(self.shape)
        self.identity.vertex_perm()
        with metrics.stage("enumeration") as counts:
            walked = self._walk_queue(n, budget, predicted)
            self.cols, self._perms, self.coords, self.layer_basis, self.layer_span = walked[:5]
            self._tops = walked[5]  # the number of each top, for _locate
            counts["elements"] = len(self)
        self.class_size = vector.p ** len(self.layer_basis)  # |L|, the size of every power class
        # L's basis at depth n-1 as (pivot, row negated mod p), each row zero
        # before its pivot and 1 there: what _eliminate eliminates with.
        cut = self.shape.level_starts[n - 1]
        self._pivots = [
            (row.index(1, cut) - cut, row[cut:].translate(_mul_tables(vector.p)[-1]))
            for row, _ in self.layer_basis
        ]
        # Elements built one at a time by index, before `elements` is; the
        # full tuple takes these objects over, so each element stays one.
        self._made: dict[int, Portrait] = {0: self.identity}
        self._stages: dict[str, object] = {}  # the store of every @stage method

    def _walk_queue(
        self, n: int, budget: int, predicted: int | str | None
    ) -> tuple[
        tuple[bytes, ...],
        bytes,
        tuple[bytes, bytes] | None,
        tuple[tuple[bytes, int], ...],
        tuple[tuple[bytes, ...], bytes],
        dict[bytes, int],
    ]:
        """The elements as p cosets of H = st(1)/st(n), with exponent-sum
        coordinates (a byte column per generator).  Returns the label
        columns in enumeration order (one per internal vertex, a byte per
        element, step 3), the vertex permutations (m bytes per power
        class), the coordinate columns, an F_p basis of the last layer
        L = (st(n-1) & st(1))/st(n): full label rows with their
        b-coordinates, L's columns listed from it by _layer_span, and the
        number of each top.

        Step 1 walks H modulo st(n-1) from 1 under right multiplication by
        the b_j = b^(a^j), which generate st(1), keeping the first element
        and b-coordinate of each top (labels above depth n-1).  A product
        t*b_j whose top is known is u*s, s that top's representative and u
        in L, an F_p-space under label addition.  These Schreier generators
        u span L; each gives a row: its labels, then c(t) + 1 - c(s).

        Step 2 echelonizes the rows.  A pivot in the coordinate column means
        the coordinates conflict (derived_subgroup); at level 1, where b = 1
        and H = 1, they always do, and are dropped.

        Step 3 writes G one label column at a time, with no product and no
        sum.  H is, top by top, its representative plus every vector of L,
        all sharing the representative's permutation, so column k of H is
        the join of L's column k shifted by each representative's label k
        (only the shifts some representative needs are made).  a's one
        nonzero label is at the root, which every vertex permutation fixes,
        so h*a^r is h with root label r, permutation pi_(a^r) o pi_h and
        coordinates (r, c(h)): column k >= 1 of G is that of H repeated p
        times, and the root column is the a-coordinate column.  Index
        r*|H| + i holds h_i*a^r, and the identity stays at 0.
        """
        shape, identity = self.shape, self.identity
        p, m = shape.p, shape.internal_count
        cut = shape.level_starts[n - 1]
        steps = _stabilizer_steps(self.a, self.b)
        for g, _ in steps:
            g.vertex_perm()  # so that every product carries its permutation
        reps, rep_coords = [identity], [0]  # the b-coordinate; the a-coordinate is 0 on H
        tops = {identity.labels[:cut]: 0}
        rows: dict[bytes, None] = {}  # label and coordinate differences, each once
        for x, cx in zip(reps, rep_coords):  # both grow while read
            for g, step in steps:
                y, c = x * g, (cx + step) % p
                t = tops.setdefault(y.labels[:cut], len(reps))
                if t == len(reps):
                    reps.append(y)
                    rep_coords.append(c)
                    if p * len(reps) > budget:
                        raise BudgetExceeded(budget, p * len(reps), predicted)
                else:
                    s = reps[t].labels
                    diff = bytes((u - v) % p for u, v in zip(y.labels[cut:], s[cut:]))
                    rows[diff + bytes([(c - rep_coords[t]) % p])] = None
        basis = _echelon_mod_p(rows, p)
        consistent = not basis or any(basis[-1][: m - cut])
        if not consistent:
            if n >= 2:
                raise RuntimeError("exponent-sum coordinates conflicted at level >= 2")
            basis.pop()  # level 1: b collapses onto the identity
        order = p * len(reps) * p ** len(basis)
        if order > budget:
            raise BudgetExceeded(budget, order, predicted)
        # Each basis vector of L as a full row, zero above depth n-1, and its coordinate.
        layer_basis = tuple((bytes(cut) + bytes(row[:-1]), row[-1]) for row in basis)
        span, span_coords = _layer_span(shape, layer_basis)
        shifts = _add_tables(p)
        a_coords = b"".join(bytes([r]) * (order // p) for r in range(p))
        cols = [a_coords]  # the root labels; H has root label 0, as L does
        rep_labels = _columns(b"".join(rep.labels for rep in reps), m)  # label k of every rep
        for column, labels in zip(span[1:], rep_labels[1:]):
            shifted = {c: column.translate(shifts[c]) for c in set(labels)}
            cols.append(b"".join(map(shifted.__getitem__, labels)) * p)
        perms: list[bytes] = []
        for r in range(p):
            a_r = _vertex_table((self.a**r).vertex_perm())
            perms += (bytes(rep.vertex_perm()).translate(a_r) for rep in reps)
        b_coords = b"".join(span_coords.translate(shifts[c]) for c in rep_coords) * p
        coords = (a_coords, b_coords) if consistent else None
        return tuple(cols), b"".join(perms), coords, layer_basis, (span, span_coords), tops

    @cached_property
    def _locate(self) -> Callable[[bytes], int | None]:
        """The map from a label key to its enumeration index (_locator),
        built on the first lookup: a collision scan makes none."""
        return _locator(self, self._tops)

    @property
    def rows(self) -> bytes:
        """The label rows in enumeration order, m bytes per element: a view
        written from the columns on each read, not kept."""
        return bytes(_rows(self.cols, len(self)))

    @cached_property
    def label_keys(self) -> tuple[bytes, ...]:
        """The label key of every element, in enumeration order: a transient
        row buffer written from the columns and split, on first read."""
        return tuple(_split(_rows(self.cols, len(self)), self.shape.internal_count))

    # -- basic container behaviour -------------------------------------------

    def __len__(self) -> int:
        return len(self.cols[0])

    def __iter__(self) -> Iterator[Portrait]:
        return iter(self.elements)

    def __contains__(self, x: Portrait | bytes) -> bool:
        return self._locate(bytes(x.labels if isinstance(x, Portrait) else x)) is not None

    def __repr__(self) -> str:
        return (
            f"QuotientGroup(p={self.vector.p}, e=({self.vector}), "
            f"n={self.shape.n}, order={len(self)})"
        )

    def _key(self, i: int) -> bytes:
        """The label key of element i, gathered from the columns."""
        return bytes([column[i] for column in self.cols])

    def _perm_row(self, i: int) -> bytes:
        """The vertex permutation of element i, one byte per vertex: the row
        of its power class."""
        m, c = self.shape.internal_count, i // self.class_size
        return self._perms[c * m : (c + 1) * m]

    @cached_property
    def elements(self) -> tuple[Portrait, ...]:
        """Every element as an interned Portrait carrying its vertex
        permutation, in enumeration order, the identity first; built from
        the label keys on first read.  The members of a power class share one
        permutation tuple."""
        shape = self.shape
        perms = Struct(f"{shape.internal_count}B").iter_unpack(self._perms)
        shared = chain.from_iterable(map(repeat, perms, repeat(self.class_size)))
        elements = list(map(_interned, repeat(shape), self.label_keys, shared))
        for i, x in self._made.items():
            elements[i] = x
        return tuple(elements)

    def _at(self, i: int) -> Portrait:
        """The interned element at enumeration index i; built alone when
        `elements` has not been read."""
        if "elements" in vars(self):
            return self.elements[i]
        x = self._made.get(i)
        if x is None:
            x = self._made[i] = _interned(self.shape, self._key(i), tuple(self._perm_row(i)))
        return x

    def _position(self, key: bytes | str) -> int:
        """Enumeration index of the element with the given label key or text
        encoding, computed by _locator."""
        labels = Portrait.decode(key).labels if isinstance(key, str) else bytes(key)
        i = self._locate(labels)
        if i is None:
            text = key if isinstance(key, str) else Portrait(self.shape, labels).encode()
            raise ValueError(f"not an element of this quotient: {text}")
        return i

    def element(self, key: bytes | str) -> Portrait:
        """The interned element with the given label key or text encoding."""
        return self._at(self._position(key))

    def left_positions(self, x: Portrait, stop: int) -> array:
        """The enumeration indices of x*y for the elements y before index
        stop, a multiple of class_size, in enumeration order: label u of x*y
        is l_x(u) + l_y(pi_x(u)), sources pi_x and row l_x for every class."""
        images = _class_images(self, lambda perm: (x.vertex_perm(), x.labels))
        return array("I", b"".join(map(images, range(0, stop, self.class_size))))

    def coords_of(self, x: Portrait) -> tuple[int, int]:
        """Exponent sums of (a, b) modulo the derived subgroup."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        a, b = self.coords
        i = self._position(x.labels)
        return a[i], b[i]

    @stage
    def lines(self) -> bytes:
        """The coordinate_line of every element, in enumeration order.  Coset
        r of st(1), the r-th run of |G|/p elements, has a-coordinate r, so
        its lines are its b-column translated by j -> coordinate_line(r, j)."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        p, b = self.vector.p, self.coords[1]
        size = len(b) // p
        return b"".join(
            b[r * size : (r + 1) * size].translate(
                _vertex_table([coordinate_line(r, j, p) for j in range(p)])
            )
            for r in range(p)
        )

    def line_mask(self, *lines: int) -> bytes:
        """One byte per element in enumeration order: 1 when its
        coordinate_line is one of lines, else 0."""
        table = bytearray(256)
        for j in lines:
            table[j] = 1
        return self.lines().translate(table)

    def is_generating_pair(self, x: Portrait, y: Portrait) -> bool:
        """Whether {x, y} generates the quotient: by coordinates (Burnside
        basis theorem), and at level 1, where G_1 = C_p with p prime, exactly
        when x or y is nontrivial, the identity being element 0."""
        i, j = self._locate(x.labels), self._locate(y.labels)
        if i is None or j is None:
            raise ValueError("elements do not belong to this quotient")
        if self.coords is None:
            return i != 0 or j != 0
        a, b = self.coords
        return (a[i] * b[j] - a[j] * b[i]) % self.vector.p != 0

    # -- subgroup machinery ----------------------------------------------------

    @stage
    def _conjugation_tables(self) -> tuple[array, array]:
        """The index of x^a and the index of x^b, for every element x in
        enumeration order; built one power class at a time by
        _class_images.

        Only H = st(1)/st(n), the first |H| elements, is conjugated by a:
        index r*|H| + i holds h_i * a^r, and (h_i * a^r)^a = h_i^a * a^r, so
        the a-table of coset r is that of H shifted by r*|H|, one
        big-integer add of r*|H| to every slot.
        """
        size = len(self) // self.vector.p

        def conjugates(c: Portrait, stop: int) -> bytes:
            images = _class_images(self, _conjugation(c))
            return b"".join(map(images, range(0, stop, self.class_size)))

        head, ones = int.from_bytes(conjugates(self.a, size), sys.byteorder), _slots(b"\1" * size)
        shifted = (head + r * size * ones for r in range(self.vector.p))  # the a-table of coset r
        by_a = b"".join(table.to_bytes(size * _SLOT, sys.byteorder) for table in shifted)
        return array("I", by_a), array("I", conjugates(self.b, len(self)))

    def normal_closure(
        self, seeds: Iterable[Portrait], conjugators: Iterable[Portrait]
    ) -> SubgroupHandle:
        """Smallest subgroup containing the seeds and closed under conjugation
        by the conjugators.

        One walk from 1 under x -> x*s (s a seed) and x -> x^c = c^-1 x c
        (c a conjugator).  The group is finite, so x -> x^(c^-1) is a power
        of x -> x^c and the walked set also holds x * s^c = (x^(c^-1) * s)^c;
        by induction it is closed under right multiplication by every
        conjugate of every seed, which generate the normal closure.
        """
        steps = [*map(_times, _distinct(seeds)), *map(_conjugation, _distinct(conjugators))]
        return SubgroupHandle(tuple(map(self._at, _walk(self, steps))))

    def _subgroup(self, mask: bytes) -> SubgroupHandle:
        """The elements mask selects (a byte each, 1 to select), each by _at."""
        return SubgroupHandle(tuple(map(self._at, compress(count(), mask))))

    @stage
    def derived_subgroup(self) -> SubgroupHandle:
        """G', in enumeration order: the elements on line p + 1, at (0, 0).

        For n >= 2 the coordinates map G onto C_p x C_p, so their kernel K
        contains G' and has index p^2.  They are a homomorphism because they
        add (1, 0) along every edge of the Cayley graph by a and (0, 1)
        along every edge by b, and they do so exactly when the Schreier
        generators' coordinates are consistent.  The enumeration writes each
        h in H = st(1)/st(n) as u*s, s the representative of h's top and u
        in the last layer L, with c(h) = c(u) + c(s).  The Schreier
        generators t*b_j*s^-1 span L, and no combination of them is trivial
        with a nonzero coordinate, so c is linear on L, and c(h*b_j) = c(h)
        + 1 for every h and b_j = b^(a^j).  Then (h*a^r)*a = h*a^(r+1) and
        (h*a^r)*b = (h*b_(-r))*a^r.  G/G' is abelian and generated by the
        images of a and b, both of order p, so |G:G'| <= p^2.  Hence K = G'.
        At level 1 the quotient is <a> = C_p, abelian, so G' = 1.
        """
        mask = bytes([1]) if self.coords is None else self.line_mask(self.vector.p + 1)
        return self._subgroup(mask)

    @stage
    def center(self) -> SubgroupHandle:
        """The elements fixed by conjugation with a and with b."""
        by_a, by_b = self._conjugation_tables()
        return self._subgroup(bytes(x == i == y for i, x, y in zip(count(), by_a, by_b)))

    @stage
    def stabilizer_derived(self) -> SubgroupHandle:
        """st(1)', the derived subgroup of the first-level stabilizer: the
        normal closure of the [b, b^(a^k)] for k = 1..p-1.

        st(1) is generated by the b^(a^i), so st(1)' is the normal closure
        in st(1) of the [b^(a^i), b^(a^j)].  It is characteristic in the
        normal subgroup st(1), so it is normal in G.  Conjugating by a^k
        shifts i and j by k, so st(1)' is the G-normal closure of the
        [b, b^(a^k)].  At level 1, b = 1, and this gives {1}.
        """
        a, b = self.a, self.b
        seeds = [commutator(b, b.conjugate_by(a**k)) for k in range(1, self.vector.p)]
        return self.normal_closure(seeds, [a, b])

    @stage
    def maximal_subgroups(self) -> list[SubgroupHandle]:
        """The p+1 maximal subgroups <a, G'>, <b, G'>, <ab^i, G'> for n >= 2,
        in the order of coordinate_line: each holds the elements on its
        line, in enumeration order.

        The coordinate kernel is G' (derived_subgroup), so <x, G'> is the
        preimage of the line through the coordinates of x.
        """
        if self.shape.n < 2:
            raise ValueError("maximal subgroups are tabulated for levels >= 2")
        p = self.vector.p
        return [self._subgroup(self.line_mask(j, p + 1)) for j in range(p + 1)]

    def _conjugates(self, seeds: Iterable[int], seen: bytearray) -> list[int]:
        """Indices of the conjugates of the seeds that seen (a byte per
        element) does not mark, in discovery order, each marked as it is
        found: one breadth-first walk from all the unmarked seeds under
        x -> x^a, then x -> x^b.  From one index of a class with no marked
        member it lists that class."""
        by_a, by_b = self._conjugation_tables()
        found = []
        for i in seeds:
            if not seen[i]:
                seen[i] = 1
                found.append(i)
        # The two steps are written out: a loop over the pair (by_a[j],
        # by_b[j]) made the walk half as slow again.
        for j in found:  # grows while it is read
            k = by_a[j]
            if not seen[k]:
                seen[k] = 1
                found.append(k)
            k = by_b[j]
            if not seen[k]:
                seen[k] = 1
                found.append(k)
        return found

    def conjugacy_class(self, x: Portrait) -> tuple[Portrait, ...]:
        """Orbit of x under conjugation, in discovery order, as interned
        elements (which already carry their vertex permutations)."""
        orbit = self._conjugates([self._position(x.labels)], bytearray(len(self)))
        return tuple(map(self._at, orbit))

    @stage
    def conjugacy_classes(self) -> list[tuple[Portrait, ...]]:
        """All conjugacy classes, in order of first appearance, each in
        discovery order: every class is walked on one shared mask."""
        elements = self.elements
        assigned = bytearray(len(elements))
        classes = []
        i = 0  # the first element of no class yet
        while i >= 0:
            classes.append(tuple(map(elements.__getitem__, self._conjugates([i], assigned))))
            i = assigned.find(0, i)
        return classes

    def order_histogram(self) -> dict[int, int]:
        """Element count by order, increasing, read off the p-power chains."""
        return dict(sorted(Counter(map_power_classes(orders, self)).items()))

    # -- exports ---------------------------------------------------------------

    def sorted_encodings(self) -> list[str]:
        """Every element's encoding, in the label order of Portrait.__lt__."""
        return [Portrait(self.shape, key).encode() for key in sorted(self.label_keys)]

    def cayley_dot(self) -> str:
        """Cayley graph on generators a, b in DOT format."""
        lines = ["digraph cayley {"]
        ordered = sorted(self.elements)
        number = {x.labels: i for i, x in enumerate(ordered)}
        for i, x in enumerate(ordered):
            lines.append(f'  v{i} [label="{x.encode()}"];')
            lines.append(f"  v{i} -> v{number[(x * self.a).labels]} [label=\"a\"];")
            lines.append(f"  v{i} -> v{number[(x * self.b).labels]} [label=\"b\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_quotient(
    v: DefiningVector, n: int, budget: int = DEFAULT_BUDGET
) -> QuotientGroup:
    """Enumerate the level-n quotient: a walk of st(1) modulo st(n-1), the
    span of its last layer over F_p, and the cosets of st(1)."""
    return QuotientGroup(v, n, budget)
