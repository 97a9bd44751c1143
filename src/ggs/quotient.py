"""Finite quotients of a GGS group acting on the truncated tree.

The level-n quotient is the image of the group in the automorphisms of the
depth-n tree, produced by breadth-first closure of {a, b} under right
multiplication.  Exponent-sum coordinates modulo the derived subgroup are
tracked during the walk; for n >= 2 the derived quotient is C_p x C_p, so
these coordinates decide generation and maximal-subgroup membership
without further closures.
"""

from __future__ import annotations

import gc
from array import array
from functools import lru_cache, reduce as fold
from itertools import chain, compress, repeat
from operator import attrgetter, is_, itemgetter, or_
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .generators import DefiningVector, make_a, make_b
from .parallel import pmap
from .portrait import Portrait, TreeShape, commutator, tree_shape

__all__ = [
    "DEFAULT_BUDGET",
    "MAX_LEVEL",
    "BudgetExceeded",
    "SubgroupHandle",
    "QuotientGroup",
    "predicted_exponent",
    "predicted_order",
    "exceeds_budget",
    "written_order",
    "coordinate_line",
    "enumerate_quotient",
    "p_power_chains",
    "map_power_classes",
]

DEFAULT_BUDGET = 10_000_000

_GEN_COORDS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# The batched kernels hold vertex indices in bytes and move them with
# translate tables, so enumeration is limited to trees with at most this many
# internal vertices.  No quotient past it is enumerable anyway: the order
# p^(t*p^(n-2)+1-delta*(p^(n-2)-1)/(p-1)) with t >= 2 is at least 17^34 on
# every such tree.
MAX_BATCH_VERTICES = 256

# Elements per chunk of the enumeration and subgroup walks and of the
# conjugation tables; a chunk holds the rows of every step's image of each
# element at once (four products in the enumeration walk).
WALK_CHUNK = 2048

R = TypeVar("R")


# Deepest level accepted anywhere.  Portraits stop well before it (see
# MAX_INTERNAL_VERTICES); past it even the exponent k of the predicted order
# p^k grows too long to compute.
MAX_LEVEL = 64

# Orders p^k with k up to this bound are written in digits, larger ones as
# "p^k": past it a decimal expansion is long to read, and past a few thousand
# digits Python refuses to convert it to text at all.
WRITTEN_EXPONENT_MAX = 64


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would pass the element budget, or is
    refused outright because its tree is too large to walk."""

    def __init__(
        self,
        budget: int,
        partial: int,
        predicted: int | str | None = None,
        reason: str | None = None,
    ):
        self.budget = budget
        self.partial = partial
        self.predicted = predicted
        if reason is None:
            detail = (
                f"predicted order {predicted}" if predicted else f"stopped at {partial} elements"
            )
            reason = f"enumeration budget {budget} exceeded ({detail})"
        super().__init__(reason)


def predicted_exponent(v: DefiningVector, n: int) -> int | None:
    """The k with |G_n| = p^k when a closed form is known, else None.

    Level 1 is cyclic of order p.  Level 2 has order p^(t+1) with t the
    circulant rank.  For non-symmetric vectors and n >= 2 the order is
    p^(t*p^(n-2)+1); no closed form is used for symmetric vectors past
    level 2.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must lie in 1..{MAX_LEVEL}, got {n}")
    if n == 1:
        return 1
    if n == 2:
        return v.rank + 1
    if v.symmetric:
        return None
    return v.rank * v.p ** (n - 2) + 1


def predicted_order(v: DefiningVector, n: int) -> int | None:
    """Order of the level-n quotient when a closed form is known, else None.

    The exponent grows like p^(n-2), so at deep levels the order itself is
    too large to compute or print; code that may see such levels uses
    exceeds_budget and written_order.
    """
    k = predicted_exponent(v, n)
    return None if k is None else v.p**k


def exceeds_budget(v: DefiningVector, n: int, budget: int) -> bool:
    """Whether the predicted order is known and larger than the budget.

    Decided on the exponent: p >= 3, so p^k > budget once 2^k > budget.
    """
    k = predicted_exponent(v, n)
    if k is None:
        return False
    return k >= budget.bit_length() or v.p**k > budget


def written_order(v: DefiningVector, n: int) -> int | str | None:
    """The predicted order in digits, or as "p^k" when k is large."""
    k = predicted_exponent(v, n)
    if k is None:
        return None
    return v.p**k if k <= WRITTEN_EXPONENT_MAX else f"{v.p}^{k}"


def coordinate_line(a: int, b: int, p: int) -> int:
    """Number of the line of F_p^2 = G/G' through the coordinates (a, b).

    Line 0 is <a>G', line 1 is <b>G' and line 1 + i is <ab^i>G' for
    i = 1..p-1; (0, 0) lies on every line and gets p + 1.
    """
    a, b = a % p, b % p
    if not a:
        return 1 if b else p + 1
    return 1 + b * pow(a, -1, p) % p if b else 0


class SubgroupHandle:
    """A subgroup of an enumerated quotient: member set plus generating data."""

    __slots__ = ("group", "elements", "keys", "_generators")

    def __init__(
        self,
        group: "QuotientGroup",
        elements: tuple[Portrait, ...],
        generators: tuple[Portrait, ...] | None = None,
    ):
        self.group = group
        self.elements = elements
        self.keys = frozenset(map(attrgetter("labels"), elements))
        self._generators = generators

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Portrait]:
        return iter(self.elements)

    def __contains__(self, x: Portrait | bytes) -> bool:
        key = x.labels if isinstance(x, Portrait) else x
        return key in self.keys

    def index(self) -> int:
        return len(self.group) // len(self)

    @property
    def generators(self) -> tuple[Portrait, ...]:
        """A generating subset, extracted greedily in canonical element order.

        Each new generator x grows H = <gens> to <H, x> by whole right
        cosets H*y: y runs over products r*g of the cosets' representatives
        r with every generator g, and a coset joins when y is not yet in.
        """
        if self._generators is None:
            one = self.group.identity
            shape = one.shape
            gens: list[Portrait] = []
            have = {one.labels}
            labels, perms = [one.labels], [bytes(one.vertex_perm())]
            for x in sorted(self.elements):
                if x.labels in have:
                    continue
                gens.append(x)
                batch = _Batch(shape, b"".join(labels), b"".join(perms))
                reps = [one]
                for r in reps:  # grows while it is read
                    for g in gens:
                        y = r * g
                        if y.labels in have:
                            continue
                        coset_labels, coset_perms = batch.times(y)
                        rows = _rows(coset_labels, batch.width)
                        have.update(_split(rows, shape.internal_count))
                        labels.append(rows)
                        perms.append(_rows(coset_perms, batch.width))
                        reps.append(y)
            self._generators = tuple(gens)
        return self._generators


def _walk(
    group: "QuotientGroup", start: Iterable[Portrait], steps: list[Callable]
) -> list[Portrait]:
    """The interned elements reachable from start under the step maps, in
    discovery order, start first.

    A step map takes a _Batch to the label columns of its images.  The found
    list is read in chunks of WALK_CHUNK elements, each step applied to a
    whole chunk at once, and new elements join in the order a one-at-a-time
    walk finds them: element-major, step-minor.
    """
    shape, elements, index = group.shape, group.elements, group._index
    m = shape.internal_count
    found = [elements[index[x.labels]] for x in start]
    seen = {x.labels for x in found}
    done = 0
    while done < len(found):  # found grows while it is read: breadth-first order
        chunk = found[done : done + WALK_CHUNK]
        batch = _Batch(shape, b"".join(map(attrgetter("labels"), chunk)), _perm_rows(chunk))
        columns = [column for step in steps for column in step(batch)]
        keys = dict.fromkeys(_split(_rows(columns, len(chunk)), m))
        new = [key for key in keys if key not in seen]
        seen.update(new)
        found += map(elements.__getitem__, map(index.__getitem__, new))
        done += len(chunk)
    return found


def _right(gens: Iterable[Portrait]) -> list[Callable]:
    """Step maps x -> x*g."""
    return [lambda batch, g=g: batch.times(g)[0] for g in gens]


def _distinct(xs: Iterable[Portrait]) -> list[Portrait]:
    """The non-identity elements of xs, each once, in first-seen order."""
    return list({x.labels: x for x in xs if not x.is_identity()}.values())


# -- column kernels ----------------------------------------------------------------
#
# A batch of elements is held as byte columns, one per internal vertex: column
# k holds the label (or the vertex-permutation image) at vertex k of every
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


def _split(rows: bytes, m: int) -> list[bytes]:
    """Concatenated rows of length m, one bytes object each."""
    block = _row_block(m)
    full = len(rows) - len(rows) % block.size
    out = list(chain.from_iterable(block.iter_unpack(memoryview(rows)[:full])))
    tail = bytes(rows[full:])
    out += [tail[i : i + m] for i in range(0, len(tail), m)]
    return out


def _vertex_table(values: Sequence[int]) -> bytes:
    """Translate table taking vertex index v to values[v]."""
    return bytes(values).ljust(256, b"\0")


def _perm_rows(xs: Iterable[Portrait]) -> bytes:
    """The vertex permutations of xs as concatenated byte rows."""
    return b"".join(map(bytes, map(Portrait.vertex_perm, xs)))


@lru_cache(maxsize=None)
def _add_tables(p: int) -> tuple[bytes, ...]:
    """Translate tables taking every byte b to (b + s) mod p, for s < p."""
    return tuple(bytes((b + s) % p for b in range(256)) for s in range(p))


class _Batch:
    """Elements as label columns (little-endian integers, ready to add) and
    vertex-permutation columns, for right products with and conjugates by
    one element at a time."""

    __slots__ = ("width", "add", "labels", "perms")

    def __init__(self, shape: TreeShape, labels: bytes, perms: bytes):
        m = shape.internal_count
        self.width = len(labels) // m
        self.add = _add_tables(shape.p)
        self.labels = [int.from_bytes(c, "little") for c in _columns(labels, m)]
        self.perms = _columns(perms, m)

    def conjugate(self, c: Portrait, ci: Portrait) -> list[bytes]:
        """Label columns of x^c = c^-1 * x * c for every x, where ci = c^-1.

        Column u is l_ci[u] + L_v + l_c[P_v] mod p with v = pi_ci(u).  The
        last two terms add as integers, at most 2(p - 1) <= 252 per byte;
        then one translate adds the constant l_ci[u] and reduces.  A
        three-term byte sum would overflow once p > 85.
        """
        width, labels, perms, add = self.width, self.labels, self.perms, self.add
        by_label = _vertex_table(c.labels)
        return [
            (labels[v] + int.from_bytes(perms[v].translate(by_label), "little"))
            .to_bytes(width, "little")
            .translate(add[s])
            for s, v in zip(ci.labels, ci.vertex_perm())
        ]

    def times(self, g: Portrait) -> tuple[list[bytes], list[bytes]]:
        """Label and vertex-permutation columns of x*g for every x.

        Label column k is L_k + l_g[pi_x(k)] mod p: the perm column
        translated by l_g, added and reduced.  Perm column k is
        pi_g(pi_x(k)): one translate.
        """
        width, reduce = self.width, self.add[0]
        by_label = _vertex_table(g.labels)
        by_perm = _vertex_table(g.vertex_perm())
        labels = [
            (lk + int.from_bytes(pk.translate(by_label), "little"))
            .to_bytes(width, "little")
            .translate(reduce)
            for lk, pk in zip(self.labels, self.perms)
        ]
        return labels, [pk.translate(by_perm) for pk in self.perms]


def _coords_agree(
    index: dict[bytes, int],
    coords: tuple[bytearray, bytearray],
    keys: Sequence[bytes],
    values: bytes,
) -> bool:
    """Whether every product of a walk chunk by a or b carries the
    coordinates recorded for its element.

    keys holds four products (by a, b, a^-1, b^-1) per chunk element, and
    values their perm rows, each followed by its two coordinates.  Products
    by a^-1 and b^-1 need no check: by the end of the walk, each
    y = x * a^-1 has had its product y * a = x checked.
    """
    width = len(values) // len(keys)  # m + 2
    for g in (0, 1):
        found = list(map(index.__getitem__, keys[g::4]))
        for axis, column in enumerate(coords):
            made = values[g * width + width - 2 + axis :: 4 * width]
            if bytes(map(column.__getitem__, found)) != made:
                return False
    return True


# Byte j of a column OR becomes 1 when element j has a nonzero label.
_NONZERO = bytes([0]) + bytes([1]) * 255


def _sum_mod(terms: Iterable[int], width: int, reduce: bytes, room: int) -> bytes:
    """Sum mod p of label columns given as integers; up to room of them
    (room * (p - 1) <= 255) are added before each reduction."""
    total, count = 0, 0
    for term in terms:
        if count == room:
            total = int.from_bytes(total.to_bytes(width, "little").translate(reduce), "little")
            count = 1
        total += term
        count += 1
    return total.to_bytes(width, "little").translate(reduce)


def p_power_chains(batch: Sequence[Portrait]) -> tuple[bytes, list[list[bytes]]]:
    """The p-power chains x, x^p, ..., x^(p^(n-1)) of a batch of elements
    that share their labels above the last level, and so one vertex
    permutation pi.

    Returns the order exponents (the order of batch[j] is p^exps[j]) and,
    for i = 0..n-1, the labels of every x^(p^i).  With x^(j+1) = x^j * x
    and pi_(x^j) = pi^j, label column k of x^p is the sum of the columns
    pi^j(k) for j < p, and every member's x^p shares the permutation pi^p.
    """
    shape = batch[0].shape
    p, m, reduce = shape.p, shape.internal_count, shape.reduce
    width = len(batch)
    room = 255 // (p - 1)
    perm = batch[0].vertex_perm()
    rows = b"".join(x.labels for x in batch)
    exps = 0
    levels: list[list[bytes]] = []
    for _ in range(shape.n):
        ints = [int.from_bytes(c, "little") for c in _columns(rows, m)]
        live = fold(or_, ints).to_bytes(width, "little")
        if not any(live):
            break
        levels.append(_split(rows, m))
        exps += int.from_bytes(live.translate(_NONZERO), "little")
        orbits = [range(m)]  # orbits[j][k] = pi^j(k)
        for _ in range(p):
            orbits.append([perm[k] for k in orbits[-1]])
        perm = orbits.pop()
        rows = _rows(
            [_sum_mod((ints[o[k]] for o in orbits), width, reduce, room) for k in range(m)],
            width,
        )
    else:
        if any(rows):
            raise RuntimeError("order exceeded the exponent bound of the tree")
    zero = [shape.zero_labels] * width
    levels += [zero] * (shape.n - len(levels))
    return exps.to_bytes(width, "little"), levels


def map_power_classes(
    fn: Callable[[list[Portrait]], list[R]], xs: Sequence[Portrait]
) -> list[R]:
    """fn over xs split into power classes, with results in the order of xs.

    A power class holds the elements sharing their labels above the last
    level, the batch p_power_chains takes; fn returns one result per member.
    """
    if not xs:
        return []
    cut = slice(xs[0].shape.level_starts[xs[0].shape.n - 1])
    keys = list(map(itemgetter(cut), map(attrgetter("labels"), xs)))
    classes: dict[bytes, list[Portrait]] = {}
    for key, x in zip(keys, xs):
        classes.setdefault(key, []).append(x)
    # Members of a class keep their order in xs, so each element takes the
    # next unused result of its class.
    results = dict(zip(classes, map(iter, pmap(fn, classes.values()))))
    return list(map(next, map(results.__getitem__, keys)))


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
        self.vector = vector
        self.shape = tree_shape(vector.p, n)
        self.budget = budget

        self.a = make_a(self.shape)
        self.b = make_b(vector, self.shape)
        self.a_inv = self.a.inverse()
        self.b_inv = self.b.inverse()
        self.identity = Portrait.identity(self.shape)
        self.identity.vertex_perm()
        # The walk makes two tracked objects per element and no reference
        # cycles, so the cyclic collector's repeated passes over the growing
        # queue would find nothing; it is paused while the walk runs.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.elements, self._index, self.coords = self._walk_queue(n, budget, predicted)
        finally:
            if collecting:
                gc.enable()
        self.cache: dict[str, object] = {}

    def _walk_queue(
        self, n: int, budget: int, predicted: int | str | None
    ) -> tuple[tuple[Portrait, ...], dict[bytes, int], tuple[tuple[int, int], ...] | None]:
        """Breadth-first closure of 1 under right multiplication by a, b, a^-1
        and b^-1, with exponent-sum coordinates.

        The queue is read in consecutive chunks.  Each chunk forms its
        products with every generator column-wise (_Batch.times), and the
        new ones join the queue in the order a one-at-a-time walk finds
        them: element-major, generator-minor.
        """
        shape = self.shape
        p, m = shape.p, shape.internal_count
        gens = (self.a, self.b, self.a_inv, self.b_inv)
        shifts = _add_tables(p)
        steps = [(shifts[da % p], shifts[db % p]) for da, db in _GEN_COORDS]
        new = object.__new__
        elements = [self.identity]
        index: dict[bytes, int] = {self.identity.labels: 0}
        perm_rows = bytearray(self.identity.vertex_perm())
        coords = (bytearray(1), bytearray(1))
        consistent = True
        qi = 0
        while qi < len(elements):
            stop = min(len(elements), qi + WALK_CHUNK)
            width = stop - qi
            batch = _Batch(
                shape,
                b"".join(x.labels for x in elements[qi:stop]),
                perm_rows[qi * m : stop * m],
            )
            label_columns: list[bytes] = []
            value_columns: list[bytes] = []  # the product's perm, then its coordinates
            for g, step in zip(gens, steps):
                labels, perms = batch.times(g)
                label_columns += labels
                value_columns += perms
                value_columns += [c[qi:stop].translate(s) for c, s in zip(coords, step)]
            keys = _split(_rows(label_columns, width), m)
            values = _rows(value_columns, width)
            unknown = list(map(is_, map(index.get, keys), repeat(None)))
            # Equal keys are one element, with one permutation and, unless the
            # check below fails, one pair of coordinates; the dict keeps the
            # first-seen key order.
            table = dict(zip(compress(keys, unknown), compress(_split(values, m + 2), unknown)))
            if len(elements) + len(table) > budget:
                raise BudgetExceeded(budget, budget + 1, predicted)
            columns = _columns(b"".join(table.values()), m + 2)
            perms = _rows(columns[:m], len(table))
            perm_rows += perms
            index.update(zip(table, range(len(elements), len(elements) + len(table))))
            for key, perm in zip(table, map(tuple, _split(perms, m))):
                y = new(Portrait)
                y.shape, y.labels, y._perm = shape, key, perm
                elements.append(y)
            coords[0].extend(columns[m])
            coords[1].extend(columns[m + 1])
            if consistent and not _coords_agree(index, coords, keys, values):
                if n >= 2:
                    raise RuntimeError("exponent-sum coordinates conflicted at level >= 2")
                consistent = False  # level 1: b collapses onto the identity
            qi = stop
        return tuple(elements), index, tuple(zip(*coords)) if consistent else None

    # -- basic container behaviour -------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Portrait]:
        return iter(self.elements)

    def __contains__(self, x: Portrait | bytes) -> bool:
        key = x.labels if isinstance(x, Portrait) else x
        return key in self._index

    def __repr__(self) -> str:
        return (
            f"QuotientGroup(p={self.vector.p}, e=({self.vector}), "
            f"n={self.shape.n}, order={len(self)})"
        )

    def _position(self, key: bytes | str) -> int:
        """Enumeration index of the element with the given label key or text
        encoding."""
        i = self._index.get(Portrait.decode(key).labels if isinstance(key, str) else key)
        if i is None:
            text = key if isinstance(key, str) else Portrait(self.shape, key).encode()
            raise ValueError(f"not an element of this quotient: {text}")
        return i

    def element(self, key: bytes | str) -> Portrait:
        """The interned element with the given label key or text encoding."""
        return self.elements[self._position(key)]

    def label_columns(self) -> tuple[bytes, ...]:
        """One bytes column per internal vertex: that vertex's label in every
        element, in enumeration order."""
        if "columns" not in self.cache:
            flat = b"".join(x.labels for x in self.elements)
            m = self.shape.internal_count
            self.cache["columns"] = tuple(flat[k::m] for k in range(m))
        return self.cache["columns"]  # type: ignore[return-value]

    def left_products(self, x: Portrait) -> bytearray:
        """The labels of x*y for every element y, concatenated in enumeration
        order.

        Column k of x*y is l_x[k] + col[pi_x(k)] mod p.  With x fixed that is
        one translate per vertex, by the table adding l_x[k] mod p.
        """
        columns = self.label_columns()
        m = len(columns)
        shifts = _add_tables(self.vector.p)
        out = bytearray(len(self.elements) * m)
        for k, (source, shift) in enumerate(zip(x.vertex_perm(), x.labels)):
            out[k::m] = columns[source].translate(shifts[shift])
        return out

    def coords_of(self, x: Portrait) -> tuple[int, int]:
        """Exponent sums of (a, b) modulo the derived subgroup."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        return self.coords[self._index[x.labels]]

    def lines(self) -> bytes:
        """The coordinate_line of every element, in enumeration order."""
        if "lines" not in self.cache:
            if self.coords is None:
                raise ValueError("coordinates are undefined for the level-1 quotient")
            p = self.vector.p
            number = {(a, b): coordinate_line(a, b, p) for a in range(p) for b in range(p)}
            self.cache["lines"] = bytes(map(number.__getitem__, self.coords))
        return self.cache["lines"]  # type: ignore[return-value]

    def is_generating_pair(self, x: Portrait, y: Portrait) -> bool:
        """Whether {x, y} generates the quotient."""
        if x.labels not in self._index or y.labels not in self._index:
            raise ValueError("elements do not belong to this quotient")
        if self.coords is not None:
            (ax, bx), (ay, by) = self.coords_of(x), self.coords_of(y)
            return (ax * by - ay * bx) % self.vector.p != 0
        return len(_walk(self, [self.identity], _right([x, y]))) == len(self)

    # -- subgroup machinery ----------------------------------------------------

    def as_subgroup(self) -> SubgroupHandle:
        return SubgroupHandle(self, self.elements, (self.a, self.b))

    def _conjugations(
        self, conjugators: Iterable[Portrait] | None = None
    ) -> list[Callable]:
        """Step maps x -> x^c = c^-1 x c, by a and b unless conjugators are given."""
        if conjugators is None:
            pairs = [(self.a, self.a_inv), (self.b, self.b_inv)]
        else:
            pairs = [(c, c.inverse()) for c in _distinct(conjugators)]
        return [lambda batch, c=c, ci=ci: batch.conjugate(c, ci) for c, ci in pairs]

    def _conjugation_tables(self) -> tuple[array, array]:
        """The index of x^a and the index of x^b, for every element x in
        enumeration order; built chunk by chunk with _Batch.conjugate."""
        if "conjugation" not in self.cache:
            elements, index = self.elements, self._index
            m = self.shape.internal_count
            tables = (array("I"), array("I"))
            pairs = ((self.a, self.a_inv), (self.b, self.b_inv))
            for start in range(0, len(elements), WALK_CHUNK):
                chunk = elements[start : start + WALK_CHUNK]
                labels = b"".join(map(attrgetter("labels"), chunk))
                batch = _Batch(self.shape, labels, _perm_rows(chunk))
                for table, (c, ci) in zip(tables, pairs):
                    keys = _split(_rows(batch.conjugate(c, ci), batch.width), m)
                    table.extend(map(index.__getitem__, keys))
            self.cache["conjugation"] = tables
        return self.cache["conjugation"]  # type: ignore[return-value]

    def normal_closure(
        self, seeds: Iterable[Portrait], conjugators: Iterable[Portrait] | None = None
    ) -> SubgroupHandle:
        """Smallest subgroup containing the seeds and closed under conjugation.

        One walk from 1 under x -> x*s (s a seed) and x -> x^c (c a
        conjugator).  The group is finite, so x -> x^(c^-1) is a power of
        x -> x^c and the walked set also holds x * s^c = (x^(c^-1) * s)^c;
        by induction it is closed under right multiplication by every
        conjugate of every seed, which generate the normal closure.
        """
        steps = _right(_distinct(seeds)) + self._conjugations(conjugators)
        return SubgroupHandle(self, tuple(_walk(self, [self.identity], steps)))

    def derived_subgroup(self) -> SubgroupHandle:
        """Normal closure of [a, b]."""
        if "derived" not in self.cache:
            self.cache["derived"] = self.normal_closure([commutator(self.a, self.b)])
        return self.cache["derived"]  # type: ignore[return-value]

    def center(self) -> SubgroupHandle:
        """The elements fixed by conjugation with a and with b."""
        if "center" not in self.cache:
            by_a, by_b = self._conjugation_tables()
            members = tuple(
                x for i, x in enumerate(self.elements) if by_a[i] == i and by_b[i] == i
            )
            self.cache["center"] = SubgroupHandle(self, members)
        return self.cache["center"]  # type: ignore[return-value]

    def frattini(self) -> SubgroupHandle:
        """Derived subgroup together with all p-th powers."""
        if "frattini" not in self.cache:
            derived = self.derived_subgroup()
            p = self.vector.p
            powers = _distinct(q for g in self.elements if (q := g**p) not in derived)
            members = _walk(self, derived.elements, _right(powers))
            self.cache["frattini"] = SubgroupHandle(self, tuple(members))
        return self.cache["frattini"]  # type: ignore[return-value]

    def level_stabilizer(self, k: int) -> SubgroupHandle:
        """Elements acting trivially on the first k levels."""
        key = f"stab:{k}"
        if key not in self.cache:
            members = tuple(g for g in self.elements if g.stabilizes_level(k))
            self.cache[key] = SubgroupHandle(self, members)
        return self.cache[key]  # type: ignore[return-value]

    def subgroup_commutator(self, h: SubgroupHandle, k: SubgroupHandle) -> SubgroupHandle:
        """[H, K]: normal closure in <H, K> of the generator commutators."""
        seeds = [commutator(x, y) for x in h.generators for y in k.generators]
        return self.normal_closure(seeds, h.generators + k.generators)

    def maximal_subgroups(self) -> list[SubgroupHandle]:
        """The p+1 maximal subgroups <a, G'>, <b, G'>, <ab^i, G'> for n >= 2,
        in the order of coordinate_line: each holds the elements on its
        line, in enumeration order.

        The coordinates map G onto C_p x C_p (the walk checked that they add
        along every product by a and b), so their kernel has index p^2 and
        holds G'.  Once G' has index p^2 too, the kernel is G', and <x, G'>
        is the preimage of the line through the coordinates of x.
        """
        if self.shape.n < 2:
            raise ValueError("maximal subgroups are tabulated for levels >= 2")
        if "maximal" in self.cache:
            return self.cache["maximal"]  # type: ignore[return-value]
        p = self.vector.p
        if len(self) != p * p * len(self.derived_subgroup()):
            raise RuntimeError("derived subgroup does not have index p^2")
        lines = self.lines()
        out = []
        for j in range(p + 1):
            on_line = bytearray(256)
            on_line[j] = on_line[p + 1] = 1
            members = compress(self.elements, lines.translate(on_line))
            out.append(SubgroupHandle(self, tuple(members)))
        self.cache["maximal"] = out
        return out

    def _class_of(self, i: int) -> list[int]:
        """Indices of the conjugacy class of element i, in discovery order:
        breadth-first under x -> x^a, then x -> x^b."""
        by_a, by_b = self._conjugation_tables()
        found, seen = [i], {i}
        for j in found:  # grows while it is read
            for k in (by_a[j], by_b[j]):
                if k not in seen:
                    seen.add(k)
                    found.append(k)
        return found

    def conjugacy_class(self, x: Portrait) -> tuple[Portrait, ...]:
        """Orbit of x under conjugation, in discovery order, as interned
        elements (which already carry their vertex permutations)."""
        return tuple(map(self.elements.__getitem__, self._class_of(self._position(x.labels))))

    def conjugacy_classes(self) -> list[tuple[Portrait, ...]]:
        """All conjugacy classes, in order of first appearance."""
        if "classes" in self.cache:
            return self.cache["classes"]  # type: ignore[return-value]
        elements = self.elements
        assigned = bytearray(len(elements))
        classes = []
        for i in range(len(elements)):
            if assigned[i]:
                continue
            orbit = self._class_of(i)
            for j in orbit:
                assigned[j] = 1
            classes.append(tuple(map(elements.__getitem__, orbit)))
        self.cache["classes"] = classes
        return classes

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for cls in self.conjugacy_classes():
            o = cls[0].order()
            hist[o] = hist.get(o, 0) + len(cls)
        return dict(sorted(hist.items()))

    def exponent(self) -> int:
        return max(self.order_histogram())

    def lower_central_series(self) -> list[SubgroupHandle]:
        """G = gamma_1 >= gamma_2 >= ... down to the trivial subgroup."""
        series = [self.as_subgroup()]
        whole = series[0]
        while len(series[-1]) > 1:
            series.append(self.subgroup_commutator(series[-1], whole))
        return series

    # -- exports ---------------------------------------------------------------

    def sorted_encodings(self) -> list[str]:
        return [x.encode() for x in sorted(self.elements)]

    def cayley_dot(self) -> str:
        """Cayley graph on generators a, b in DOT format."""
        lines = ["digraph cayley {"]
        number = {x.labels: i for i, x in enumerate(sorted(self.elements))}
        for x in sorted(self.elements):
            i = number[x.labels]
            lines.append(f'  v{i} [label="{x.encode()}"];')
            lines.append(f"  v{i} -> v{number[(x * self.a).labels]} [label=\"a\"];")
            lines.append(f"  v{i} -> v{number[(x * self.b).labels]} [label=\"b\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_quotient(
    v: DefiningVector, n: int, budget: int = DEFAULT_BUDGET
) -> QuotientGroup:
    """Enumerate the level-n quotient by breadth-first closure."""
    return QuotientGroup(v, n, budget)
