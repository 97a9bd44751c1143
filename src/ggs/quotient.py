"""Finite quotients of a GGS group acting on the truncated tree.

The level-n quotient is the image of the group in the automorphisms of the
depth-n tree.  It splits as G_n = <a> x| H with H = st(1)/st(n), and st(1) is
generated by the b^(a^j), so the enumeration walks H breadth first under
right multiplication by those and reads off the other p - 1 cosets h*a^r
with no product at all (_walk_queue).  Exponent-sum coordinates are tracked
during the walk; for n >= 2 they map G onto G/G' = C_p x C_p, so the derived
subgroup, the p + 1 maximal subgroups and generation are all read off them
(lines()) without further closures, and the Frattini subgroup G'G^p equals G'.

The walk stores its result as rows, not objects: the label key of every
element (the bytes that also key the element index), one buffer of vertex
permutations with m bytes per element (m internal vertices), and the
coordinate columns.  The scans over every element (orders, powers, socles,
conjugation tables, class members) read these rows.  The interned Portrait
elements are built from them only when a caller asks for them, in one pass
on the first read of `elements`, or one at a time through `element`.
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache, reduce as fold, wraps
from itertools import chain, compress, count, islice, repeat
from operator import add, attrgetter, getitem, is_, itemgetter, not_, or_
from struct import Struct
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, cast

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

# The batched kernels hold vertex indices in bytes and move them with
# translate tables, so enumeration is limited to trees with at most this many
# internal vertices.  No quotient past it is enumerable anyway: the order
# p^(t*p^(n-2)+1-delta*(p^(n-2)-1)/(p-1)) with t >= 2 is at least 17^34 on
# every such tree.
MAX_BATCH_VERTICES = 256

# Elements per chunk of the enumeration and subgroup walks and of the
# conjugation tables; a chunk holds the rows of every step's image of each
# element at once (p products in the enumeration walk).
WALK_CHUNK = 2048

R = TypeVar("R")
F = TypeVar("F", bound=Callable)


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


def _exceeds(p: int, k: int, budget: int) -> bool:
    """Whether p^k > budget, decided on the exponent: p >= 3, so p^k > budget
    once 2^k > budget."""
    return k >= budget.bit_length() or p**k > budget


def exceeds_budget(v: DefiningVector, n: int, budget: int) -> bool:
    """Whether the predicted order is known and larger than the budget."""
    k = predicted_exponent(v, n)
    return k is not None and _exceeds(v.p, k, budget)


def _guard_exponent(v: DefiningVector, n: int) -> int:
    """The k with |G_n| = p^k by the formula of Fernandez-Alcober and
    Zugadi-Reizabal (Trans. AMS 366, 2014): k = t*p^(n-2) + 1 -
    delta*(p^(n-2) - 1)/(p - 1) for n >= 2, with delta = 1 for symmetric
    vectors and 0 otherwise, so it is predicted_exponent wherever that is
    defined.

    Only the resource guard of the enumeration uses it, to refuse symmetric
    vectors past level 2 before walking: no claim rests on the delta term,
    and were it wrong the walk would still stop at the budget.
    """
    if n == 1:
        return 1
    q = v.p ** (n - 2)
    return v.rank * q + 1 - v.symmetric * (q - 1) // (v.p - 1)


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


def stage(fn: F) -> F:
    """Memoise a derived table of a group: fn(group, *args) runs once per
    group and tuple of positional arguments, stored in the group's own dict
    under the stage name plus the arguments.  Stored results must not refer
    to the group, so that it is freed as soon as it is dropped.
    """
    name = fn.__qualname__

    @wraps(fn)
    def memo(group, *args):
        key, store = (name, *args), group._stages
        if key not in store:
            store[key] = fn(group, *args)
        return store[key]

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


def _walk(group: "QuotientGroup", steps: list[Callable]) -> list[int]:
    """Enumeration indices of the elements reachable from 1 under the step
    maps, in discovery order, 1 first.

    A step map takes a _Batch to the label columns of its images.  The found
    list is read in chunks of WALK_CHUNK elements, each step applied to a
    whole chunk at once, and new elements join in the order a one-at-a-time
    walk finds them: element-major, step-minor.
    """
    shape, keys, index = group.shape, group.label_keys, group._index
    m = shape.internal_count
    found = [0]
    seen = {0}
    done = 0
    while done < len(found):  # found grows while it is read: breadth-first order
        chunk = found[done : done + WALK_CHUNK]
        batch = _Batch(
            shape, b"".join(map(keys.__getitem__, chunk)), b"".join(map(group._perm_row, chunk))
        )
        columns = [column for step in steps for column in step(batch)]
        images = map(index.__getitem__, dict.fromkeys(_split(_rows(columns, len(chunk)), m)))
        new = [i for i in images if i not in seen]
        seen.update(new)
        found += new
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


def p_power_chains(
    shape: TreeShape, rows: bytes, perm: Sequence[int]
) -> tuple[bytes, list[list[bytes]]]:
    """The p-power chains x, x^p, ..., x^(p^(n-1)) of a batch of elements
    that share their labels above the last level, and so one vertex
    permutation perm; rows holds their labels, concatenated.

    Returns the order exponents (the order of member j is p^exps[j]) and,
    for i = 0..n-1, the labels of every x^(p^i).  With x^(j+1) = x^j * x
    and pi_(x^j) = pi^j, label column k of x^p is the sum of the columns
    pi^j(k) for j < p, and every member's x^p shares the permutation pi^p.
    """
    p, m, reduce = shape.p, shape.internal_count, shape.reduce
    width = len(rows) // m
    room = 255 // (p - 1)
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
    fn: Callable[[TreeShape, bytes, Sequence[int]], list[R]],
    shape: TreeShape,
    keys: Sequence[bytes],
) -> list[R]:
    """fn over the elements with the given label keys, split into power
    classes, with results in the order of keys.

    A power class holds the elements sharing their labels above the last
    level: fn takes its rows and shared vertex permutation, as
    p_power_chains does, and returns one result per member.
    """
    top = itemgetter(slice(shape.level_starts[shape.n - 1]))
    classes: dict[bytes, list[bytes]] = {}
    for key in keys:
        classes.setdefault(top(key), []).append(key)

    def run(members: list[bytes]) -> list[R]:
        return fn(shape, b"".join(members), Portrait(shape, members[0]).vertex_perm())

    # Members of a class keep their order in keys, so each element takes the
    # next unused result of its class.  Tops are cut again here rather than
    # kept, one bytes object per key, through the whole map.
    results = dict(zip(classes, map(iter, pmap(run, classes.values()))))
    return list(map(next, map(results.__getitem__, map(top, keys))))


def _stabilizer_steps(a: Portrait, b: Portrait) -> list[tuple[Portrait, int]]:
    """The generators b_j = b^(a^j) of st(1), j = 0..p-1, each with what it
    adds to the b-coordinate: 1, as b_j has coordinates (0, 1)."""
    return [(b.conjugate_by(a**j), 1) for j in range(a.shape.p)]


def _interned(shape: TreeShape, key: bytes, perm: tuple[int, ...]) -> Portrait:
    """The element with label key, carrying its vertex permutation perm."""
    x = object.__new__(Portrait)
    x.shape, x.labels, x._perm = shape, key, perm
    return x


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
        self.a_inv = self.a.inverse()
        self.b_inv = self.b.inverse()
        self.identity = Portrait.identity(self.shape)
        self.identity.vertex_perm()
        self.label_keys, self._index, self._perms, self.coords = self._walk_queue(
            n, budget, predicted
        )
        # Elements built one at a time by index, before `elements` is; the
        # full tuple takes these objects over, so each element stays one.
        self._made: dict[int, Portrait] = {0: self.identity}
        self._stages: dict[tuple, object] = {}  # the store of every @stage method

    def _walk_queue(
        self, n: int, budget: int, predicted: int | str | None
    ) -> tuple[tuple[bytes, ...], dict[bytes, int], bytearray, tuple[bytes, bytes] | None]:
        """The elements as p cosets of H = st(1)/st(n), with exponent-sum
        coordinates: one byte column per generator, holding each element's
        exponent sum mod p.  Returns the rows: the label keys in enumeration
        order, the index of each key, the vertex permutations (m bytes per
        element) and the coordinate columns.

        Step 1 walks H breadth first from 1 under right multiplication by
        the b_j = b^(a^j), j = 0..p-1, which generate st(1); H is finite, so
        the closure is the subgroup.  The queue is read in consecutive
        chunks.  Each chunk forms its products with every b_j column-wise
        (_Batch.times), and the new ones join the queue in the order a
        one-at-a-time walk finds them: element-major, generator-minor.  Every
        b_j has coordinates (0, 1), and the walk checks on every product
        h*b_j that its b-coordinate is h's plus 1.

        Step 2 reads off the cosets h*a^r, r = 1..p-1, with no product: a's
        one nonzero label is at the root, which every vertex permutation
        fixes, so h*a^r has h's labels with root label r, the permutation
        pi_(a^r) o pi_h, and coordinates (r, b-coordinate of h).  Index
        r*|H| + i holds h_i*a^r; the identity stays at index 0.

        The check on H covers every edge of G's Cayley graph:
        (h*a^r)*a = h*a^(r+1), and (h*a^r)*b = (h*b_(-r))*a^r since
        a^r*b*a^-r = b_(-r).  So the coordinates add (1, 0) along every
        product by a and (0, 1) along every product by b.  At level 1, b = 1
        and H = 1, the check fails, and the coordinates are dropped.
        """
        shape, identity = self.shape, self.identity
        p, m = shape.p, shape.internal_count
        gens, steps = zip(*_stabilizer_steps(self.a, self.b))
        shifts = _add_tables(p)
        keys = [identity.labels]
        index: dict[bytes, int] = {identity.labels: 0}
        perm_rows = bytearray(identity.vertex_perm())
        coords = bytearray(1)  # the b-coordinate; the a-coordinate is 0 on H
        consistent = True
        qi = 0
        while qi < len(keys):
            stop = min(len(keys), qi + WALK_CHUNK)
            width = stop - qi
            batch = _Batch(shape, b"".join(keys[qi:stop]), perm_rows[qi * m : stop * m])
            label_columns: list[bytes] = []
            perm_columns: list[bytes] = []
            for g in gens:
                labels, perms = batch.times(g)
                label_columns += labels
                perm_columns += perms
            products = _split(_rows(label_columns, width), m)
            made = _rows([coords[qi:stop].translate(shifts[s % p]) for s in steps], width)
            found = list(map(index.get, products))
            unknown = list(map(is_, found, repeat(None)))
            # Equal keys are one element, with one permutation: the dict keeps
            # the position of each new key's first product.
            table = dict(zip(compress(products, unknown), compress(count(), unknown)))
            reached = p * (len(keys) + len(table))
            if reached > budget:
                raise BudgetExceeded(budget, reached, predicted)
            rows = _split(_rows(perm_columns, width), m)
            perm_rows += b"".join(map(rows.__getitem__, table.values()))
            coords += bytes(map(made.__getitem__, table.values()))
            index.update(zip(table, count(len(keys))))
            keys += table
            if consistent:
                # Products known before this chunk reuse the indices of the
                # lookup; only the new ones are looked up again.
                known = list(map(not_, unknown))
                have = chain(
                    compress(found, known), map(index.__getitem__, compress(products, unknown))
                )
                want = chain(compress(made, known), compress(made, unknown))
                if bytes(map(coords.__getitem__, have)) != bytes(want):
                    if n >= 2:
                        raise RuntimeError("exponent-sum coordinates conflicted at level >= 2")
                    consistent = False  # level 1: b collapses onto the identity
            qi = stop
        # The permutations go into one buffer allocated up front: each
        # coset's translate is freed right above it and leaves no hole in
        # the heap, where joining the blocks at the end would.
        size, block = len(keys), len(perm_rows)
        perms = bytearray(p * block)
        perms[:block] = perm_rows
        for r in range(1, p):
            root = bytes([r])
            coset = [root + key[1:] for key in islice(keys, size)]
            index.update(zip(coset, count(r * size)))
            keys += coset
            a_r = _vertex_table((self.a**r).vertex_perm())
            perms[r * block : (r + 1) * block] = perm_rows.translate(a_r)
        coords_out = None
        if consistent:
            coords_out = (b"".join(bytes([r]) * size for r in range(p)), b"".join([coords] * p))
        return tuple(keys), index, perms, coords_out

    # -- basic container behaviour -------------------------------------------

    def __len__(self) -> int:
        return len(self.label_keys)

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

    def _perm_row(self, i: int) -> bytearray:
        """The vertex permutation of element i, one byte per vertex."""
        m = self.shape.internal_count
        return self._perms[i * m : (i + 1) * m]

    @cached_property
    def elements(self) -> tuple[Portrait, ...]:
        """Every element as an interned Portrait carrying its vertex
        permutation, in enumeration order, the identity first; built from
        the rows on first read."""
        shape = self.shape
        perms = Struct(f"{shape.internal_count}B").iter_unpack(self._perms)
        elements = list(map(_interned, repeat(shape), self.label_keys, perms))
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
            x = self._made[i] = _interned(self.shape, self.label_keys[i], tuple(self._perm_row(i)))
        return x

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
        return self._at(self._position(key))

    @stage
    def label_columns(self) -> tuple[bytes, ...]:
        """One bytes column per internal vertex: that vertex's label in every
        element, in enumeration order."""
        rows = b"".join(self.label_keys)
        return tuple(_columns(rows, self.shape.internal_count))

    def left_products(self, x: Portrait, stop: int | None = None) -> bytearray:
        """The labels of x*y for every element y, or for the elements before
        index stop, concatenated in enumeration order.

        Column k of x*y is l_x[k] + col[pi_x(k)] mod p.  With x fixed that is
        one translate per vertex, by the table adding l_x[k] mod p.
        """
        columns = self.label_columns()
        m = len(columns)
        width = len(self) if stop is None else stop
        shifts = _add_tables(self.vector.p)
        out = bytearray(width * m)
        for k, (source, shift) in enumerate(zip(x.vertex_perm(), x.labels)):
            out[k::m] = columns[source][:width].translate(shifts[shift])
        return out

    def coords_of(self, x: Portrait) -> tuple[int, int]:
        """Exponent sums of (a, b) modulo the derived subgroup."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        a, b = self.coords
        i = self._index[x.labels]
        return a[i], b[i]

    @stage
    def lines(self) -> bytes:
        """The coordinate_line of every element, in enumeration order."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        a, b = self.coords
        p = self.vector.p
        rows = [bytes(coordinate_line(i, j, p) for j in range(p)) for i in range(p)]
        return bytes(map(getitem, map(rows.__getitem__, a), b))

    def line_mask(self, *lines: int) -> bytes:
        """One byte per element in enumeration order: 1 when its
        coordinate_line is one of lines, else 0."""
        table = bytearray(256)
        for j in lines:
            table[j] = 1
        return self.lines().translate(table)

    def is_generating_pair(self, x: Portrait, y: Portrait) -> bool:
        """Whether {x, y} generates the quotient."""
        if x.labels not in self._index or y.labels not in self._index:
            raise ValueError("elements do not belong to this quotient")
        if self.coords is not None:
            (ax, bx), (ay, by) = self.coords_of(x), self.coords_of(y)
            return (ax * by - ay * bx) % self.vector.p != 0
        return len(_walk(self, _right([x, y]))) == len(self)

    # -- subgroup machinery ----------------------------------------------------

    @stage
    def _conjugation_tables(self) -> tuple[array, array]:
        """The index of x^a and the index of x^b, for every element x in
        enumeration order; built chunk by chunk with _Batch.conjugate from
        the joined label keys and a slice of the permutation rows.

        Only H = st(1)/st(n), the first |H| elements, is conjugated by a:
        index r*|H| + i holds h_i * a^r, and (h_i * a^r)^a = h_i^a * a^r, so
        the a-table of coset r is that of H shifted by r*|H|.
        """
        keys, perms, index = self.label_keys, self._perms, self._index
        m = self.shape.internal_count
        size = len(keys) // self.vector.p

        def conjugates(c: Portrait, ci: Portrait, stop: int) -> array:
            table = array("I")
            for start in range(0, stop, WALK_CHUNK):
                end = min(start + WALK_CHUNK, stop)
                batch = _Batch(self.shape, b"".join(keys[start:end]), perms[start * m : end * m])
                images = _split(_rows(batch.conjugate(c, ci), batch.width), m)
                table.extend(map(index.__getitem__, images))
            return table

        by_a = conjugates(self.a, self.a_inv, size)
        head = by_a[:]
        for r in range(1, self.vector.p):
            by_a.extend(map(add, head, repeat(r * size)))
        return by_a, conjugates(self.b, self.b_inv, len(keys))

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
        conjugations = [
            lambda batch, c=c, ci=c.inverse(): batch.conjugate(c, ci)
            for c in _distinct(conjugators)
        ]
        steps = _right(_distinct(seeds)) + conjugations
        return SubgroupHandle(tuple(map(self._at, _walk(self, steps))))

    @stage
    def derived_subgroup(self) -> SubgroupHandle:
        """G', in enumeration order: the elements on line p + 1, at (0, 0).

        For n >= 2 the coordinates map G onto C_p x C_p, so their kernel K
        contains G' and has index p^2.  They are a homomorphism because they
        add along every product by a and b: the enumeration checked on every
        product h*b_j in H = st(1)/st(n) that the b-coordinate grows by 1,
        and (h*a^r)*a = h*a^(r+1), (h*a^r)*b = (h*b_(-r))*a^r with
        b_j = b^(a^j).  G/G' is abelian and generated by the
        images of a and b, both of order p, so |G:G'| <= p^2.  Hence K = G'.
        At level 1 the quotient is <a> = C_p, abelian, so G' = 1.
        """
        if self.coords is None:
            return SubgroupHandle((self.identity,))
        p = self.vector.p
        return SubgroupHandle(tuple(compress(self.elements, self.line_mask(p + 1))))

    @stage
    def center(self) -> SubgroupHandle:
        """The elements fixed by conjugation with a and with b."""
        by_a, by_b = self._conjugation_tables()
        fixed = (i for i in range(len(self)) if by_a[i] == i and by_b[i] == i)
        return SubgroupHandle(tuple(map(self._at, fixed)))

    @stage
    def level_stabilizer(self, k: int) -> SubgroupHandle:
        """Elements acting trivially on the first k levels, in enumeration
        order: those whose labels above depth k are all zero, found where
        the OR of those label columns has a zero byte."""
        columns = self.label_columns()[: self.shape.level_starts[k]]
        live = fold(or_, (int.from_bytes(c, "little") for c in columns), 0)
        members = compress(range(len(self)), map(not_, live.to_bytes(len(self), "little")))
        return SubgroupHandle(tuple(map(self._at, members)))

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
        return [
            SubgroupHandle(tuple(compress(self.elements, self.line_mask(j, p + 1))))
            for j in range(p + 1)
        ]

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
        return tuple(map(self._at, self._class_of(self._position(x.labels))))

    @stage
    def conjugacy_classes(self) -> list[tuple[Portrait, ...]]:
        """All conjugacy classes, in order of first appearance."""
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
        return classes

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for cls in self.conjugacy_classes():
            o = cls[0].order()
            hist[o] = hist.get(o, 0) + len(cls)
        return dict(sorted(hist.items()))

    def exponent(self) -> int:
        return max(self.order_histogram())

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
