"""Finite quotients of a GGS group acting on the truncated tree.

The level-n quotient is the image of the group in the automorphisms of the
depth-n tree, produced by breadth-first closure of {a, b} under right
multiplication.  Exponent-sum coordinates modulo the derived subgroup are
tracked during the walk; for n >= 2 the derived quotient is C_p x C_p, so
these coordinates decide generation and maximal-subgroup membership
without further closures.
"""

from __future__ import annotations

from operator import add, itemgetter
from typing import Callable, Iterable, Iterator

from .generators import DefiningVector, make_a, make_b
from .portrait import _TAKE_ALL, Portrait, commutator, tree_shape

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
    "enumerate_quotient",
]

DEFAULT_BUDGET = 10_000_000

_GEN_COORDS = ((1, 0), (0, 1), (-1, 0), (0, -1))


# Deepest level accepted anywhere.  Portraits stop well before it (see
# MAX_INTERNAL_VERTICES); past it even the exponent k of the predicted order
# p^k grows too long to compute.
MAX_LEVEL = 64

# Orders p^k with k up to this bound are written in digits, larger ones as
# "p^k": past it a decimal expansion is long to read, and past a few thousand
# digits Python refuses to convert it to text at all.
WRITTEN_EXPONENT_MAX = 64


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would pass the element budget."""

    def __init__(self, budget: int, partial: int, predicted: int | str | None = None):
        self.budget = budget
        self.partial = partial
        self.predicted = predicted
        detail = f"predicted order {predicted}" if predicted else f"stopped at {partial} elements"
        super().__init__(f"enumeration budget {budget} exceeded ({detail})")


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
        self.keys = frozenset(x.labels for x in elements)
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
        """A generating subset, extracted greedily in canonical element order."""
        if self._generators is None:
            gens: list[Portrait] = []
            have = {self.group.identity.labels}
            for x in sorted(self.elements):
                if x.labels not in have:
                    gens.append(x)
                    closed = _walk(self.group, [self.group.identity], _right(gens))
                    have = {y.labels for y in closed}
            self._generators = tuple(gens)
        return self._generators


def _walk(
    group: "QuotientGroup", start: Iterable[Portrait], steps: list[Callable]
) -> list[Portrait]:
    """The interned elements reachable from start under the unary step maps,
    in discovery order, start first."""
    elements, index = group.elements, group._index
    found = [elements[index[x.labels]] for x in start]
    seen = {x.labels for x in found}
    for x in found:  # grows while it is read: breadth-first order
        for step in steps:
            key = step(x).labels
            if key not in seen:
                seen.add(key)
                found.append(elements[index[key]])
    return found


def _right(gens: Iterable[Portrait]) -> list[Callable]:
    """Step maps x -> x*g."""
    return [lambda x, g=g: x * g for g in gens]


def _distinct(xs: Iterable[Portrait]) -> list[Portrait]:
    """The non-identity elements of xs, each once, in first-seen order."""
    return list({x.labels: x for x in xs if not x.is_identity()}.values())


class QuotientGroup:
    """The level-n quotient of the GGS group with a given defining vector."""

    def __init__(self, vector: DefiningVector, n: int, budget: int = DEFAULT_BUDGET):
        # Checked before the tree is built: at a deep level the tree alone
        # can outgrow memory.
        predicted = written_order(vector, n)
        if exceeds_budget(vector, n, budget):
            raise BudgetExceeded(budget, 0, predicted)
        self.vector = vector
        self.shape = tree_shape(vector.p, n)
        self.budget = budget

        self.a = make_a(self.shape)
        self.b = make_b(vector, self.shape)
        self.a_inv = self.a.inverse()
        self.b_inv = self.b.inverse()
        self.identity = Portrait.identity(self.shape)

        # The walk inlines Portrait.__mul__: the labels of x*g are
        # lx + lg o px, and a Portrait (with the composed vertex permutation
        # px then pg) is built only for labels not seen before.
        gens = [
            (g.labels, g.vertex_perm(), dc)
            for g, dc in zip((self.a, self.b, self.a_inv, self.b_inv), _GEN_COORDS)
        ]
        p = vector.p
        shape, reduce = self.shape, self.shape.reduce
        raw = Portrait._raw
        self.identity.vertex_perm()
        elements = [self.identity]
        index: dict[bytes, int] = {self.identity.labels: 0}
        coords: list[tuple[int, int]] | None = [(0, 0)]
        qi = 0
        while qi < len(elements):
            x = elements[qi]
            cx = coords[qi] if coords is not None else None
            qi += 1
            lx, px = x.labels, x._perm
            take = itemgetter(*px) if len(px) > 1 else _TAKE_ALL
            for lg, pg, dc in gens:
                key = bytes(map(add, lx, take(lg))).translate(reduce)
                known = index.get(key)
                if known is None:
                    y = raw(shape, key)
                    y._perm = take(pg)
                    index[key] = len(elements)
                    elements.append(y)
                    if coords is not None:
                        coords.append(((cx[0] + dc[0]) % p, (cx[1] + dc[1]) % p))
                    if len(elements) > budget:
                        raise BudgetExceeded(budget, len(elements), predicted)
                elif coords is not None:
                    cy = ((cx[0] + dc[0]) % p, (cx[1] + dc[1]) % p)
                    if coords[known] != cy:
                        if n >= 2:
                            raise RuntimeError(
                                "exponent-sum coordinates conflicted at level >= 2"
                            )
                        coords = None  # level 1: b collapses onto the identity
        self.elements: tuple[Portrait, ...] = tuple(elements)
        self._index = index
        self.coords: tuple[tuple[int, int], ...] | None = (
            tuple(coords) if coords is not None else None
        )
        self.cache: dict[str, object] = {}

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

    def element(self, key: bytes | str) -> Portrait:
        """The interned element with the given label key or text encoding."""
        if isinstance(key, str):
            key = Portrait.decode(key).labels
        return self.elements[self._index[key]]

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
        one translate per vertex, by the table adding l_x[k]; labels are below
        p, so reduce[s:] (padded back to 256 bytes) adds s mod p.
        """
        columns = self.label_columns()
        m = len(columns)
        reduce = self.shape.reduce
        shifts = [reduce[s:] + bytes(s) for s in range(self.vector.p)]
        out = bytearray(len(self.elements) * m)
        for k, (source, shift) in enumerate(zip(x.vertex_perm(), x.labels)):
            out[k::m] = columns[source].translate(shifts[shift])
        return out

    def coords_of(self, x: Portrait) -> tuple[int, int]:
        """Exponent sums of (a, b) modulo the derived subgroup."""
        if self.coords is None:
            raise ValueError("coordinates are undefined for the level-1 quotient")
        return self.coords[self._index[x.labels]]

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
        return [lambda x, c=c, ci=ci: x.conjugate_by(c, ci) for c, ci in pairs]

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
        if "center" not in self.cache:
            members = tuple(
                g for g in self.elements if g * self.a == self.a * g and g * self.b == self.b * g
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
        """The p+1 maximal subgroups <a, G'>, <b, G'>, <ab^i, G'> for n >= 2."""
        if self.shape.n < 2:
            raise ValueError("maximal subgroups are tabulated for levels >= 2")
        if "maximal" in self.cache:
            return self.cache["maximal"]  # type: ignore[return-value]
        derived = self.derived_subgroup()
        p = self.vector.p
        if len(self) != p * p * len(derived):
            raise RuntimeError("derived subgroup does not have index p^2")
        tops = [self.a, self.b] + [self.a * self.b**i for i in range(1, p)]
        elements, index = self.elements, self._index
        reduce = self.shape.reduce
        # The labels of w * x^j are l_w + l_(x^j) o pi_w: one itemgetter per
        # derived element w serves every power.
        cosets = [(w.labels, itemgetter(*w.vertex_perm())) for w in derived.elements]
        out = []
        for x in tops:
            members: list[Portrait] = []
            power = self.identity
            for _ in range(p):
                lp = power.labels
                members.extend(
                    elements[index[bytes(map(add, lw, take(lp))).translate(reduce)]]
                    for lw, take in cosets
                )
                power = power * x
            out.append(SubgroupHandle(self, tuple(members)))
        self.cache["maximal"] = out
        return out

    def conjugacy_class(self, x: Portrait) -> tuple[Portrait, ...]:
        """Orbit of x under conjugation, in discovery order, as interned
        elements (which already carry their vertex permutations)."""
        return tuple(_walk(self, [x], self._conjugations()))

    def conjugacy_classes(self) -> list[tuple[Portrait, ...]]:
        """All conjugacy classes, in order of first appearance."""
        if "classes" in self.cache:
            return self.cache["classes"]  # type: ignore[return-value]
        assigned: set[bytes] = set()
        classes = []
        for x in self.elements:
            if x.labels in assigned:
                continue
            orbit = self.conjugacy_class(x)
            assigned.update(y.labels for y in orbit)
            classes.append(orbit)
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
