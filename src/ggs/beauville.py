"""Beauville structures on enumerated quotients.

For a generating pair (x, y) the set Sigma(x, y) collects every conjugate
of the cyclic subgroups <x>, <y>, <xy>.  A Beauville structure is a pair
of generating triples whose Sigma sets meet only in the identity.

Every orbit is read off the element conjugacy classes: <z>^g = <z^g>, and
<s> is conjugate to <t> exactly when s is conjugate to a power of t.

Two engines are provided.  The literal one materializes Sigma member sets
and intersects them.  The signature engine reduces the same question to
conjugation orbits of order-p subgroups: a nontrivial element common to
two Sigma sets exists exactly when some cyclic group on one side and some
on the other have conjugate order-p subgroups (in a finite p-group every
nontrivial intersection of cyclic subgroups contains both their unique
minimal subgroups, which therefore coincide).  The signature engine is
exact and fast enough to exhaust; both engines are cross-checked in the
test suite against brute-force oracles that conjugate by every element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, itemgetter
from struct import Struct
from typing import Iterator, NamedTuple

from .certificate import CODE_VERSION, Certificate
from .generators import make_a, make_b
from .portrait import Portrait, PsiDecomposition, assemble, commutator, tree_shape
from .quotient import (
    BudgetExceeded,
    QuotientGroup,
    SubgroupHandle,
    coordinate_line,
    map_power_classes,
    p_power_chains,
)

__all__ = [
    "NotGeneratingError",
    "GeneratingTriple",
    "SigmaSet",
    "SpecialElements",
    "cyclic_subgroup",
    "subgroup_conjugation_orbit",
    "sigma_set",
    "triple_signature",
    "is_beauville_pair",
    "search_beauville",
    "build_special_elements",
    "SEARCH_ELEMENT_CAP",
    "LITERAL_SEARCH_CAP",
    "cyclic_powers",
]

SEARCH_ELEMENT_CAP = 100_000

# The literal engine keeps one materialized Sigma set per generating pair.
LITERAL_SEARCH_CAP = 2000

SEARCH_ORDER = (
    "pairs are scanned in label-vector order of (x1, y1) and then (x2, y2); "
    "the witness is the first successful pair under that order"
)

TABLE_ORDER = (
    "the signature table pairs the label-least member of each conjugacy class "
    "(classes in order of first appearance) with every element in enumeration "
    "order and keeps the first pair realizing each signature; the witness is "
    "the first pair of disjoint signatures (s1, s2) in table order, s1 first"
)


class NotGeneratingError(ValueError):
    """A pair expected to generate the quotient does not."""


@dataclass(frozen=True)
class GeneratingTriple:
    """A generating pair together with its product: (x, y, xy)."""

    x: Portrait
    y: Portrait
    xy: Portrait

    @classmethod
    def make(cls, group: QuotientGroup, x: Portrait, y: Portrait) -> "GeneratingTriple":
        if not group.is_generating_pair(x, y):
            raise NotGeneratingError(
                f"pair does not generate the quotient: {x.encode()} , {y.encode()}"
            )
        return cls(x, y, x * y)

    def members(self) -> tuple[Portrait, Portrait, Portrait]:
        return (self.x, self.y, self.xy)

    def encode(self) -> list[str]:
        return [self.x.encode(), self.y.encode(), self.xy.encode()]


@dataclass(frozen=True)
class SigmaSet:
    """Union of all conjugates of <x>, <y>, <xy> for one generating triple."""

    members: frozenset[bytes]
    triple: GeneratingTriple

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: Portrait | bytes) -> bool:
        key = x.labels if isinstance(x, Portrait) else x
        return key in self.members


class SpecialElements(NamedTuple):
    u: Portrait
    v: Portrait


def cyclic_powers(x: Portrait) -> list[Portrait]:
    """x, x^2, ... up to, not including, the first identity power."""
    powers = []
    g = x
    while not g.is_identity():
        powers.append(g)
        g = g * x
    return powers


def cyclic_subgroup(group: QuotientGroup, x: Portrait) -> SubgroupHandle:
    """The cyclic subgroup <x> as a handle."""
    return SubgroupHandle(group, (group.identity, *cyclic_powers(x)), (x,))


def subgroup_conjugation_orbit(
    group: QuotientGroup, members: frozenset[bytes]
) -> list[frozenset[bytes]]:
    """Orbit of a cyclic subgroup under conjugation: <x>^g = <x^g>, so the
    orbit is the subgroups generated by the class of a generator x, in the
    class's discovery order."""
    x = max(sorted(map(group.element, members)), key=Portrait.order)
    if cyclic_subgroup(group, x).keys != members:
        raise ValueError("conjugation orbits are taken of cyclic subgroups only")
    orbit = (cyclic_subgroup(group, y).keys for y in group.conjugacy_class(x))
    return list(dict.fromkeys(orbit))


def _conjugates_of_powers(group: QuotientGroup, z: Portrait) -> set[bytes]:
    """The nontrivial members of every conjugate of <z>: the classes of the
    powers of z."""
    members: set[bytes] = set()
    for w in cyclic_powers(z):
        if w.labels not in members:
            members.update(y.labels for y in group.conjugacy_class(w))
    return members


def sigma_set(triple: GeneratingTriple, group: QuotientGroup) -> SigmaSet:
    """Sigma of a triple: the identity and the classes of the powers of x, y, xy."""
    members = {group.identity.labels}
    for z in triple.members():
        members |= _conjugates_of_powers(group, z)
    return SigmaSet(frozenset(members), triple)


# -- socle-orbit signatures ----------------------------------------------------


def _socles(batch: list[Portrait]) -> list[bytes | None]:
    """Labels of the last nontrivial p-power of each member of a power class
    (a generator of the order-p subgroup of <x>), None for the identity."""
    exps, levels = p_power_chains(batch)
    return [levels[e - 1][j] if e else None for j, e in enumerate(exps)]


def _socle_data(group: QuotientGroup) -> tuple[dict[bytes, int], int]:
    """Per-element id of the conjugation orbit of its socle subgroup.  An
    orbit is named by the least class index among the powers of a socle, and
    the names are numbered densely in order of first appearance."""
    if "socle" in group.cache:
        return group.cache["socle"]  # type: ignore[return-value]
    classes = group.conjugacy_classes()
    class_of = {y.labels: c for c, cls in enumerate(classes) for y in cls}
    dense: dict[int, int] = {}  # orbit name -> id
    orbit_of: dict[int, int] = {}  # socle class -> id
    ids: dict[bytes, int] = {}
    for x, s in zip(group.elements, map_power_classes(_socles, group.elements)):
        if s is None:
            continue
        c = class_of[s]
        if c not in orbit_of:
            name = min(class_of[w.labels] for w in cyclic_powers(classes[c][0]))
            orbit_of[c] = dense.setdefault(name, len(dense))
        ids[x.labels] = orbit_of[c]
    group.cache["socle"] = (ids, len(dense))
    return ids, len(dense)


def triple_signature(group: QuotientGroup, triple: GeneratingTriple) -> frozenset[int]:
    """Socle-orbit ids of the triple; two Sigma sets meet nontrivially exactly
    when the signatures of their triples intersect."""
    ids, _ = _socle_data(group)
    return frozenset(
        ids[z.labels] for z in triple.members() if not z.is_identity()
    )


# -- pair verification and search -----------------------------------------------


def is_beauville_pair(
    t1: GeneratingTriple, t2: GeneratingTriple, group: QuotientGroup
) -> Certificate:
    """Decide whether two generating triples form a Beauville structure.

    The verdict comes from the literal Sigma member sets; witnesses on
    refutation name a smallest nontrivial common element.
    """
    for t in (t1, t2):
        if not group.is_generating_pair(t.x, t.y):
            raise NotGeneratingError(
                f"triple does not generate the quotient: {t.encode()}"
            )
    cert = Certificate(
        claim="beauville-pair",
        statement=(
            "the two generating triples have Sigma sets meeting only in the identity"
        ),
        params={
            "p": group.vector.p,
            "e": list(group.vector.e),
            "n": group.shape.n,
        },
        verdict="",
        exhaustive=True,
        element_count=len(group),
        code_version=CODE_VERSION,
    )
    s1 = sigma_set(t1, group)
    s2 = sigma_set(t2, group)
    common = s1.members & s2.members
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    cert.check("sigma_sizes", True, f"|Sigma_1|={len(s1)}, |Sigma_2|={len(s2)}")
    if len(common) == 1:
        cert.verdict = "verified"
    else:
        cert.verdict = "refuted"
        witness = min(k for k in common if any(k))
        cert.witnesses["common_element"] = group.element(witness).encode()
        cert.check(
            "intersection_trivial", False, f"{len(common) - 1} nontrivial common elements"
        )
    return cert


def _sorted_elements(group: QuotientGroup) -> list[Portrait]:
    if "sorted" not in group.cache:
        group.cache["sorted"] = sorted(group.elements)
    return group.cache["sorted"]  # type: ignore[return-value]


def _generating_pairs(group: QuotientGroup) -> Iterator[tuple[Portrait, Portrait]]:
    """All generating pairs in label-vector order."""
    ordered = _sorted_elements(group)
    for x in ordered:
        for y in ordered:
            if group.is_generating_pair(x, y):
                yield x, y


def _signature_table(group: QuotientGroup) -> dict[frozenset[int], list[str]]:
    """All realizable triple signatures, complete up to conjugation.

    Signatures are conjugation-invariant, so scanning class representatives
    against every element covers every generating pair up to simultaneous
    conjugation, which realizes every signature.  Each signature maps to the
    first pair realizing it, in the order stated by TABLE_ORDER.
    """
    if "signatures" in group.cache:
        return group.cache["signatures"]  # type: ignore[return-value]
    ids, count = _socle_data(group)
    elements = group.elements
    table: dict[frozenset[int], list[str]] = {}
    if group.coords is None:
        # Level 1: the coordinates do not decide generation, and members of a
        # generating triple may be the identity.
        for cls in group.conjugacy_classes():
            rep = min(cls)
            for y in elements:
                if group.is_generating_pair(rep, y):
                    sig = frozenset(
                        ids[z.labels] for z in (rep, y, rep * y) if not z.is_identity()
                    )
                    if sig not in table:
                        table[sig] = [rep.encode(), y.encode()]
        group.cache["signatures"] = table
        return table
    # From level 2 on, {x, y} generates exactly when the coordinate
    # determinant is nonzero, and then x, y and xy are all nontrivial.  Each
    # generating pair keys as one integer s_y * count + s_xy; dict.fromkeys keeps
    # the distinct keys in order of first occurrence, which is the order in
    # which the first pairs realizing each signature occur.
    p = group.vector.p
    socle_of = ids.__getitem__
    split = Struct(f"{group.shape.internal_count}s").iter_unpack
    first = itemgetter(0)
    # Per line through the origin of the coordinate plane, that is per
    # maximal subgroup: the mask of the elements off it and off the origin
    # (those completing a generating pair), their scaled socle ids and their
    # positions.
    lines = group.lines()
    partners_of: dict[int, tuple[bytes, list[int], list[int]]] = {}
    for cls in group.conjugacy_classes():
        rep = min(cls)
        line = coordinate_line(*group.coords_of(rep), p)
        if line == p + 1:
            continue  # a Frattini element lies in no generating pair
        if line not in partners_of:
            off_line = bytearray([1]) * 256
            off_line[line] = off_line[p + 1] = 0
            mask = lines.translate(off_line)
            partners_of[line] = (
                mask,
                [socle_of(y.labels) * count for y in compress(elements, mask)],
                list(compress(range(len(elements)), mask)),
            )
        mask, scaled, partners = partners_of[line]
        products = compress(split(group.left_products(rep)), mask)
        keys = list(map(add, scaled, map(socle_of, map(first, products))))
        sr = ids[rep.labels]
        for key in dict.fromkeys(keys):
            sig = frozenset((sr, *divmod(key, count)))
            if sig not in table:
                y = elements[partners[keys.index(key)]]
                table[sig] = [rep.encode(), y.encode()]
    group.cache["signatures"] = table
    return table


def search_beauville(group: QuotientGroup, strategy: str = "pruned") -> Certificate:
    """Search for a Beauville structure, or exhaust and report that none exists.

    strategy "pruned" decides existence on the complete signature table and
    takes the witness from it: the stored pairs of the first two disjoint
    signatures, confirmed by the literal pair check.  strategy "exhaustive"
    is the literal oracle: it walks every generating pair and intersects
    materialized Sigma member sets.
    """
    if strategy not in ("pruned", "exhaustive"):
        raise ValueError(f"unknown search strategy {strategy!r}")
    if len(group) > SEARCH_ELEMENT_CAP:
        raise BudgetExceeded(SEARCH_ELEMENT_CAP, len(group))
    cert = Certificate(
        claim="beauville-search",
        statement="the quotient admits a Beauville structure",
        params={
            "p": group.vector.p,
            "e": list(group.vector.e),
            "n": group.shape.n,
            "strategy": strategy,
        },
        verdict="",
        exhaustive=True,
        element_count=len(group),
        code_version=CODE_VERSION,
    )
    if strategy == "exhaustive":
        return _search_literal(group, cert)
    return _search_pruned(group, cert)


def _search_literal(group: QuotientGroup, cert: Certificate) -> Certificate:
    if len(group) > LITERAL_SEARCH_CAP:
        raise BudgetExceeded(LITERAL_SEARCH_CAP, len(group))
    one = frozenset([group.identity.labels])
    conjugates: dict[bytes, frozenset[bytes]] = {}

    def union_for(z: Portrait) -> frozenset[bytes]:
        if z.labels not in conjugates:
            conjugates[z.labels] = frozenset(_conjugates_of_powers(group, z))
        return conjugates[z.labels]

    pairs: list[tuple[Portrait, Portrait]] = []
    sigma_index: list[int] = []
    distinct: dict[frozenset[bytes], int] = {}
    sigmas: list[frozenset[bytes]] = []
    for x, y in _generating_pairs(group):
        sigma = one | union_for(x) | union_for(y) | union_for(x * y)
        idx = distinct.get(sigma)
        if idx is None:
            idx = len(sigmas)
            distinct[sigma] = idx
            sigmas.append(sigma)
        pairs.append((x, y))
        sigma_index.append(idx)

    disjoint: set[tuple[int, int]] = set()
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            if len(sigmas[i] & sigmas[j]) == 1:
                disjoint.add((i, j))
                disjoint.add((j, i))
    cert.notes.append("literal engine: no pruning, member-set intersections")
    cert.notes.append(SEARCH_ORDER)
    cert.check(
        "search_space",
        True,
        f"{len(pairs)} generating pairs, {len(sigmas)} distinct Sigma sets",
    )
    if not disjoint:
        cert.verdict = "refuted"
        return cert
    partnered = {i for i, _ in disjoint}
    first = next(k for k, idx in enumerate(sigma_index) if idx in partnered)
    i1 = sigma_index[first]
    second = next(
        k for k, idx in enumerate(sigma_index) if (i1, idx) in disjoint
    )
    return _searched_witness(group, cert, pairs[first], pairs[second])


def _searched_witness(
    group: QuotientGroup,
    cert: Certificate,
    pair1: tuple[Portrait, Portrait],
    pair2: tuple[Portrait, Portrait],
) -> Certificate:
    t1 = GeneratingTriple.make(group, *pair1)
    t2 = GeneratingTriple.make(group, *pair2)
    confirm = is_beauville_pair(t1, t2, group)
    if not confirm.verified:
        raise RuntimeError("search produced a pair the literal check rejects")
    cert.verdict = "verified"
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    cert.check("witness_confirmed", True, "literal Sigma intersection is trivial")
    return cert


def _search_pruned(group: QuotientGroup, cert: Certificate) -> Certificate:
    table = _signature_table(group)
    cert.check(
        "search_space",
        True,
        f"{len(table)} triple signatures over socle orbits, complete up to conjugacy",
    )
    cert.notes.append(TABLE_ORDER)
    found = _witness_hunt(group, table)
    if found is None:
        cert.verdict = "refuted"
        cert.notes.append(
            "no two realizable triples have disjoint socle-orbit signatures"
        )
        return cert
    return _searched_witness(group, cert, found[0], found[1])


def _witness_hunt(
    group: QuotientGroup, table: dict[frozenset[int], list[str]]
) -> tuple[tuple[Portrait, Portrait], tuple[Portrait, Portrait]] | None:
    """The stored pairs of the first two disjoint signatures, in table order."""
    sigs = list(table)
    for i, s1 in enumerate(sigs):
        for s2 in sigs[i + 1 :]:
            if not s1 & s2:
                (x1, y1), (x2, y2) = table[s1], table[s2]
                element = group.element
                return (element(x1), element(y1)), (element(x2), element(y2))
    return None


# -- distinguished central and stabilizer elements ------------------------------


def build_special_elements(group: QuotientGroup) -> SpecialElements:
    """The pair (u, v) used by the level-3 structure at p = 3.

    u is the central element whose sections one level down are three copies
    of [a, b]; v has sections ([a, b], 1, 1) and lies in the derived
    subgroup of the first-level stabilizer.
    """
    v_def = group.vector
    if v_def.p != 3 or not v_def.periodic or group.shape.n != 3:
        raise ValueError(
            "special elements are defined for the level-3 quotient at p=3 "
            "with a periodic defining vector"
        )
    sub = tree_shape(3, 2)
    comm = commutator(make_a(sub), make_b(v_def, sub))
    ident = Portrait.identity(sub)

    u = None
    for z in group.center():
        if z.is_identity():
            continue
        d = z.psi()
        if d.root_label == 0 and d.sections == (comm, comm, comm):
            u = z
    if u is None:
        raise RuntimeError("no central element has sections ([a,b],[a,b],[a,b])")

    v = assemble(PsiDecomposition(0, (comm, ident, ident)))
    if v not in group:
        raise RuntimeError("([a,b],1,1) did not land in the enumerated quotient")
    v = group.element(v.labels)
    stab = group.level_stabilizer(1)
    stab_derived = group.subgroup_commutator(stab, stab)
    if v not in stab_derived:
        raise RuntimeError("([a,b],1,1) is not in the stabilizer derived subgroup")
    return SpecialElements(u=u, v=v)
