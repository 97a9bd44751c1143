"""Independent slow oracles used to cross-check the library implementations.

Everything here deliberately takes a different route from the package code:
vertex maps are dictionaries keyed by letter tuples instead of flat arrays,
composition recovers labels from composed vertex maps instead of the label
formula, orders are found by repeated naive multiplication or from the
cycles of the leaf permutation, root multiplicity comes from a Taylor shift
instead of synthetic division, Sigma sets, conjugacy classes and normal
closures are built by literally conjugating with every element, socle
orbits by walking subgroup member sets under conjugation, the signature
table tests generation and forms products pair by pair (a second table
forms x*y for every element y of the group and looks each one up, with no
coset blocks), the Beauville search intersects materialized Sigma sets of
every generating pair, its witness rule is read off a full table of
disjoint pairs of Sigma sets, the quotient and its closures are walked one
element and one product at a time (the quotient both in coset order and
over the whole group), greedy generators are closed anew after every pick,
the conjugates of the power subgroups <(ab^j)^p> are walked on depth-3
portraits under conjugation by a and b and met by a search over every
(k, r) rotation of their depth-2 blocks rather than one valuation, and the
collision and exponent scans test every element rather than an affine basis
of each power class, the power lemma forms every instance (i, k) rather than
k = 1 alone, the triple-line check walks every pair of nonzero
coordinates rather than one point at a time, and the commutators [x, g] are
formed for every element g rather than read off the conjugacy class of x,
and the quotient's label rows are laid out row-major, one block of rows per
top representative with the cosets of st(1) copied from it, rather than
written one label column at a time.
The claims' domains are restated guard by guard (`parent_refuses`), as the
verifiers once wrote them, rather than read off the registry.
"""
from __future__ import annotations

from array import array
from itertools import compress, product
from math import comb, lcm
from operator import add, itemgetter
from struct import Struct
from typing import Sequence

from ggs import (
    BudgetExceeded,
    DefiningVector,
    GeneratingTriple,
    Portrait,
    QuotientGroup,
    TreeShape,
    commutator,
    is_beauville_pair,
    tree_shape,
)
from ggs import quotient, verifiers
from ggs.beauville import _first_disjoint, _group_certificate, _socle_data, cyclic_powers
from ggs.certificate import Certificate
from ggs.generators import _one_root_multiplicity
from ggs.portrait import make_a, make_b
from ggs.quotient import coordinate_line, map_power_classes


def internal_vertices(shape: TreeShape) -> list[tuple[int, ...]]:
    """All internal vertices (depth 0..n-1) in breadth-first, lexicographic order."""
    out: list[tuple[int, ...]] = []
    for depth in range(shape.n):
        out.extend(product(range(1, shape.p + 1), repeat=depth))
    return out


def label_dict(f: Portrait) -> dict[tuple[int, ...], int]:
    """Portrait labels as a dict keyed by vertex tuple."""
    return dict(zip(internal_vertices(f.shape), f.labels))


def portrait_from_dict(shape: TreeShape, labels: dict[tuple[int, ...], int]) -> Portrait:
    return Portrait(shape, [labels[u] for u in internal_vertices(shape)])


def naive_image(
    f: Portrait, vertex: tuple[int, ...], lab: dict[tuple[int, ...], int] | None = None
) -> tuple[int, ...]:
    """Image of a vertex, walking the original path and adding labels."""
    if lab is None:
        lab = label_dict(f)
    out: list[int] = []
    for k, x in enumerate(vertex):
        out.append(1 + (x - 1 + lab[vertex[:k]]) % f.shape.p)
    return tuple(out)


def naive_vertex_map(f: Portrait) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The full action on every vertex of depth 1..n."""
    shape = f.shape
    lab = label_dict(f)
    out = {}
    for depth in range(1, shape.n + 1):
        for v in product(range(1, shape.p + 1), repeat=depth):
            out[v] = naive_image(f, v, lab)
    return out


def naive_compose(f: Portrait, g: Portrait) -> Portrait:
    """f then g, recovering labels from the composed vertex map."""
    assert f.shape == g.shape
    shape = f.shape
    fm, gm = naive_vertex_map(f), naive_vertex_map(g)
    composed = {v: gm[fm[v]] for v in fm}
    labels = {}
    for u in internal_vertices(shape):
        image = composed[u + (1,)]
        labels[u] = (image[len(u)] - 1) % shape.p
    return portrait_from_dict(shape, labels)


def naive_order(f: Portrait) -> int:
    """Order by repeated naive multiplication."""
    bound = f.shape.p ** f.shape.n
    g, k = f, 1
    while any(g.labels):
        g = naive_compose(g, f)
        k += 1
        assert k <= bound, "order exceeded the exponent bound"
    return k


def leaf_cycle_order(f: Portrait) -> int:
    """Order as the lcm of the cycle lengths of the action on the leaves."""
    leaves = {v: w for v, w in naive_vertex_map(f).items() if len(v) == f.shape.n}
    result, seen = 1, set()
    for start in leaves:
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = leaves[v]
            length += 1
        if length:
            result = lcm(result, length)
    return result


def shift_multiplicity(coeffs: list[int], p: int) -> int:
    """Multiplicity of 1 as a root, via the Taylor shift E(X+1).

    The coefficient of X^k in E(X+1) is sum_j c_j * C(j, k); the multiplicity
    of the root 1 of E is the number of leading zero coefficients of E(X+1).
    """
    deg = len(coeffs) - 1
    shifted = [
        sum(c * comb(j, k) for j, c in enumerate(coeffs)) % p
        for k in range(deg + 1)
    ]
    m = 0
    while m <= deg and shifted[m] == 0:
        m += 1
    return m


def brute_conjugates_of_powers(group: QuotientGroup, z: Portrait) -> frozenset[bytes]:
    """Every power of z, the identity included, conjugated by every element."""
    powers = [z]
    w = z * z
    while w != z:
        powers.append(w)
        w = w * z
    out = set()
    for g in group:
        gi = g.inverse()
        out.update((gi * pw * g).labels for pw in powers)
    return frozenset(out)


def brute_sigma(group: QuotientGroup, x: Portrait, y: Portrait) -> frozenset[bytes]:
    """Union of all conjugates of <x>, <y>, <xy>, conjugating by every element."""
    out = {group.identity.labels}
    for z in (x, y, x * y):
        out |= brute_conjugates_of_powers(group, z)
    return frozenset(out)


def commutator_scan(group: QuotientGroup, x: Portrait) -> frozenset[bytes]:
    """The label keys of the commutators [x, g], one formed for every element g."""
    return frozenset(commutator(x, g).labels for g in group.elements)


def brute_classes(group: QuotientGroup) -> list[frozenset[bytes]]:
    """Conjugacy classes as label sets, in order of first appearance: each
    element not yet placed is conjugated by every element as g^-1 * x * g."""
    pairs = [(g, g.inverse()) for g in group]
    placed: set[bytes] = set()
    classes = []
    for x in group:
        if x.labels not in placed:
            cls = frozenset((gi * x * g).labels for g, gi in pairs)
            placed |= cls
            classes.append(cls)
    return classes


def walk_subgroup_orbit(
    group: QuotientGroup, members: frozenset[bytes]
) -> list[frozenset[bytes]]:
    """Orbit of any subgroup under conjugation: member sets walked breadth
    first under conjugation by a and b, each member moved as g^-1 * x * g."""
    conj = [(group.a, group.a.inverse()), (group.b, group.b.inverse())]
    queue = [frozenset(members)]
    seen = set(queue)
    for current in queue:  # grows while it is read
        for g, gi in conj:
            image = frozenset((gi * group.element(k) * g).labels for k in current)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return queue


def walk_socle_data(group: QuotientGroup) -> tuple[list[int], int]:
    """Per-element socle-orbit ids by the subgroup walk, in enumeration order
    with 0 at the identity: each element's socle is the second-to-last entry
    of its p-power chain, and each new socle subgroup's whole orbit is walked
    and takes the next id."""
    ids: list[int] = []
    subgroup_ids: dict[frozenset[bytes], int] = {}
    count = 0
    for x in group:
        if x.is_identity():
            ids.append(0)
            continue
        key = frozenset(brute_generated(group, [x.p_powers()[-2]]))
        if key not in subgroup_ids:
            for image in walk_subgroup_orbit(group, key):
                subgroup_ids[image] = count
            count += 1
        ids.append(subgroup_ids[key])
    return ids, count


def element_walk(start: list[Portrait], steps: list) -> list[bytes]:
    """Labels reachable from start under the step maps (Portrait to
    Portrait), one element and one step at a time, in discovery order."""
    found = list(start)
    seen = {x.labels for x in found}
    for x in found:  # grows while it is read
        for step in steps:
            y = step(x)
            if y.labels not in seen:
                seen.add(y.labels)
                found.append(y)
    return [x.labels for x in found]


def power_conjugates(v: DefiningVector, j: int) -> frozenset[bytes]:
    """Labels of every conjugate of every power of w_j = (ab^j)^p at depth 3,
    walked under conjugation by a and b: <(ab^i)^p> is conjugate to <w_j>
    at level 3 exactly when (ab^i)^p is among them."""
    shape = tree_shape(v.p, 3)
    a, b = make_a(shape), make_b(v, shape)
    w = (a * b**j) ** v.p
    steps = [lambda x, g=g, gi=g.inverse(): gi * x * g for g in (a, b)]
    return frozenset(element_walk([w**k for k in range(1, v.p)], steps))


def rotation_search_meets(v: DefiningVector, i: int, j: int) -> tuple[int, int] | None:
    """The (k, r) search the last-layer test once ran: the first k in F_p^*,
    r in Z_p for which each depth-2 block x + r of w_i = (ab^i)^p is block x
    of w_j^k rotated by some u_x (found with bytes.find in the doubled
    block), with u zero or in U = ((X-1)^m), m the multiplicity of 1 as a
    root of e; None when there is none, so that <w_i> and <w_j> are not
    conjugate at level 3.  About p^2 block matches, against the closed form's
    one valuation."""
    p = v.p
    shape = tree_shape(p, 3)
    a, b = make_a(shape), make_b(v, shape)
    start = shape.level_starts[2]
    blocks = {}
    for x in (i, j):
        labels = ((a * b**x) ** p).labels
        blocks[x] = [labels[start + y * p : start + y * p + p] for y in range(p)]
    m = _one_root_multiplicity(v.e, p)
    times = [bytes(k * y % p for y in range(256)) for k in range(p)]
    doubled = [[(x * 2).translate(table) for x in blocks[j]] for table in times]
    for k, r in product(range(1, p), range(p)):
        u = []
        for x in range(p):
            u.append(doubled[k][x].find(blocks[i][(x + r) % p]))
            if u[-1] < 0:
                break
        else:
            if not any(u) or _one_root_multiplicity(u, p) >= m:
                return k, r
    return None


def brute_coords(group: QuotientGroup, x: Portrait) -> tuple[int, int]:
    """Image of x in G/G' as (a-exponent, b-exponent), by scanning all cosets
    of G' built as the normal closure of [a, b]."""
    a, b = group.a, group.b
    derived = brute_normal_closure(group, [commutator(a, b)], [a, b])
    for i in range(group.vector.p):
        for j in range(group.vector.p):
            rep = a**i * b**j
            if (rep.inverse() * x).labels in derived:
                return (i, j)
    raise AssertionError("element not covered by the a^i b^j G' cosets")


def brute_generated(group: QuotientGroup, gens: list[Portrait]) -> dict[bytes, Portrait]:
    """<gens> keyed by labels, closed under right multiplication with a stack."""
    members = {group.identity.labels: group.identity}
    stack = [group.identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = x * g
            if y.labels not in members:
                members[y.labels] = y
                stack.append(y)
    return members


def brute_normal_closure(
    group: QuotientGroup, seeds: list[Portrait], conjugators: list[Portrait]
) -> frozenset[bytes]:
    """Smallest subgroup holding every seed and closed under conjugation by
    <conjugators>: each seed is conjugated by every element g of
    <conjugators> as g^-1 * s * g, and each conjugate not yet in the subgroup
    joins the generators, which are closed under multiplication with a stack."""
    distinct = list({s.labels: s for s in seeds}.values())
    gens: list[Portrait] = []
    members = brute_generated(group, gens)
    for g in brute_generated(group, conjugators).values():
        gi = g.inverse()
        for s in distinct:
            c = gi * s * g
            if c.labels not in members:
                gens.append(c)
                members = brute_generated(group, gens)
    return frozenset(members)


def queue_walk(
    v: DefiningVector, n: int
) -> tuple[list[Portrait], tuple[tuple[int, int], ...] | None]:
    """The level-n quotient in coset order, one element and one product at
    a time: H = st(1)/st(n) is walked as a queue, each element in turn
    multiplied on the right by b_j = b^(a^j) for j = 0..p-1, and then the
    cosets H*a^r, r = 1..p-1, are appended, each h*a^r formed as a product.
    Returns the elements in that order, each product keeping the vertex
    permutation composed from its operands, and the exponent-sum coordinates
    (None at level 1, where b is trivial); on H the b-coordinate is checked
    to grow by 1 along every product."""
    shape = tree_shape(v.p, n)
    a, b = make_a(shape), make_b(v, shape)
    gens = [b.conjugate_by(a**j) for j in range(v.p)]
    powers = [a**r for r in range(1, v.p)]
    for g in gens + powers:
        g.vertex_perm()
    one = Portrait.identity(shape)
    one.vertex_perm()
    stabilizer, coords = [one], {one.labels: (0, 0)}
    for x in stabilizer:  # grows while it is read
        cy = (0, (coords[x.labels][1] + 1) % v.p)
        for g in gens:
            y = x * g
            if y.labels not in coords:
                coords[y.labels] = cy
                stabilizer.append(y)
            elif coords[y.labels] != cy:
                assert n == 1, "exponent-sum coordinates conflicted at level >= 2"
    elements = list(stabilizer)
    for r, g in enumerate(powers, 1):
        for x in stabilizer:
            y = x * g
            coords[y.labels] = (r, coords[x.labels][1])
            elements.append(y)
    if n == 1:
        return elements, None
    return elements, tuple(coords[x.labels] for x in elements)


def four_generator_walk(
    v: DefiningVector, n: int
) -> tuple[list[Portrait], tuple[tuple[int, int], ...] | None]:
    """The level-n quotient by a one-element-at-a-time queue walk over the
    whole group: each element in turn is multiplied on the right by a, b,
    a^-1 and b^-1, and products not seen before join the queue.  Returns the
    elements in queue order, each product keeping the vertex permutation
    composed from its operands, and the exponent-sum coordinates (None at
    level 1, where b is trivial), checked along every product."""
    shape = tree_shape(v.p, n)
    a, b = make_a(shape), make_b(v, shape)
    steps = [(a, (1, 0)), (b, (0, 1)), (a.inverse(), (-1, 0)), (b.inverse(), (0, -1))]
    for g, _ in steps:
        g.vertex_perm()
    one = Portrait.identity(shape)
    one.vertex_perm()
    elements, coords = [one], {one.labels: (0, 0)}
    for x in elements:  # grows while it is read
        cx = coords[x.labels]
        for g, (da, db) in steps:
            y = x * g
            cy = ((cx[0] + da) % v.p, (cx[1] + db) % v.p)
            if y.labels not in coords:
                coords[y.labels] = cy
                elements.append(y)
            elif coords[y.labels] != cy:
                assert n == 1, "exponent-sum coordinates conflicted at level >= 2"
    if n == 1:
        return elements, None
    return elements, tuple(coords[x.labels] for x in elements)


def moved(columns: Sequence[bytes], sources: Sequence[int], row: bytes, p: int) -> bytearray:
    """The concatenated rows whose label u is columns[sources[u]] + row[u]
    mod p: one translate per column, the class maps' rows written out."""
    m, shifts = len(columns), quotient._add_tables(p)
    out = bytearray(len(columns[0]) * m)
    for u, (v, s) in enumerate(zip(sources, row)):
        out[u::m] = columns[v].translate(shifts[s])
    return out


def left_products(group: QuotientGroup, x: Portrait, stop: int | None = None) -> bytearray:
    """The labels of x*y for every element y, or for the elements before
    index stop, concatenated in enumeration order: label u of x*y is
    l_x(u) + l_y(pi_x(u)) mod p, a moved with sources pi_x and row l_x."""
    columns = group.cols if stop is None else [column[:stop] for column in group.cols]
    return moved(columns, x.vertex_perm(), x.labels, group.vector.p)


def row_major_layout(group: QuotientGroup) -> bytes:
    """The label rows of the quotient laid out row-major, block by block.

    The tops (labels above depth n-1) of st(1) are walked breadth-first
    under the b^(a^j), keeping the first element met with each; the last
    layer is listed from the group's basis by labelwise sums, the vector at
    offset sum k_t * p^t being sum k_t * basis[t].  Each representative
    gives one block, itself plus every vector of the layer (one _moved
    over the layer's columns), and each coset r = 1..p-1 of st(1) is a copy
    of H's blocks with the root labels set to r."""
    shape, p = group.shape, group.vector.p
    m, cut = shape.internal_count, shape.level_starts[shape.n - 1]
    steps = [group.b.conjugate_by(group.a**j) for j in range(p)]
    reps, tops = [group.identity], {group.identity.labels[:cut]}
    for x in reps:  # grows while it is read
        for y in (x * g for g in steps):
            if y.labels[:cut] not in tops:
                tops.add(y.labels[:cut])
                reps.append(y)
    span = []
    for offset in range(p ** len(group.layer_basis)):
        row = [0] * m
        for t, (vector, _) in enumerate(group.layer_basis):
            k = offset // p**t % p
            row = [(x + k * y) % p for x, y in zip(row, vector)]
        span.append(bytes(row))
    columns = quotient._columns(b"".join(span), m)
    blocks = [moved(columns, range(m), rep.labels, p) for rep in reps]
    for r in range(1, p):
        for block in blocks[: len(reps)]:
            copy = bytearray(block)
            copy[::m] = bytes([r]) * len(span)
            blocks.append(copy)
    return b"".join(blocks)


def greedy_generators(group: QuotientGroup, members) -> list[Portrait]:
    """Generators picked in label order, each one not yet generated by those
    before it; after each pick the subgroup is closed anew from scratch."""
    gens: list[Portrait] = []
    have = brute_generated(group, gens)
    for x in sorted(members):
        if x.labels not in have:
            gens.append(x)
            have = brute_generated(group, gens)
    return gens


def two_level_b_labels(p: int, e: tuple[int, ...]) -> list[int]:
    """Depth-2 recursive generator spelled out: root 0, children e_1..e_{p-1}, 0."""
    assert len(e) == p - 1
    return [0, *[x % p for x in e], 0]


def random_portrait(rng, shape: TreeShape) -> Portrait:
    return Portrait(shape, [rng.randrange(shape.p) for _ in range(shape.internal_count)])


def shapes_for_tests() -> list[TreeShape]:
    return [tree_shape(3, 1), tree_shape(3, 2), tree_shape(3, 3), tree_shape(5, 2)]


def reference_signature_table(group: QuotientGroup) -> dict[frozenset[int], list[str]]:
    """Signature table by the pair-by-pair route: generation from
    `is_generating_pair` and the product from `Portrait.__mul__`."""
    ids, _ = _socle_data(group)
    socle_of = dict(zip(group.label_keys, ids))
    table: dict[frozenset[int], list[str]] = {}
    for cls in group.conjugacy_classes():
        rep = min(cls)
        for y in group.elements:
            if not group.is_generating_pair(rep, y):
                continue
            sig = frozenset(
                socle_of[z.labels] for z in (rep, y, rep * y) if not z.is_identity()
            )
            if sig not in table:
                table[sig] = [rep.encode(), y.encode()]
    return table


def whole_group_signature_table(group: QuotientGroup) -> dict[frozenset[int], list[str]]:
    """Signature table from level 2 on with one product and one socle
    lookup per element of the group: each class representative x forms x*y
    for every y at once (`left_products`) and looks every product up, with
    no use of the coset structure of the enumeration."""
    assert group.coords is not None, "generation is read off the coordinates"
    ids, count = _socle_data(group)
    elements = group.elements
    table: dict[frozenset[int], list[str]] = {}
    p = group.vector.p
    socle_of = dict(zip(group.label_keys, ids)).__getitem__
    split = Struct(f"{group.shape.internal_count}s").iter_unpack
    first = itemgetter(0)
    scale = [s * count for s in range(count)]
    partners_of: dict[int, tuple[bytes, list[int], array]] = {}
    for cls in group.conjugacy_classes():
        rep = min(cls)
        line = coordinate_line(*group.coords_of(rep), p)
        if line == p + 1:
            continue
        if line not in partners_of:
            mask = group.line_mask(*(j for j in range(p + 1) if j != line))
            partners_of[line] = (
                mask,
                [scale[socle_of(y.labels)] for y in compress(elements, mask)],
                array("I", compress(range(len(elements)), mask)),
            )
        mask, scaled, partners = partners_of[line]
        products = compress(split(left_products(group, rep)), mask)
        keys = list(map(add, scaled, map(socle_of, map(first, products))))
        sr = socle_of(rep.labels)
        for key in dict.fromkeys(keys):
            sig = frozenset((sr, *divmod(key, count)))
            if sig not in table:
                y = elements[partners[keys.index(key)]]
                table[sig] = [rep.encode(), y.encode()]
    return table


# The literal search keeps one materialized Sigma set per distinct set.
LITERAL_SEARCH_CAP = 2000

SEARCH_ORDER = (
    "pairs are scanned in label-vector order of (x1, y1) and then (x2, y2); "
    "the witness is the first successful pair under that order"
)


def search_literal(group: QuotientGroup) -> Certificate:
    """The Beauville search with no pruning: every generating pair in
    label-vector order, the Sigma sets materialized and intersected, the
    witness by the search's rule (_first_disjoint) and confirmed by the
    literal pair check.  Raises BudgetExceeded past LITERAL_SEARCH_CAP."""
    if len(group) > LITERAL_SEARCH_CAP:
        raise BudgetExceeded(
            LITERAL_SEARCH_CAP,
            len(group),
            reason=f"literal search handles at most {LITERAL_SEARCH_CAP} elements; "
            f"this quotient has {len(group)}",
        )
    cert = _group_certificate(
        group, "beauville-search", "the quotient admits a Beauville structure"
    )
    one = frozenset([group.identity.labels])
    class_of: dict[bytes, frozenset[bytes]] = {}  # the class of each element, as keys
    for cls in group.conjugacy_classes():
        keys = frozenset(x.labels for x in cls)
        class_of.update(dict.fromkeys(keys, keys))
    conjugates: dict[bytes, frozenset[bytes]] = {}
    interned: dict[frozenset[bytes], frozenset[bytes]] = {}

    def union_for(z: Portrait) -> frozenset[bytes]:
        """The classes of the nontrivial powers of z, one shared object per
        distinct set."""
        if z.labels not in conjugates:
            union = frozenset().union(*(class_of[w.labels] for w in cyclic_powers(z)))
            conjugates[z.labels] = interned.setdefault(union, union)
        return conjugates[z.labels]

    # Sigma depends only on the three unions, so pairs are first deduplicated
    # on them (shared objects: hashes cached, equality by identity), and each
    # Sigma is formed once per distinct triple of unions, in order.
    first_of_unions: dict[tuple[frozenset[bytes], ...], tuple[Portrait, Portrait]] = {}
    pairs = 0
    ordered = sorted(group.elements)
    for x in ordered:
        for y in ordered:
            if group.is_generating_pair(x, y):
                pairs += 1
                first_of_unions.setdefault((union_for(x), union_for(y), union_for(x * y)), (x, y))
    first_pair: dict[frozenset[bytes], tuple[Portrait, Portrait]] = {}
    for (ux, uy, uxy), pair in first_of_unions.items():
        first_pair.setdefault(one | ux | uy | uxy, pair)
    cert.notes.append("literal engine: no pruning, member-set intersections")
    cert.notes.append(SEARCH_ORDER)
    cert.check(
        "search_space",
        True,
        f"{pairs} generating pairs, {len(first_pair)} distinct Sigma sets",
    )
    found = _first_disjoint(list(first_pair), lambda s1, s2: len(s1 & s2) == 1)
    if found is None:
        cert.verdict = "refuted"
        return cert
    t1, t2 = (GeneratingTriple.make(group, *first_pair[s]) for s in found)
    if not is_beauville_pair(t1, t2, group).verified:
        raise RuntimeError("search produced a pair the literal check rejects")
    cert.verdict = "verified"
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    cert.check("witness_confirmed", True, "literal Sigma intersection is trivial")
    return cert


def pair_table_witness(sigmas: list[frozenset]) -> tuple[int, int] | None:
    """The literal search's witness by a full table of disjoint pairs: given
    the Sigma set of every generating pair in scan order, the positions of
    the first pair whose set meets some other set only in the identity, and
    of the first pair whose set meets that one so.  None when no two sets
    meet so."""
    distinct = list(dict.fromkeys(sigmas))
    index = [distinct.index(s) for s in sigmas]
    disjoint: set[tuple[int, int]] = set()
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            if len(distinct[i] & distinct[j]) == 1:
                disjoint |= {(i, j), (j, i)}
    if not disjoint:
        return None
    partnered = {i for i, _ in disjoint}
    first = next(k for k, i in enumerate(index) if i in partnered)
    second = next(k for k, i in enumerate(index) if (index[first], i) in disjoint)
    return first, second


# The two scans below are the element-by-element versions of
# verifiers._exponent_check and verifiers._collision_scan.  They read the
# p-power readers through ggs.quotient and the verifier's helpers through
# ggs.verifiers, so a test that patches one of them patches the oracle alike.


def element_exponent_check(cert: Certificate, group: QuotientGroup) -> bool:
    """Every element's order divides p, tested on every element."""
    p, keys = group.vector.p, group.label_keys
    orders = map_power_classes(quotient.orders, group)
    bad = [key for key, o in zip(keys, orders) if o > p]
    if bad:
        cert.witnesses["exponent_witness"] = group.element(min(bad)).encode()
    return cert.check(
        "exponent_p",
        not bad,
        f"all {len(group)} elements have order dividing {p}",
    )


def element_collision_scan(cert: Certificate, group: QuotientGroup) -> bool:
    """The power lemma tested on every element of the lines 1 + i: order p^n
    and g^(p^(n-1)) = z^(j*alpha) for its b-coordinate j; at level 2, <z> is
    the center."""
    v, n = group.vector, group.shape.n
    p = v.p
    z = verifiers._central_z(group.shape)
    expected = [(z ** (j * v.alpha)).labels for j in range(p)]
    order_bad: list[bytes] = []
    power_bad: list[bytes] = []
    on_lines = group.line_mask(*range(2, p + 1))
    total = on_lines.count(1)
    outside = compress(group.label_keys, on_lines)
    wanted = map(expected.__getitem__, compress(group.coords[1], on_lines))
    for key, want, (o, top) in zip(
        outside, wanted, map_power_classes(quotient.orders_and_tops, group, on_lines)
    ):
        if o != p**n:
            order_bad.append(key)
        if top != want:
            power_bad.append(key)
    ok = cert.check(
        "orders_p_to_n",
        not order_bad,
        f"all {total} coset elements across {p - 1} subgroups have order {p}^{n}",
    )
    ok &= cert.check(
        "power_collision",
        not power_bad,
        f"g^({p}^{n - 1}) equals z^(j*alpha) for every such g with b-coordinate j",
    )
    for name, bad in (("order", order_bad), ("power", power_bad)):
        if bad:
            cert.witnesses[f"{name}_witness"] = group.element(min(bad)).encode()
    if not ok:
        return False
    z_keys = frozenset(expected)
    cert.witnesses["common_subgroup"] = sorted(group.element(k).encode() for k in z_keys)
    return n != 2 or cert.check(
        "equals_center",
        z_keys == group.center().keys,
        "the common subgroup is the center of the level-2 quotient",
    )


def pair_triple_line_check(cert: Certificate, p: int) -> bool:
    """verifiers._triple_line_check by walking every pair of nonzero
    coordinates: each independent pair spans three distinct lines, not all
    of them lines 0 and 1.  Reads coordinate_line through the verifiers
    module, so a test that patches it there patches the oracle alike."""
    nonzero = [(x, y) for x in range(p) for y in range(p) if x or y]
    bad = None
    for (x1, y1), (x2, y2) in product(nonzero, repeat=2):
        if (x1 * y2 - y1 * x2) % p:
            members = ((x1, y1), (x2, y2), (x1 + x2, y1 + y2))
            spanned = {verifiers.coordinate_line(x, y, p) for x, y in members}
            if len(spanned) != 3 or spanned <= {0, 1}:
                bad = members[:2]
                break
    return cert.check(
        "triple_meets_power_line",
        bad is None,
        "every independent coordinate pair has a member on an ab^i line"
        + (f"; failed at {bad}" if bad else ""),
    )


def power_instance_scan(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """verifiers._power_lemma_checks by every instance
    (ab^i)^(k*p^(n-1)) = z^(k*i*alpha), i, k = 1..p-1, each k-th power
    formed as a product rather than read off the k = 1 instance; alpha
    summed from e, the sections of b read off its label dict, and z tested
    central by naive composition.  Reads _central_z through the verifiers
    module, so a test that patches it there patches the oracle alike."""
    p, alpha = v.p, sum(v.e) % v.p
    shape, sub = tree_shape(p, n), tree_shape(p, n - 1)
    a, b = make_a(shape), make_b(v, shape)
    z = verifiers._central_z(shape)
    cert.notes.append(verifiers.POWER_LEMMA)
    ok = cert.check("alpha_nonzero", alpha != 0, f"alpha = sum(e) = {alpha} mod {p}")
    lab = label_dict(b)
    sections = [
        portrait_from_dict(sub, {u: lab[(x,) + u] for u in internal_vertices(sub)})
        for x in range(1, p + 1)
    ]
    expected = [make_a(sub) ** (x % p) for x in v.e] + [make_b(v, sub)]
    ok &= cert.check(
        "b_section_sum",
        lab[()] == 0 and sections == expected,
        "psi(b) = (a^e_1, ..., a^e_(p-1), b), whose coordinates sum to (alpha, 1)",
    )
    z_powers = [z**m for m in range(p)]
    bad = []
    for i in range(1, p):
        step = (a * b**i) ** (p ** (n - 1))
        x = step
        for k in range(1, p):
            if x != z_powers[k * i * alpha % p]:
                bad.append((i, k))
            x = x * step
    ok &= cert.check(
        "power_closed_form",
        not bad,
        f"(ab^i)^(k*{p}^{n - 1}) = z^(k*i*{alpha}) for i, k = 1..{p - 1}"
        + (f"; failed at (i, k) = {bad[0]}" if bad else ""),
    )
    return ok & cert.check(
        "z_central",
        all(naive_compose(z, g) == naive_compose(g, z) for g in (a, b)),
        "z^a = z^b = z",
    )


GUPTA_SIDKI_LEMMAS = ("lemma-center", "lemma-comms-a", "lemma-comms-b")


def parent_refuses(claim: str, v: DefiningVector, n: int, m: int | None = None) -> bool:
    """Whether a run of `claim` on (v, n, m) is refused, by the guards each
    verifier once wrote for itself: the kind of vector, the level range, the
    level bounds 1..64, lifting's m > n (m defaulting to n + 1) and the
    guards that depend on p (thm-A at p = 3 starts at level 3, and the p = 3
    lemmas take p = 3 alone)."""
    p = v.p
    if not 1 <= n <= 64:
        return True
    periodic_only = {"thm-A", "thm-G2", "thm-G3", "lemma-orders", "prop-key", "eq-3.1"}
    if claim in periodic_only | set(GUPTA_SIDKI_LEMMAS) and not v.periodic:
        return True
    if claim in ("thm-B", "prop-collision") and v.periodic:
        return True
    if claim == "thm-A":
        return not (n >= 2 if p >= 5 else n >= 3)
    if claim in GUPTA_SIDKI_LEMMAS:
        return n != 3 or p != 3
    if claim == "lifting":
        return (n + 1 if m is None else m) <= n
    least = {"lemma-orders": 3, "prop-key": 3, "eq-3.1": 2, "prop-collision": 2}
    only = {"thm-G2": 2, "thm-G3": 3, "lemma-conjugates": 2}
    return n < least.get(claim, 1) or (claim in only and n != only[claim])
