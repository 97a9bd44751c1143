"""Property tests of the portrait kernels against the slow oracles.

The product kernel sums label bytes through an itemgetter and reduces them
with one translate, composes vertex permutations of the operands, and takes
a separate route on depth-1 trees; the power, order and p-power routines are
built on it.  Each is checked here on random portraits of shapes from depth 1
up to depth 5 and up to the largest supported prime, 127.  The reference
batched left product (`reference.left_products`), which forms x*y for
every element y of a quotient from its label columns, is checked the same
way, and so are the maps of a power class (elements sharing their labels
above the last level, and so one vertex permutation) that the subgroup
walks and class tables run through: right products by one element and
conjugates by one element, with the whole-group tables of x -> x^a and
x -> x^b built from them, and the batched p-power chains of a class.  The last-layer span
that the enumeration and the collision scan's premise add rows to is
checked against sums of multiples of its basis formed by plain loops.
Enumeration positions are computed, not looked up: `_position` is checked
against the enumeration order and on perturbed keys that are not elements,
and the class kernel (`_table`), which maps the first class in full and
shifts its digits for every other into one table of indices, against
products and conjugates formed one element at a time, on random defining
vectors.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ggs import (
    DefiningVector,
    Portrait,
    QuotientGroup,
    TreeShape,
    enumerate_quotient,
    tree_shape,
)
from ggs.generators import _guard_exponent
from ggs.portrait import MAX_INTERNAL_VERTICES, MAX_PRIME
from ggs.quotient import (
    _columns,
    _conjugation,
    _layer_span,
    _locator,
    _rows,
    _table,
    _times,
    _walk,
    p_power_chains,
)

from reference import (
    brute_normal_closure,
    leaf_cycle_order,
    left_products,
    moved,
    naive_compose,
    naive_order,
)
from test_cli import run_cli

SHAPES = [(3, 1), (3, 3), (3, 5), (5, 2), (7, 2), (127, 1), (127, 2)]

KERNEL_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def portraits(p: int, n: int) -> st.SearchStrategy[Portrait]:
    shape = tree_shape(p, n)
    size = shape.internal_count
    return st.lists(
        st.integers(0, p - 1), min_size=size, max_size=size
    ).map(lambda labels: Portrait(shape, labels))


def _fresh(x: Portrait) -> Portrait:
    """Same labels, no cached vertex permutation."""
    return Portrait(x.shape, x.labels)


@pytest.mark.parametrize("p,n", SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_product_matches_naive_compose(p, n, data):
    x = data.draw(portraits(p, n))
    y = data.draw(portraits(p, n))
    assert x * y == naive_compose(x, y)
    # Without y's permutation the product's is left to vertex_perm().
    assert (x * y)._perm is None
    y.vertex_perm()
    xy = x * y
    assert xy._perm is not None
    assert xy.vertex_perm() == _fresh(xy).vertex_perm()


@pytest.mark.parametrize("p,n", SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_power_matches_repeated_products(p, n, data):
    x = data.draw(portraits(p, n))
    k = data.draw(st.integers(0, 2 * p * p))
    expected = Portrait.identity(x.shape)
    for _ in range(k):
        expected = expected * x
    got = x**k
    assert got == expected
    assert got.vertex_perm() == _fresh(got).vertex_perm()
    assert x ** (-k) * got == Portrait.identity(x.shape)


@pytest.mark.parametrize("p,n", SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_order_and_p_powers_match_naive_order(p, n, data):
    x = data.draw(portraits(p, n))
    chain = x.p_powers()
    # Repeated naive products need up to p^n steps; past 3^5 the order is
    # read off the cycles of the leaf permutation instead.
    expected = naive_order(x) if p**n <= 3**5 else leaf_cycle_order(x)
    assert x.order() == p ** (len(chain) - 1) == expected
    assert chain[0] is x
    assert chain[-1].is_identity()
    assert not any(g.is_identity() for g in chain[:-1])
    for g, g_p in zip(chain, chain[1:]):
        assert g_p == g**p


@lru_cache(maxsize=None)
def _quotient(p: int, e: tuple[int, ...], n: int) -> QuotientGroup:
    return enumerate_quotient(DefiningVector(p, e), n)


@pytest.mark.parametrize(
    "p,e,n",
    [
        (3, (1, 0), 1),
        (3, (1, 0), 2),
        (3, (1, -1), 3),
        (5, (1, 4, 1, 4), 2),
        (7, (1, 2, 3, 4, 5, 6), 2),
    ],
)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_left_products_match_naive_compose(p, e, n, data):
    group = _quotient(p, e, n)
    # Any portrait of the shape, inside the quotient or not.
    x = data.draw(portraits(p, n))
    m = group.shape.internal_count
    products = left_products(group, x)
    assert len(products) == len(group) * m
    for j, y in enumerate(group.elements):
        assert products[j * m : (j + 1) * m] == naive_compose(x, y).labels
    stop = len(group) // p  # st(1), the first coset
    assert left_products(group, x, stop) == products[: stop * m]


# Trees the row kernels serve: at most 256 internal vertices.
BATCH_SHAPES = [(3, 1), (3, 3), (3, 4), (5, 2), (7, 2), (127, 2)]


def power_classes(p: int, n: int) -> st.SearchStrategy[list[Portrait]]:
    """Portraits sharing their labels above the last level."""
    shape = tree_shape(p, n)
    cut = shape.level_starts[n - 1]
    labels = st.integers(0, p - 1)
    top = st.lists(labels, min_size=cut, max_size=cut)
    rest = shape.internal_count - cut
    last = st.lists(labels, min_size=rest, max_size=rest)
    return top.flatmap(
        lambda head: st.lists(
            last.map(lambda tail: Portrait(shape, head + tail)), min_size=1, max_size=5
        )
    )


def _label_columns(xs: list[Portrait]) -> list[bytes]:
    """The label columns of xs, one per internal vertex."""
    return _columns(b"".join(x.labels for x in xs), xs[0].shape.internal_count)


def _label_rows(level: bytes, width: int) -> list[bytes]:
    """The label rows of a level of p_power_chains: its concatenated
    columns hold width members each."""
    return [level[j::width] for j in range(width)]


def _mapped_rows(xs: list[Portrait], step) -> bytearray:
    """The labels of the images of the power class xs under a class map,
    concatenated: one moved on the class's columns."""
    return moved(_label_columns(xs), *step(bytes(xs[0].vertex_perm())), xs[0].shape.p)


@pytest.mark.parametrize("p,n", BATCH_SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_right_product_columns_match_naive_compose(p, n, data):
    xs = data.draw(power_classes(p, n))
    g = data.draw(portraits(p, n))
    m = xs[0].shape.internal_count
    label_rows = _mapped_rows(xs, _times(g))
    assert len(label_rows) == len(xs) * m
    for j, x in enumerate(xs):
        assert label_rows[j * m : (j + 1) * m] == naive_compose(x, g).labels


# Primes from the smallest to the largest supported; at p = 127 the row
# l_ci[u] + l_c[P_v] of a conjugate sums to 2(p - 1) = 252 before reduction.
CONJUGATE_SHAPES = [(3, 1), (3, 3), (5, 2), (7, 2), (127, 1), (127, 2)]


def _assert_conjugates(xs: list[Portrait], c: Portrait) -> None:
    m = c.shape.internal_count
    rows = _mapped_rows(xs, _conjugation(c))
    assert len(rows) == len(xs) * m
    for j, x in enumerate(xs):
        expected = naive_compose(naive_compose(c.inverse(), x), c)
        assert rows[j * m : (j + 1) * m] == x.conjugate_by(c).labels == expected.labels


@pytest.mark.parametrize("p,n", CONJUGATE_SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_conjugate_columns_match_conjugate_by_and_naive_compose(p, n, data):
    _assert_conjugates(data.draw(power_classes(p, n)), data.draw(portraits(p, n)))


@pytest.mark.parametrize("p,n", [(127, 1), (127, 2)])
def test_conjugate_columns_at_the_largest_labels(p, n):
    # Every label p - 1, conjugated by itself, beside members of its power
    # class with the last layer all 0 and all 1.
    shape = tree_shape(p, n)
    m, cut = shape.internal_count, shape.level_starts[n - 1]
    top = Portrait(shape, [p - 1] * m)
    xs = [top] + [Portrait(shape, top.labels[:cut] + bytes([k]) * (m - cut)) for k in (0, 1)]
    _assert_conjugates(xs, top)


@pytest.mark.parametrize(
    "p,e,n",
    [
        (3, (1, 0), 1),
        (3, (1, -1), 3),
        (5, (1, 4, 1, 4), 2),
        (7, (1, 2, 3, 4, 5, 6), 2),
    ],
)
def test_conjugation_tables_are_permutations(p, e, n):
    # Each table is built one power class at a time.
    group = enumerate_quotient(DefiningVector(p, e), n)
    tables = group._conjugation_tables()
    for table in tables:
        assert table.typecode == "I"
        assert sorted(table) == list(range(len(group)))
    step = max(1, len(group) // 300)
    for table, c in zip(tables, (group.a, group.b)):
        for i in range(0, len(group), step):
            x = group.elements[i]
            assert group.elements[table[i]].labels == (c.inverse() * x * c).labels


@pytest.mark.parametrize("p,n", BATCH_SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_power_chains_match_p_powers(p, n, data):
    batch = data.draw(power_classes(p, n))
    m = batch[0].shape.internal_count
    exps, levels = p_power_chains(
        batch[0].shape, _label_columns(batch), [(batch[0].vertex_perm(), len(batch))]
    )
    assert len(exps) == len(batch) and len(levels) == n
    assert all(len(level) == len(batch) * m for level in levels)
    for j, x in enumerate(batch):
        chain = x.p_powers()
        assert exps[j] == len(chain) - 1
        expected = [g.labels for g in chain[:-1]]
        expected += [x.shape.zero_labels] * (n - len(expected))
        assert [level[j :: len(batch)] for level in levels] == expected
        # as in test_order_and_p_powers_match_naive_order
        order = naive_order(x) if p**n <= 3**5 else leaf_cycle_order(x)
        assert p ** exps[j] == order


def many_power_classes(p: int, n: int) -> st.SearchStrategy[list[list[Portrait]]]:
    """1 to 8 power classes with distinct permutations (labels above the
    last level), each of 1 to 6 members.  A depth-1 tree has one class.
    Labels above the last level are 0 about half the time: at depth 2 the
    sum over an orbit only tells a zero root label from a nonzero one."""
    shape = tree_shape(p, n)
    cut, m = shape.level_starts[n - 1], shape.internal_count
    labels = st.integers(0, p - 1)
    top = st.lists(st.just(0) | labels, min_size=cut, max_size=cut)
    tops = st.lists(top, min_size=1, max_size=8, unique_by=tuple)
    last = st.lists(labels, min_size=m - cut, max_size=m - cut)

    def members(head: list[int]) -> st.SearchStrategy[list[Portrait]]:
        return st.lists(last.map(lambda tail: Portrait(shape, head + tail)), min_size=1, max_size=6)

    return tops.flatmap(lambda heads: st.tuples(*map(members, heads)).map(list))


@pytest.mark.parametrize("p,n", BATCH_SHAPES)
@KERNEL_SETTINGS
@given(data=st.data())
def test_power_chains_of_many_runs_match_one_run_at_a_time(p, n, data):
    # At (127, 2) each sum over an orbit is reduced midway (room = 2).
    classes = data.draw(many_power_classes(p, n))
    shape = classes[0][0].shape
    m = shape.internal_count
    members = [x for xs in classes for x in xs]
    runs = [(xs[0].vertex_perm(), len(xs)) for xs in classes]
    exps, levels = p_power_chains(shape, _label_columns(members), runs)
    singles = [
        p_power_chains(shape, _label_columns(xs), [run])
        for xs, run in zip(classes, runs)
    ]
    assert exps == b"".join(e for e, _ in singles)
    assert [_label_rows(level, len(exps)) for level in levels] == [
        [row for e, ls in singles for row in _label_rows(ls[i], len(e))] for i in range(n)
    ]
    for j, x in enumerate(members):
        chain = x.p_powers()
        assert exps[j] == len(chain) - 1
        expected = [g.labels for g in chain[:-1]]
        expected += [shape.zero_labels] * (n - len(expected))
        assert [level[j :: len(members)] for level in levels] == expected


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7) for n in (2, 3)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_chains_are_affine_on_the_last_layer(p, n, data):
    # The premise of quotient.affine_suspects, on any tree automorphism x
    # and any u, v labelled only at depth n-1: every level f of the chains
    # has f(x+u+v) - f(x+v) = f(x+u) - f(x), labelwise mod p.
    shape = tree_shape(p, n)
    cut, m = shape.level_starts[n - 1], shape.internal_count
    x = data.draw(portraits(p, n))
    last = st.lists(st.integers(0, p - 1), min_size=m - cut, max_size=m - cut)
    u, v = (bytes(cut) + bytes(data.draw(last)) for _ in range(2))

    def plus(*rows: bytes) -> bytes:
        return bytes(sum(labels) % p for labels in zip(*rows))

    def minus(r: bytes, s: bytes) -> bytes:
        return bytes((x - y) % p for x, y in zip(r, s))

    members = [x.labels, plus(x.labels, u), plus(x.labels, v), plus(x.labels, u, v)]
    columns = _columns(b"".join(members), m)
    _, levels = p_power_chains(shape, columns, [(x.vertex_perm(), len(members))])
    for level in levels:
        fx, fu, fv, fuv = _label_rows(level, len(members))
        assert minus(fuv, fv) == minus(fu, fx)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layer_span_matches_sums_of_basis_multiples(data):
    # Any rows zero above depth n-1, with any coordinates: the vector at
    # offset sum k_t * p^t, read across the label columns, is
    # sum k_t * basis[t], labelwise mod p.
    p = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    shape = tree_shape(p, n)
    cut, m = shape.level_starts[n - 1], shape.internal_count
    last = st.lists(st.integers(0, p - 1), min_size=m - cut, max_size=m - cut)
    basis = [
        (bytes(cut) + bytes(data.draw(last)), data.draw(st.integers(0, p - 1)))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    columns, coords = _layer_span(shape, basis)
    assert [len(column) for column in columns] == [p ** len(basis)] * m
    span = _rows(columns, p ** len(basis))
    assert (len(span), len(coords)) == (p ** len(basis) * m, p ** len(basis))
    for offset in range(p ** len(basis)):
        row, coord = [0] * m, 0
        for t, (vector, c) in enumerate(basis):
            k = offset // p**t % p
            for u in range(m):
                row[u] = (row[u] + k * vector[u]) % p
            coord = (coord + k * c) % p
        assert span[offset * m : (offset + 1) * m] == bytes(row)
        assert coords[offset] == coord


def test_power_chains_of_a_whole_quotient():
    group = _quotient(3, (1, 0), 2)
    cut = group.shape.level_starts[1]
    classes: dict[bytes, list[Portrait]] = {}
    for x in group.elements:
        classes.setdefault(x.labels[:cut], []).append(x)
    for batch in classes.values():
        exps, _ = p_power_chains(
            group.shape, _label_columns(batch), [(batch[0].vertex_perm(), len(batch))]
        )
        assert [group.shape.p**e for e in exps] == [naive_order(x) for x in batch]


def test_columns_and_rows_invert_each_other():
    rows = bytes(range(12))
    assert _columns(rows, 3) == [bytes([0, 3, 6, 9]), bytes([1, 4, 7, 10]), bytes([2, 5, 8, 11])]
    assert _rows(_columns(rows, 3), 4) == rows


def test_prime_above_byte_bound_is_rejected():
    assert tree_shape(MAX_PRIME, 1).p == MAX_PRIME
    with pytest.raises(ValueError, match="at most 127"):
        TreeShape(131, 1)
    res = run_cli("classify", "--p", "131")
    assert res.returncode == 2
    assert "at most 127" in res.stderr


def test_tree_past_the_vertex_bound_is_rejected():
    # (3^15 - 1) / 2 internal vertices fit under the bound, (3^16 - 1) / 2 do not.
    assert TreeShape(3, 15).internal_count <= MAX_INTERNAL_VERTICES
    with pytest.raises(ValueError, match="internal vertices"):
        TreeShape(3, 16)
    with pytest.raises(ValueError, match="internal vertices"):
        TreeShape(127, 10**9)


# -- enumeration positions and the class kernel ----------------------------------

# Quotients small enough to scan element by element.
SMALL_ORDER = 20_000


def _order_fits(p: int, e: tuple[int, ...], n: int, bound: int = SMALL_ORDER) -> bool:
    return p ** _guard_exponent(DefiningVector(p, e), n) <= bound


# The symmetric vectors (e_i = e_(p-i)) whose level-2 quotient is small.
SYMMETRIC = {
    p: [
        e
        for half in product(range(p), repeat=(p - 1) // 2)
        if any(e := half + half[::-1]) and _order_fits(p, e, 2)
    ]
    for p in (3, 5, 7)
}


@st.composite
def small_quotients(draw, bound: int = SMALL_ORDER) -> QuotientGroup:
    """A quotient of at most bound elements at p in {3, 5, 7}, n in {1, 2,
    3}, symmetric vectors included.  At p = 7, level 2 fits only when
    (x - 1)^3 divides sum e_i x^(i-1) (circulant rank at most 4), so those
    vectors are drawn as its multiples; past level 2 only p = 3 fits."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 3 if p == 3 else 2))
    if draw(st.booleans()):
        e = draw(st.sampled_from(SYMMETRIC[p]))
    elif p == 7:
        k = draw(st.integers(3, p - 2))
        f = draw(st.lists(st.integers(0, p - 1), min_size=p - 1 - k, max_size=p - 1 - k))
        for _ in range(k):  # times x - 1
            f = [(x - y) % p for x, y in zip([0, *f], [*f, 0])]
        e = tuple(f)
    else:
        e = tuple(draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1)))
    assume(any(e) and _order_fits(p, e, n, bound))
    return _quotient(p, e, n)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_quotients(), seed=st.integers(0, 2**32))
def test_position_is_the_enumeration_index_and_rejects_non_members(group, seed):
    keys = group.label_keys
    assert [group._position(key) for key in keys] == list(range(len(group)))
    sample = range(0, len(group), max(1, len(group) // 50))
    assert [group._position(group.elements[i].encode()) for i in sample] == list(sample)
    members, p, rng = set(keys), group.vector.p, random.Random(seed)
    for _ in range(100):
        key = bytearray(rng.choice(keys))
        for u in rng.sample(range(len(key)), rng.randint(1, min(2, len(key)))):
            key[u] = (key[u] + rng.randrange(1, p)) % p
        key = bytes(key)
        assert (key in group) == (key in members)
        if key not in members:
            with pytest.raises(ValueError, match="not an element of this quotient"):
                group._position(key)
    m = group.shape.internal_count
    for bad in (bytes([p]) + bytes(m - 1), bytes(m + 1), bytes(m - 1) if m > 1 else b""):
        assert bad not in group


def _step(kind: str, g: Portrait):
    """The class map of x -> x*g, x -> g*x or x -> x^g, and the map on one
    element formed by plain composition."""
    if kind == "times":
        return _times(g), lambda x: naive_compose(x, g)
    if kind == "left":
        return (lambda perm: (g.vertex_perm(), g.labels)), lambda x: naive_compose(g, x)
    return _conjugation(g), lambda x: naive_compose(naive_compose(g.inverse(), x), g)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    group=small_quotients(),
    kind=st.sampled_from(["times", "left", "conjugation"]),
    data=st.data(),
)
def test_class_kernel_matches_naive_compose_class_by_class(group, kind, data):
    # The first class a step maps is solved in full; every later one adds
    # the first's digits, less its first image's, to its own first image's.
    # Both are checked member by member, on a table of a random number of
    # classes, at classes drawn from it in a random order.
    size, keys = group.class_size, group.label_keys
    g = group.elements[data.draw(st.integers(0, len(group) - 1))]
    step, plain = _step(kind, g)
    stop = size * data.draw(st.integers(1, len(group) // size))
    table = _table(group, step, stop)
    assert (table.typecode, len(table)) == ("I", stop)
    starts = list(range(0, stop, size))
    order = data.draw(st.permutations(starts))[: data.draw(st.integers(1, 4))]
    for start in order:
        image = table[start : start + size]
        target = image[0] - image[0] % size  # one power class, each member once
        assert sorted(image) == list(range(target, target + size))
        members = data.draw(st.lists(st.integers(0, size - 1), max_size=24)) + [0, size - 1]
        for j in members:
            assert keys[image[j]] == plain(group.elements[start + j]).labels


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=small_quotients(bound=3**7), data=st.data())
def test_normal_closure_matches_brute_closure_on_random_vectors(group, data):
    # The normal closure of random seeds, and the walk over the tables of
    # random seeds and random conjugators, against the brute closure.
    pick = st.sampled_from(group.elements)
    seeds = data.draw(st.lists(pick, min_size=1, max_size=2))
    expected = brute_normal_closure(group, seeds, [group.a, group.b])
    assert group.normal_closure(seeds).keys == expected
    conjugators = data.draw(st.lists(pick, min_size=1, max_size=2))
    steps = [*map(_times, seeds), *map(_conjugation, conjugators)]
    found = _walk([_table(group, step, len(group)) for step in steps])
    expected = brute_normal_closure(group, seeds, conjugators)
    assert frozenset(map(group.label_keys.__getitem__, found)) == expected


def _solve_plainly(basis: list[bytes], v: list[int], p: int) -> list[int] | None:
    """The coordinates of v in an echelon basis, each row 1 at its pivot,
    by plain forward elimination; None when v is outside its span."""
    digits = []
    for row in basis:
        d = v[row.index(1)]
        digits.append(d)
        v = [(x - d * y) % p for x, y in zip(v, row)]
    return None if any(v) else digits


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 17, 127]), data=st.data())
def test_locator_solves_unreduced_echelon_bases_at_large_primes(p, data):
    # Rows with entries up to p - 1 past the pivot, and a representative
    # with labels up to p - 1: every byte sum the solve forms stays below
    # 256 only if it reduces often enough, which at p = 127 is every term.
    shape, w = tree_shape(p, 2), p  # depth-1 labels follow the root label
    columns = sorted(data.draw(st.sets(st.integers(0, w - 1), min_size=1, max_size=3)))
    labels = st.integers(0, p - 1)
    tails = [data.draw(st.lists(labels, min_size=w - c - 1, max_size=w - c - 1)) for c in columns]
    basis = [bytes(c) + b"\1" + bytes(tail) for c, tail in zip(columns, tails)]
    negate = bytes((p - b) % p for b in range(256))
    pivots = [(c, row.translate(negate)) for c, row in zip(columns, basis)]
    rep = bytes(data.draw(st.lists(labels, min_size=w, max_size=w)))
    size = p ** len(basis)
    # A stand-in for a level-2 quotient with one top, whose representative
    # is element 0: the fields _locator reads.
    cols = [b"\0", *(bytes([x]) for x in rep)]  # element 0's label columns
    group = SimpleNamespace(shape=shape, class_size=size, _pivots=pivots, cols=cols)
    locate = _locator(group, {bytes(1): 0})
    r, d = data.draw(labels), data.draw(st.lists(labels, min_size=len(basis), max_size=len(basis)))
    v = [sum(dk * row[j] for dk, row in zip(d, basis)) % p for j in range(w)]
    key = bytes([r]) + bytes((x + y) % p for x, y in zip(v, rep))
    assert locate(key) == r * size + sum(dk * p**k for k, dk in enumerate(d))
    u, shift = data.draw(st.integers(0, w - 1)), data.draw(st.integers(1, p - 1))
    v[u] = (v[u] + shift) % p
    digits = _solve_plainly(basis, v, p)
    key = bytes([r]) + bytes((x + y) % p for x, y in zip(v, rep))
    expected = None if digits is None else r * size + sum(dk * p**k for k, dk in enumerate(digits))
    assert locate(key) == expected


def test_positions_and_class_kernel_at_p_17():
    # e = the coefficients of (x - 1)^15, -(i + 1) mod 17: circulant rank
    # 2, so |G_2| = 17^3 and L has two basis rows with entries up to 16.
    p = 17
    group = _quotient(p, tuple(-(i + 1) % p for i in range(p - 1)), 2)
    keys, size = group.label_keys, group.class_size
    assert (len(group), size) == (p**3, p**2)
    assert [group._position(key) for key in keys] == list(range(len(group)))
    members, rng = set(keys), random.Random(p)
    for _ in range(300):
        key = bytearray(rng.choice(keys))
        u = rng.randrange(len(key))
        key[u] = (key[u] + rng.randrange(1, p)) % p
        assert (bytes(key) in group) == (bytes(key) in members)
    for kind in ("times", "left", "conjugation"):
        step, plain = _step(kind, group.elements[rng.randrange(len(group))])
        table = _table(group, step, len(group))
        for start in rng.sample(range(0, len(group), size), 3):
            image = table[start : start + size]
            for j in range(size):
                assert keys[image[j]] == plain(group.elements[start + j]).labels
