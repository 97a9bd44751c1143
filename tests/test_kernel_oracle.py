"""Property tests of the portrait kernels against the slow oracles.

The product kernel sums label bytes through an itemgetter and reduces them
with one translate, composes vertex permutations of the operands, and takes
a separate route on depth-1 trees; the power, order and p-power routines are
built on it.  Each is checked here on random portraits of shapes from depth 1
up to depth 5 and up to the largest supported prime, 127.  The batched left
product of the signature table, which forms x*y for every element y of a
quotient from its label columns, is checked the same way, and so are the
maps of a power class (elements sharing their labels above the last level,
and so one vertex permutation) that the subgroup walks and class tables run
through the same kernel: right products by one element and conjugates by
one element, with the whole-group tables of x -> x^a and x -> x^b built
from them, and the batched p-power chains of a class.  The last-layer span
that the enumeration and the collision scan's premise add rows to is
checked against sums of multiples of its basis formed by plain loops.
"""
from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ggs import (
    DefiningVector,
    Portrait,
    QuotientGroup,
    TreeShape,
    enumerate_quotient,
    tree_shape,
)
from ggs.portrait import MAX_INTERNAL_VERTICES, MAX_PRIME
from ggs.quotient import (
    _columns,
    _conjugation,
    _layer_span,
    _moved,
    _rows,
    _times,
    p_power_chains,
)

from reference import leaf_cycle_order, naive_compose, naive_order
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
    products = group.left_products(x)
    assert len(products) == len(group) * m
    for j, y in enumerate(group.elements):
        assert products[j * m : (j + 1) * m] == naive_compose(x, y).labels
    stop = len(group) // p  # st(1), the first coset
    assert group.left_products(x, stop) == products[: stop * m]


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


def _mapped_rows(xs: list[Portrait], step) -> bytearray:
    """The labels of the images of the power class xs under a class map,
    concatenated: one _moved on the class's columns."""
    return _moved(_label_columns(xs), *step(bytes(xs[0].vertex_perm())), xs[0].shape.p)


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
        assert [level[j * m : (j + 1) * m] for level in levels] == expected
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
    assert levels == [b"".join(ls[i] for _, ls in singles) for i in range(n)]
    for j, x in enumerate(members):
        chain = x.p_powers()
        assert exps[j] == len(chain) - 1
        expected = [g.labels for g in chain[:-1]]
        expected += [shape.zero_labels] * (n - len(expected))
        assert [level[j * m : (j + 1) * m] for level in levels] == expected


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
        fx, fu, fv, fuv = (level[j * m : (j + 1) * m] for j in range(len(members)))
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
