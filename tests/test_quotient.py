"""Finite quotient enumeration and subgroup machinery."""
from __future__ import annotations

import gc
import hashlib
import math
import random
import weakref
from collections import Counter
from itertools import compress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggs import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DefiningVector,
    Portrait,
    commutator,
    enumerate_quotient,
    predicted_order,
)
from ggs import quotient, verifiers
from ggs.beauville import _signature_table
from ggs.certificate import Certificate
from ggs.generators import (
    MAX_LEVEL,
    _echelon_mod_p,
    exceeds_budget,
    predicted_exponent,
    written_order,
)
from ggs.quotient import MAX_BATCH_VERTICES, coordinate_line

from reference import (
    brute_classes,
    brute_coords,
    brute_generated,
    brute_normal_closure,
    element_walk,
    four_generator_walk,
    greedy_generators,
    queue_walk,
    row_major_layout,
    table_closure,
    table_walk,
    times,
)


@pytest.fixture(scope="module")
def e10_g3(e10):
    return enumerate_quotient(e10, 3)


def test_default_budget():
    assert DEFAULT_BUDGET == 10_000_000


def test_sizes(gs, gs_g2, gs_g3, e10_g2):
    assert len(enumerate_quotient(gs, 1)) == 3
    assert len(gs_g2) == 27
    assert len(gs_g3) == 2187
    assert len(e10_g2) == 81


def test_predicted_order_values(gs, e10):
    assert [predicted_order(gs, n) for n in (1, 2, 3, 4)] == [3, 27, 2187, 3**19]
    assert [predicted_order(e10, n) for n in (1, 2, 3)] == [3, 81, 59049]
    sym = DefiningVector(3, (1, 1))
    assert predicted_order(sym, 2) == 81
    assert predicted_order(sym, 3) is None  # no formula for symmetric vectors
    assert predicted_order(DefiningVector(5, (1, 4, 1, 4)), 2) == 5**5


def test_budget_is_decided_on_the_exponent(gs):
    assert [predicted_exponent(gs, n) for n in (1, 2, 3, 4)] == [1, 3, 7, 19]
    assert written_order(gs, 4) == 3**19
    assert written_order(gs, 6) == "3^163"  # 2 * 3^4 + 1 > WRITTEN_EXPONENT_MAX
    assert written_order(DefiningVector(3, (1, 1)), 3) is None
    for n in (2, 3, 4, 5):
        for budget in (0, 26, 27, 2186, 2187, 3**19 - 1, 3**19, 10**12):
            over = predicted_order(gs, n) > budget
            assert exceeds_budget(gs, n, budget) == over
    assert exceeds_budget(gs, MAX_LEVEL, DEFAULT_BUDGET)
    assert not exceeds_budget(DefiningVector(3, (1, 1)), 3, 1)
    for n in (0, MAX_LEVEL + 1):
        with pytest.raises(ValueError, match="level must lie"):
            predicted_exponent(gs, n)


def test_symmetric_vector_size_differs_from_formula_shape():
    # For e = (1, 1) the depth-3 quotient has 3^9 elements, not 3^(t*p+1) = 3^10:
    # the reason the prediction declines to answer.
    assert len(enumerate_quotient(DefiningVector(3, (1, 1)), 3)) == 19683


def test_budget_exceeded_by_prediction(gs):
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient(gs, 3, budget=100)
    assert err.value.budget == 100
    assert err.value.predicted == 2187
    assert err.value.partial == 0  # rejected before enumerating


def test_budget_exceeded_mid_enumeration(monkeypatch):
    # With a guard that underestimates every order, the walk itself stops at
    # the budget.  A symmetric vector has no predicted order to report.
    monkeypatch.setattr(quotient, "_guard_exponent", lambda v, n: 0)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient(DefiningVector(3, (1, 1)), 3, budget=100)
    assert err.value.predicted is None
    assert err.value.partial >= 100
    assert err.value.partial % 3 == 0  # the walk holds whole cosets of st(1)


def test_walk_refuses_past_the_budget_with_the_exact_order(e10, monkeypatch):
    # With both guards off, the walk counts the tops (27) and the dimension of
    # the last layer (6) before it builds any row: 3 * 27 * 3^6 = 59049.
    monkeypatch.setattr(quotient, "exceeds_budget", lambda v, n, budget: False)
    monkeypatch.setattr(quotient, "_guard_exponent", lambda v, n: 0)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient(e10, 3, budget=59048)
    assert err.value.partial == 59049
    assert len(enumerate_quotient(e10, 3, budget=59049)) == 59049


def test_symmetric_vectors_are_refused_by_the_guard_formula():
    # p^(t*p^(n-2)+1-delta*(p^(n-2)-1)/(p-1)): 3^9 at n = 3 for both symmetric
    # vectors at p = 3, where the walk still runs, and 3^24 at n = 4.
    for e in ((1, 1), (2, 2)):
        v = DefiningVector(3, e)
        assert v.symmetric and v.rank == 3
        assert len(enumerate_quotient(v, 3)) == 3 ** quotient._guard_exponent(v, 3) == 19683
        assert quotient._guard_exponent(v, 2) == predicted_exponent(v, 2)
        with pytest.raises(BudgetExceeded, match=r"order 3\^24 by the Fernandez") as err:
            enumerate_quotient(v, 4)
        assert err.value.partial == 0 and err.value.predicted is None
        with pytest.raises(BudgetExceeded, match=r"order 3\^9 by"):
            enumerate_quotient(v, 3, budget=19682)
    for v in (DefiningVector(3, (1, 0)), DefiningVector(5, (1, 4, 1, 4))):
        assert not v.symmetric
        for n in (1, 2, 3, 4):
            assert quotient._guard_exponent(v, n) == predicted_exponent(v, n)
    assert predicted_exponent(DefiningVector(3, (1, 1)), 4) is None  # claims unchanged


WALK_CASES = [
    (3, (1, -1), 3),
    (3, (1, 0), 3),
    (3, (1, 1), 3),
    (5, (1, 4, 1, 4), 2),
    (7, (1, 2, 3, 4, 5, 6), 2),
    (3, (1, 0), 1),
    (5, (1, 4, 1, 4), 1),
    (7, (1, 2, 3, 4, 5, 6), 1),
]


def _assert_matches_queue_walk(v: DefiningVector, n: int):
    """The layered walk finds the elements of the one-at-a-time queue walk,
    each with the same coordinates and vertex permutation, and positions
    them in its own enumeration order."""
    group = enumerate_quotient(v, n)
    expected, coords = queue_walk(v, n)
    assert len(group) == len(expected)
    assert [group._position(key) for key in group.label_keys] == list(range(len(group)))
    for i, x in enumerate(expected):
        k = group._position(x.labels)
        assert group._perm_row(k) == bytes(x._perm)
        if coords is not None:
            assert (group.coords[0][k], group.coords[1][k]) == coords[i]
    if coords is None:
        assert group.coords is None
    else:
        assert [type(column) for column in group.coords] == [bytes, bytes]


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_walk_matches_queue_walk(p, e, n):
    _assert_matches_queue_walk(DefiningVector(p, e), n)


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_cosets_of_st1_are_h_with_the_root_label_set(p, e, n):
    # Index r*|H| + i holds h_i * a^r: the labels of h_i with root label r.
    group = enumerate_quotient(DefiningVector(p, e), n)
    m, size = group.shape.internal_count, len(group) // p
    rows = quotient._rows(group.cols, len(group))
    head = rows[: size * m]
    assert not any(head[::m])
    for r in range(1, p):
        coset = bytearray(head)
        coset[::m] = bytes([r]) * size
        assert rows[r * size * m : (r + 1) * size * m] == coset


# SHA-256 digests of the label rows and the permutation rows: fixed bytes,
# whichever way the walk writes the cosets of st(1).
ROW_DIGESTS = {
    (3, (1, 0), 3): (
        "93d5c636718d09d7bceacef2ca5e32de68dc7410e536efa7886af20e562090a2",
        "2e25b6753d5e656bdfc1ac935e6f3d972f711b0cc0f49b33a8931aabc455c618",
    ),
    (7, (1, 6, 1, 6, 1, 6), 2): (
        "8496c7ce1c38c8f4037fb7fb5efb097b1681f0f5630e4f915875008684690556",
        "904b801ed9d4c9fb34215719efe67aa6bc04048d4fe92a421502f91cca39d327",
    ),
    (3, (1, 1), 3): (  # symmetric: the order is bounded by _guard_exponent
        "7ca36a131bb3b4c387910f1688b93f9eb9ee3f1e4bf33885afef6ba3ee51b5e2",
        "00dda333bbb36be4d8868748ebc91ee83c405bdba2019e99a8e2e2b13e555161",
    ),
    (5, (1, 0, 0, 0), 2): (  # non-periodic: thm-B's table group
        "472ca1a8df4883cbab9cd4140c667b4440089929b27a85de82c0fc0a460b1321",
        "f4178ffb0754f25648fb1688ed4ecb560718c66adb3a8f1dfcd249f1534f63ed",
    ),
}


@pytest.mark.parametrize("p,e,n", list(ROW_DIGESTS))
def test_rows_match_their_pinned_digests(p, e, n):
    group = enumerate_quotient(DefiningVector(p, e), n)
    rows = quotient._rows(group.cols, len(group))
    digests = (hashlib.sha256(rows).hexdigest(), hashlib.sha256(group._perms).hexdigest())
    assert digests == ROW_DIGESTS[p, e, n]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_column_store_read_row_wise_matches_the_row_major_layout(data):
    # The columns, read row by row, are byte for byte the rows the row-major
    # walk wrote: each top's block, then the cosets of st(1) as copies.
    p = data.draw(st.sampled_from([3, 5, 7]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**10)
    group = enumerate_quotient(v, n)
    assert quotient._rows(group.cols, len(group)) == row_major_layout(group)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_walk_matches_queue_walk_on_random_vectors(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**9)
    _assert_matches_queue_walk(v, n)


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_elements_are_built_from_the_rows(p, e, n):
    v = DefiningVector(p, e)
    group = enumerate_quotient(v, n)
    expected, _ = queue_walk(v, n)
    # Size, membership and the coordinate lines come from the rows alone.
    sample = expected[:: max(1, len(expected) // 50)]
    assert len(group) == len(expected)
    assert all(x in group and x.labels in group for x in sample)
    if n >= 2:
        assert len(group.lines()) == len(group)
        assert group.line_mask(p + 1).count(1) == len(group) // p**2
    middle = len(group) // 2
    early = group.element(group.label_keys[middle])  # built alone
    assert "elements" not in vars(group)
    elements = group.elements
    assert [x.labels for x in elements] == list(group.label_keys)
    assert {x.labels for x in elements} == {x.labels for x in expected}
    assert elements[0] == group.identity
    assert elements[middle] == early and early._perm == elements[middle]._perm
    for x in elements:
        assert x._perm == Portrait(x.shape, x.labels).vertex_perm()
    for i in range(0, len(group), max(1, len(group) // 500)):
        assert group.element(elements[i].labels) == elements[i]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_keys_and_index_are_derived_from_the_rows(data):
    # The label columns are the one store: the rows, the label keys, the
    # positions and the elements are read off them on demand, and agree
    # with each other.  A passing level-3 collision scan reads the columns
    # alone, and a lookup computes its position without building a table.
    p = data.draw(st.sampled_from([3, 5]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**9)
    group = enumerate_quotient(v, n)
    m = group.shape.internal_count
    i, j = (data.draw(st.integers(0, len(group) - 1)) for _ in range(2))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    mask = bytes(rng.getrandbits(1) for _ in range(len(group)))
    early = group._at(j)  # built alone, before any lookup
    # Every selected member fails, so failures reads each one off the
    # columns (from level 2 on, where the coordinates exist).
    failed = quotient.failures(quotient.orders, lambda i, o: False, group, mask) if n > 1 else []
    if n == 3 and not v.periodic:  # at level 2 the scan's centre check looks positions up
        assert verifiers._collision_scan(Certificate("prop-collision", "", {}, "", False), group)
    assert not {"label_keys", "elements"} & set(vars(group))
    if n > 1:  # a power class has more than one member, so only rows are len(group) * m long
        held = [*vars(group).values(), *group._stages.values()]
        assert not [x for x in held if isinstance(x, (bytes, bytearray)) and len(x) == len(group) * m]
    rows = quotient._rows(group.cols, len(group))
    assert len(group) == len(rows) // m
    assert group.cols == tuple(rows[k::m] for k in range(m))
    key = bytes(rows[i * m : (i + 1) * m])
    x = group.element(key)  # computed, not looked up
    assert not {"label_keys", "elements"} & set(vars(group))
    tables = [t for t in vars(group).values() if isinstance(t, dict) and len(t) == len(group)]
    assert n == 1 or not tables  # no dict of every element
    assert group._position(key) == i and group.element(key) == x
    assert group.element(early.labels) == early
    assert b"".join(group.label_keys) == rows
    assert [group._position(k) for k in group.label_keys] == list(range(len(group)))
    assert len(group) == len(group.label_keys)
    if n > 1:
        assert [i for i, _ in failed] == list(compress(range(len(group)), mask))
    assert group.elements[i] == x and group.elements[j] == early


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subset_matches_brute_sets_of_label_keys(data):
    # A Subset against the brute set of its label keys, on random quotients
    # and masks of no, one and many members: its size, its keys (gathered
    # for the members alone), its members in enumeration order, and
    # membership of members, non-members and keys of the wrong length.
    p = data.draw(st.sampled_from([3, 5, 7]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**8)
    group = enumerate_quotient(v, n)
    keys, size = group.label_keys, len(group)
    kind = data.draw(st.sampled_from(["none", "one", "many"]))
    mask = bytearray(size)
    if kind == "one":
        mask[data.draw(st.integers(0, size - 1))] = 1
    elif kind == "many":
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        mask = bytearray(rng.getrandbits(1) for _ in range(size))
    subset = quotient.Subset(bytes(mask), group)
    members = list(compress(keys, mask))
    assert len(subset) == len(members)
    assert subset.keys == frozenset(members)
    assert [x.labels for x in subset] == members
    probe = {*range(0, size, max(1, size // 200)), *list(compress(range(size), mask))[:50]}
    for i in probe:
        assert (keys[i] in subset) == (group._at(i) in subset) == bool(mask[i])
    for bad in (keys[-1] + b"\0", keys[-1][:-1], bytes([p]) + keys[-1][1:]):
        assert bad not in subset


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_power_classes_are_contiguous_blocks(p, e, n):
    # The identity first, coset-major, and each power class (the elements
    # sharing their labels above depth n-1) one run of p^dim L elements,
    # L = st(n-1)/st(n) inside st(1): so |G| = p * |tops| * p^dim L.
    group = enumerate_quotient(DefiningVector(p, e), n)
    keys, size = group.label_keys, group.class_size
    cut = group.shape.level_starts[n - 1]
    assert keys[0] == group.identity.labels
    assert [key[0] for key in keys] == [r for r in range(p) for _ in range(len(group) // p)]
    m = group.shape.internal_count
    assert size == p ** round(math.log(size, p))
    # One permutation row per power class, in the order of the classes.
    assert group._perms == b"".join(map(group._perm_row, range(0, len(keys), size)))
    assert all(group._perm_row(i) == group._perm_row(i - i % size) for i in range(len(keys)))
    if n == 1:
        assert size == 1  # st(0) holds a, outside st(1)
        return
    blocks = [keys[i : i + size] for i in range(0, len(keys), size)]
    tops = [{key[:cut] for key in block} for block in blocks]
    assert all(len(top) == 1 for top in tops)
    assert len(set().union(*tops)) == len(blocks)  # no top in two blocks
    assert len(group) == p * (len(blocks) // p) * size
    layer = {key for key in keys if not any(key[:cut])}  # st(n-1)
    assert len(layer) == size and set(keys[:size]) == layer


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_one_permutation_row_per_power_class(p, e, n):
    # Every member of a power class reads its class's row, and the elements
    # share one permutation tuple per class.
    group = enumerate_quotient(DefiningVector(p, e), n)
    m, size = group.shape.internal_count, group.class_size
    assert len(group._perms) == len(group) // size * m
    for k in random.Random(p * n).sample(range(len(group)), min(len(group), 200)):
        x = Portrait(group.shape, group.label_keys[k])
        assert group._perm_row(k) == bytes(x.vertex_perm())
    assert len({id(x._perm) for x in group.elements}) == len(group) // size


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_coset_walk_matches_four_generator_walk(p, e, n):
    _assert_same_walk(DefiningVector(p, e), n)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_coset_walk_matches_four_generator_walk_on_random_vectors(data):
    p = data.draw(st.sampled_from([3, 5]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**9)
    _assert_same_walk(v, n)


def _assert_same_walk(v: DefiningVector, n: int):
    """The coset walk finds the elements of the walk over the whole group
    under a, b, a^-1, b^-1, each with the same vertex permutation and
    coordinates."""
    group = enumerate_quotient(v, n)
    expected, coords = four_generator_walk(v, n)
    assert group.label_keys[0] == expected[0].labels
    assert set(group.label_keys) == {x.labels for x in expected}
    assert len(group) == len(expected)
    for i, x in enumerate(expected):
        k = group._position(x.labels)
        assert group._perm_row(k) == bytes(x._perm)
        if coords is not None:
            assert (group.coords[0][k], group.coords[1][k]) == coords[i]
    assert (group.coords is None) == (coords is None)


@pytest.mark.parametrize("p,e,n", [c for c in WALK_CASES if c[2] >= 2])
def test_walk_is_coset_major(p, e, n):
    # Index r*|H| + i holds h_i * a^r, with H = st(1) first.
    group = enumerate_quotient(DefiningVector(p, e), n)
    size = len(group) // p
    assert list(group.label_keys[:size]) == [key for key in group.label_keys if key[0] == 0]
    assert group.coords[0] == group.cols[0]
    assert group.coords[0] == b"".join(bytes([r]) * size for r in range(p))
    assert group.coords[1] == group.coords[1][:size] * p
    for r in range(1, p):
        a_r = group.a**r
        for i in range(0, size, max(1, size // 50)):
            x = group.element(group.label_keys[i]) * a_r
            assert group._position(x.labels) == r * size + i
            assert group.element(x.labels).labels == x.labels
            assert group._perm_row(r * size + i) == bytes(x.vertex_perm())


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_conjugation_by_a_is_read_off_st1(p, e, n):
    # The a-table conjugates st(1) only, one power class at a time, and
    # shifts it onto the other cosets.
    group = enumerate_quotient(DefiningVector(p, e), n)
    by_a, _ = group._conjugation_tables()
    assert len(by_a) == len(group)
    images = [x.conjugate_by(group.a).labels for x in group.elements]
    assert [group.label_keys[i] for i in by_a] == images


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_power_classes_follows_the_mask(e10, n):
    # fn sees the column slices of the selected members of each class that
    # has one, as one run with the class's permutation; the results come
    # back in enumeration order.
    group = enumerate_quotient(e10, n)
    calls = []

    def rows_of(shape, columns, runs):
        assert len(columns) == shape.internal_count
        members = [bytes(row) for row in zip(*columns)]
        calls.append(members)
        ((perm, width),) = runs  # one call per class, the class as one run
        assert width == len(members)
        assert all(Portrait(shape, x).vertex_perm() == tuple(perm) for x in members)
        return members

    assert quotient.map_power_classes(rows_of, group) == list(group.label_keys)
    assert len(calls) == len(group) // group.class_size
    mask = bytes(i % 7 == 3 for i in range(len(group)))
    calls.clear()
    selected = quotient.map_power_classes(rows_of, group, mask)
    assert selected == list(compress(group.label_keys, mask))
    assert all(calls)  # classes with nothing selected are skipped


def _corrupted(shifts):
    """_stabilizer_steps with the b-coordinate step of b_j replaced by
    shifts[j]."""
    real = quotient._stabilizer_steps
    return lambda a, b: [(g, s) for (g, _), s in zip(real(a, b), shifts)]


@pytest.mark.parametrize(
    "steps",
    [
        (2, 1, 1),  # b moves the b-coordinate twice
        (1, 1, 0),  # b^(a^2) does not move it
    ],
)
def test_corrupt_coordinate_step_is_caught(gs, steps, monkeypatch):
    # At level 2, b * b^a * b^(a^2) = 1 for e = (1, -1): the step sums to 1,
    # not 0, along that cycle of the walk over st(1).
    monkeypatch.setattr(quotient, "_stabilizer_steps", _corrupted(steps))
    with pytest.raises(RuntimeError, match="coordinates conflicted"):
        enumerate_quotient(gs, 2)
    # At level 1, b is trivial and the coordinates are dropped instead.
    assert enumerate_quotient(gs, 1).coords is None


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("n", [2, 3])
def test_corrupt_schreier_generator_is_caught(gs, n, which, monkeypatch):
    # Each Schreier generator u = t*b_j*s^-1 of the last layer carries the
    # coordinate c(t) + 1 - c(s).  Moving one by 1 breaks a relation among
    # them: at level 2 the three rows are b, b^a and b^(a^2), whose product
    # is 1 while their coordinates sum to 3 = 0.
    real = quotient._echelon_mod_p

    def corrupted(rows, p):
        rows = list(rows)
        assert len(rows) > len(real(rows, p))  # the rows are dependent
        row = rows[which]
        rows[which] = row[:-1] + bytes([(row[-1] + 1) % p])
        return real(rows, p)

    monkeypatch.setattr(quotient, "_echelon_mod_p", corrupted)
    with pytest.raises(RuntimeError, match="coordinates conflicted"):
        enumerate_quotient(gs, n)


def test_walk_refuses_trees_past_the_vertex_limit(monkeypatch):
    sym = DefiningVector(3, (1, 1))
    # (3^5 - 1) / 2 = 121 internal vertices, walked when the guard formula
    # lets it: until the budget stops it.
    with monkeypatch.context() as patch:
        patch.setattr(quotient, "_guard_exponent", lambda v, n: 0)
        # 34 tops of st(1) modulo st(4) found, so at least 3 * 34 elements of G.
        with pytest.raises(BudgetExceeded, match="stopped at 102 elements"):
            enumerate_quotient(sym, 5, budget=100)
    with pytest.raises(BudgetExceeded, match=r"order 3\^69 by the Fernandez") as err:
        enumerate_quotient(sym, 5, budget=100)
    assert err.value.partial == 0
    # (3^6 - 1) / 2 = 364: refused before the tree is built.
    with pytest.raises(BudgetExceeded, match=f"more than the {MAX_BATCH_VERTICES}") as err:
        enumerate_quotient(sym, 6)
    assert err.value.partial == 0
    assert "364 internal vertices" in str(err.value)


def test_membership_and_element(gs_g2):
    assert gs_g2.a in gs_g2
    assert gs_g2.a.labels in gs_g2
    assert gs_g2.element(gs_g2.b.labels) == gs_g2.b
    assert gs_g2.element("3,2:0,1,2,0") == gs_g2.b
    # A valid portrait outside the group, by encoding and by label key.
    with pytest.raises(ValueError, match="not an element of this quotient: 3,2:0,1,0,0"):
        gs_g2.element("3,2:0,1,0,0")
    with pytest.raises(ValueError, match="not an element of this quotient: 3,2:0,1,0,0"):
        gs_g2.element(bytes([0, 1, 0, 0]))
    with pytest.raises(ValueError, match="not an element of this quotient: 3,2:0,1,0,0"):
        gs_g2.conjugacy_class(Portrait(gs_g2.shape, [0, 1, 0, 0]))


def test_element_outside_group(gs_g2):
    assert bytes([0, 1, 0, 0]) not in gs_g2


def test_coords(gs_g2):
    assert gs_g2.coords_of(gs_g2.a) == (1, 0)
    assert gs_g2.coords_of(gs_g2.b) == (0, 1)
    assert gs_g2.coords_of(gs_g2.a * gs_g2.b) == (1, 1)
    comm = gs_g2.a.inverse() * gs_g2.b.inverse() * gs_g2.a * gs_g2.b
    assert gs_g2.coords_of(comm) == (0, 0)


def test_coords_match_brute_cosets(e10_g2):
    rng = random.Random(7)
    sample = rng.sample(sorted(e10_g2, key=lambda x: x.labels), 20)
    for x in sample:
        assert e10_g2.coords_of(x) == brute_coords(e10_g2, x)


def test_depth_one_quotient(gs):
    g1 = enumerate_quotient(gs, 1)
    assert len(g1) == 3
    assert g1.coords is None
    assert g1.b.is_identity()
    assert g1.is_generating_pair(g1.a, g1.a ** 2)
    assert not g1.is_generating_pair(g1.identity, g1.identity)


def test_is_generating_pair(gs_g2):
    a, b = gs_g2.a, gs_g2.b
    assert gs_g2.is_generating_pair(a, b)
    assert gs_g2.is_generating_pair(a * b, b)
    assert not gs_g2.is_generating_pair(a, a ** 2)
    assert not gs_g2.is_generating_pair(a * b, b * a)  # same image in G/G'


@pytest.mark.parametrize("p", [3, 5, 7])
def test_level_one_generation_is_decided_in_closed_form(p):
    # G_1 = C_p with p prime: a pair generates exactly when one member is
    # nontrivial, as the brute closure confirms pair by pair.
    group = enumerate_quotient(DefiningVector(p, (1,) + (0,) * (p - 2)), 1)
    assert group.coords is None and len(group) == p
    for x in group:
        for y in group:
            closure = brute_generated(group, [x, y])
            assert group.is_generating_pair(x, y) == (len(closure) == p)


def test_derived_subgroup(gs_g2, gs_g3, e10_g2):
    for group, size in ((gs_g2, 3), (gs_g3, 243), (e10_g2, 9)):
        der = group.derived_subgroup()
        assert len(der) == size
        assert len(group) == size * group.vector.p ** 2  # index p^2 always


def test_frattini_equals_derived(gs_g2, gs_g3, e10_g2):
    """Phi = G'G^p, closed from the brute G' and the distinct p-th powers,
    is the derived subgroup: G/G' is elementary abelian."""
    for group in (gs_g2, gs_g3, e10_g2):
        a, b, p = group.a, group.b, group.vector.p
        derived = brute_normal_closure(group, [commutator(a, b)], [a, b])
        powers = {(x**p).labels for x in group}
        gens = [group.element(k) for k in sorted(derived | powers)]
        assert frozenset(brute_generated(group, gens)) == group.derived_subgroup().keys


def test_center(gs_g2, gs_g3, e10_g2):
    p5 = enumerate_quotient(DefiningVector(5, (1, 4, 1, 4)), 2)
    for group, size in ((gs_g2, 3), (gs_g3, 3), (e10_g2, 3), (p5, 5)):
        z = group.center()
        assert len(z) == size
        assert group.identity in z
        a, b = group.a, group.b
        assert list(z) == [x for x in group if x * a == a * x and x * b == b * x]
    assert sorted(x.encode() for x in e10_g2.center()) == [
        "3,2:0,0,0,0",
        "3,2:0,1,1,1",
        "3,2:0,2,2,2",
    ]


def test_maximal_subgroups(gs_g2, e10_g2):
    for group in (gs_g2, e10_g2):
        p = group.vector.p
        maxes = group.maximal_subgroups()
        assert len(maxes) == p + 1
        derived = group.derived_subgroup()
        keysets = [m.keys for m in maxes]
        assert len(set(map(frozenset, keysets))) == p + 1
        for m in maxes:
            assert len(m) == len(group) // p
            assert derived.keys <= m.keys
        # ordering contract: <a>G', <b>G', then <ab^i>G' for i = 1..p-1
        assert group.a in maxes[0]
        assert group.b in maxes[1]
        for i in range(1, p):
            assert group.a * group.b ** i in maxes[1 + i]


def test_maximal_subgroups_match_brute_closures(gs_g3, e10_g3):
    p5 = enumerate_quotient(DefiningVector(5, (1, 2, 3, 4)), 2)
    for group in (gs_g3, e10_g3, p5):
        a, b, p = group.a, group.b, group.vector.p
        derived = group.derived_subgroup()
        gens = greedy_generators(group, derived)
        assert frozenset(brute_generated(group, gens)) == derived.keys
        tops = [a, b] + [a * b**i for i in range(1, p)]
        maxes = group.maximal_subgroups()
        assert [m.keys for m in maxes] == [
            frozenset(brute_generated(group, [x] + gens)) for x in tops
        ]
        for m in maxes:
            assert [x.labels for x in m] == [x.labels for x in group if x in m]


def test_maximal_subgroups_partition(gs_g2):
    maxes = gs_g2.maximal_subgroups()
    derived = gs_g2.derived_subgroup()
    for x in gs_g2:
        hits = sum(x in m for m in maxes)
        assert hits == (4 if x.labels in derived.keys else 1)


@given(data=st.data())
def test_coordinate_lines_differ_exactly_on_independent_pairs(data):
    p = data.draw(st.sampled_from((3, 5, 7, 11, 127)))
    point = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    c1 = data.draw(point.filter(any))
    if data.draw(st.booleans()):
        c2 = data.draw(point.filter(any))
    else:  # a multiple of c1, which the first draw rarely hits at large p
        k = data.draw(st.integers(1, p - 1))
        c2 = (k * c1[0] % p, k * c1[1] % p)
    det = (c1[0] * c2[1] - c1[1] * c2[0]) % p
    l1, l2 = coordinate_line(*c1, p), coordinate_line(*c2, p)
    assert 0 <= l1 <= p and 0 <= l2 <= p
    assert (det != 0) == (l1 != l2)


def test_coordinate_line_numbering(gs_g2, e10_g3):
    for p in (3, 5, 127):
        assert coordinate_line(1, 0, p) == 0
        assert coordinate_line(0, 1, p) == 1
        assert [coordinate_line(1, i, p) for i in range(1, p)] == list(range(2, p + 1))
        assert coordinate_line(0, 0, p) == coordinate_line(p, -p, p) == p + 1
    for group in (gs_g2, e10_g3, enumerate_quotient(DefiningVector(5, (1, 4, 1, 4)), 2)):
        p, lines = group.vector.p, group.lines()
        assert lines == bytes(coordinate_line(*c, p) for c in zip(*group.coords))
        for j, m in enumerate(group.maximal_subgroups()):
            assert [x in m for x in group] == [k in (j, p + 1) for k in lines]
            assert group.line_mask(j) == bytes(k == j for k in lines)
        assert group.line_mask() == bytes(len(group))
        assert group.line_mask(*range(p + 2)) == bytes([1]) * len(group)
    with pytest.raises(ValueError, match="level-1"):
        enumerate_quotient(DefiningVector(3, (1, 0)), 1).lines()


def _row_count(shape, columns, perm):
    return [None] * len(columns[0])


@pytest.mark.parametrize("p, e, n", [(3, (1, 0), 2), (3, (1, 0), 3), (5, (1, 4, 1, 4), 2)])
def test_affine_suspects_picks_an_affine_basis_of_each_class(p, e, n):
    # On an unedited group every class passes the premise, so only the
    # check decides.  It runs on one basis per conjugation orbit of the
    # selected classes, that of the orbit's first class: d + 1 selected
    # members whose differences from the first span the last layer.  The
    # orbits partition the selected classes (every class is its own orbit
    # at level 2), and a failing basis puts back its whole orbit.
    group = enumerate_quotient(DefiningVector(p, e), n)
    size, d = group.class_size, len(group.layer_basis)
    span, coords = quotient._layer_span(group.shape, group.layer_basis)
    assert ([len(column) for column in span], len(coords)) == ([size] * len(span), size)
    assert tuple(column[:size] for column in group.cols) == span  # the class of 1 is L itself
    assert group.coords[1][:size] == coords
    mask = group.line_mask(*range(2, p + 1))
    seen: list[int] = []

    def record(i: int, result: None) -> bool:
        seen.append(i)
        return True

    assert quotient.affine_suspects(_row_count, record, group, mask) == bytes(len(group))
    assert quotient.affine_suspects(_row_count, lambda i, r: False, group, mask) == mask
    assert all(mask[i] for i in seen)
    selected = sorted({i // size for i in compress(range(len(group)), mask)})
    orbit = quotient._class_orbits(group)
    orbits: dict[int, list[int]] = {}
    for c in selected:
        orbits.setdefault(orbit[c], []).append(c)
    by_a, by_b = quotient._class_tables(group)
    # The orbits are closed under conjugation.
    assert all(orbit[by_a[c]] == orbit[c] == orbit[by_b[c]] for c in selected)
    assert len(orbits) == (4 if n == 3 else len(selected))  # 36 selected classes at n = 3
    bases = [seen[k : k + d + 1] for k in range(0, len(seen), d + 1)]
    assert [q0 // size for q0, *_ in bases] == [members[0] for members in orbits.values()]
    for q0, *rest in bases:
        assert len({i // size for i in (q0, *rest)}) == 1
        base = group.label_keys[q0]
        diffs = [[(x - y) % p for x, y in zip(group.label_keys[i], base)] for i in rest]
        assert len(_echelon_mod_p(diffs, p)) == d
    # One orbit's basis fails: exactly the selected members of that orbit
    # are left to scan.
    first = bases[-1][0] // size

    def off_first(i: int, result: None) -> bool:
        return i // size != first

    flagged = quotient.affine_suspects(_row_count, off_first, group, mask)
    kept = bytes(orbit[i // size] == orbit[first] for i in range(len(group)))
    assert flagged == bytes(map(min, mask, kept))


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_class_conjugates_are_the_class_images_of_the_conjugation_tables(p, e, n):
    # The class of x^a and of x^b, read off the permutation rows, is that
    # of every member's image in the element-by-element conjugation
    # tables; and the orbit of a class is the set of classes that the
    # conjugacy class of any of its members meets.
    group = enumerate_quotient(DefiningVector(p, e), n)
    size, total = group.class_size, len(group) // group.class_size
    orbit = quotient._class_orbits(group)
    if n == 1:  # no vertex below the root: every class has the one trivial row
        with pytest.raises(RuntimeError, match="share a vertex permutation"):
            quotient._class_tables(group)
        assert orbit == list(range(total))
        return
    class_a, class_b = quotient._class_tables(group)
    by_a, by_b = group._conjugation_tables()
    assert [class_a[i // size] for i in range(len(group))] == [x // size for x in by_a]
    assert [class_b[i // size] for i in range(len(group))] == [y // size for y in by_b]
    for c in range(total):
        met = {j // size for j in quotient._orbits(by_a, by_b, [c * size], bytearray(len(group)))}
        assert met == {k for k in range(total) if orbit[k] == orbit[c]}
        assert orbit[c] == min(met)
    assert n > 2 or orbit == list(range(total))  # G_1 = C_p is abelian


def test_class_tables_refuse_two_classes_with_one_row(monkeypatch, e10):
    # G_(n-1) acts faithfully on level n-1, so no two power classes share a
    # permutation row; a row copied onto a second class is refused, not
    # passed over, and the collision scan's orbits fail with it.
    group = enumerate_quotient(e10, 3)
    m = group.shape.internal_count
    perms = group._perms
    monkeypatch.setattr(group, "_perms", perms[:m] + perms[:m] + perms[2 * m :])
    with pytest.raises(RuntimeError, match="share a vertex permutation"):
        quotient._class_tables(group)
    with pytest.raises(RuntimeError, match="share a vertex permutation"):
        quotient._class_orbits(group)


def test_affine_suspects_flags_a_class_whose_b_coordinates_move(e10):
    group = enumerate_quotient(e10, 3)
    mask = group.line_mask(2, 3)
    i = mask.find(1)
    a, b = group.coords
    group.coords = (a, b[:i] + bytes([(b[i] + 1) % 3]) + b[i + 1 :])
    flagged = quotient.affine_suspects(_row_count, lambda i, r: True, group, mask)
    start = i - i % group.class_size
    assert flagged[start : start + group.class_size] == mask[start : start + group.class_size]
    assert flagged.count(1) == mask[start : start + group.class_size].count(1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("first", [True, False])
def test_affine_suspects_flags_a_class_with_a_label_edited_above_the_last_layer(e10, n, first):
    # One selected member's label at depth n-2 moves in the column store,
    # so its class is no longer a coset of L; the premise must flag that
    # class, whether the edit is at the member its shifts are read from
    # (the first of the class) or at another, and no other class.
    group = enumerate_quotient(e10, n)
    mask, size = group.line_mask(2, 3), group.class_size
    i = mask.find(1) - mask.find(1) % size if first else mask.rfind(1)
    k = group.shape.level_starts[n - 2]
    column = bytearray(group.cols[k])
    column[i] = (column[i] + 1) % 3
    group.cols = (*group.cols[:k], bytes(column), *group.cols[k + 1 :])
    flagged = quotient.affine_suspects(_row_count, lambda i, r: True, group, mask)
    start = i - i % size
    assert flagged == bytes(start) + mask[start : start + size] + bytes(len(group) - start - size)


@pytest.mark.parametrize("p, e, n", [(3, (1, 0), 2), (3, (1, 0), 3), (5, (1, 0, 0, 0), 2)])
def test_failures_match_the_element_by_element_list(p, e, n):
    # Non-periodic groups, where most elements have order above p: the
    # failures are those of a scan of every selected member, in order.
    group = enumerate_quotient(DefiningVector(p, e), n)
    rng = random.Random(f"{p}{e}{n}")
    for density in (0.001, 0.1, 0.5, 1.0):
        mask = bytes(rng.random() < density for _ in range(len(group)))
        scanned = quotient.map_power_classes(quotient.orders, group, mask)
        expected = [(i, o) for i, o in zip(compress(range(len(group)), mask), scanned) if o > p]
        assert expected or not any(mask)
        assert quotient.failures(quotient.orders, lambda i, o: o <= p, group, mask) == expected


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_failures_match_the_element_by_element_list_on_random_vectors(data):
    # x^(p^k) = 1 is affine on each power class and conjugation-invariant,
    # so one basis per orbit decides it; with k drawn, some orbits pass and
    # some fail, and the random mask leaves some classes without a basis.
    # n = 3 first: orbits of several classes.
    p, n = data.draw(st.sampled_from([(3, 3), (3, 2), (5, 2)]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    group = enumerate_quotient(DefiningVector(p, tuple(e)), n)
    bound = p ** data.draw(st.integers(0, n))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    density = data.draw(st.sampled_from([0.01, 0.5, 0.9, 1.0]))
    mask = bytes(rng.random() < density for _ in range(len(group)))
    scanned = quotient.map_power_classes(quotient.orders, group, mask)
    expected = [(i, o) for i, o in zip(compress(range(len(group)), mask), scanned) if o > bound]
    assert quotient.failures(quotient.orders, lambda i, o: o <= bound, group, mask) == expected


def test_level_stabilizers(gs_g3):
    # st(k) holds the elements whose labels above depth k are all zero, and
    # st(1), those with root label 0, is the normal closure of b.
    starts = gs_g3.shape.level_starts
    sizes = [sum(not any(key[: starts[k]]) for key in gs_g3.label_keys) for k in range(4)]
    assert sizes == [2187, 729, 81, 1]
    st1 = frozenset(key for key in gs_g3.label_keys if key[0] == 0)
    assert gs_g3.normal_closure([gs_g3.b]).keys == st1


def test_conjugacy_classes(gs_g2, gs_g3, e10_g2):
    p5 = enumerate_quotient(DefiningVector(5, (1, 2, 3, 4)), 2)
    for group, count in ((gs_g2, 11), (gs_g3, 59), (e10_g2, 17), (p5, 29)):
        classes = group.conjugacy_classes()
        assert len(classes) == count
        assert sum(len(c) for c in classes) == len(group)
        for c in classes:
            assert len(group) % len(c) == 0
        assert [frozenset(group._at(i).labels for i in c) for c in classes] == brute_classes(group)
    assert gs_g2.conjugacy_class(gs_g2.identity) == [0]



def _assert_class_column(group):
    # The column is constant on each class and numbers the classes in order
    # of their least index, where each class's walk starts; the classes
    # partition the group as conjugation by every element does.
    classes, column = group.conjugacy_classes(), group.class_column()
    assert len(column) == len(group)
    for c, members in enumerate(classes):
        assert members[0] == min(members)
        assert {column[i] for i in members} == {c}
    assert list(dict.fromkeys(column)) == list(range(len(classes)))
    keys = group.label_keys
    assert [frozenset(map(keys.__getitem__, c)) for c in classes] == brute_classes(group)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_class_column_numbers_classes_by_least_index_on_random_vectors(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(1, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**7)
    for level in sorted({1, n}):
        _assert_class_column(enumerate_quotient(v, level))

def test_order_histogram_and_exponent(gs_g2, gs_g3, e10_g2):
    assert gs_g2.order_histogram() == {1: 1, 3: 26}
    assert e10_g2.order_histogram() == {1: 1, 3: 44, 9: 36}
    assert max(gs_g2.order_histogram()) == 3
    assert max(gs_g3.order_histogram()) == 9
    assert max(e10_g2.order_histogram()) == 9
    hist = gs_g3.order_histogram()
    assert sum(hist.values()) == 2187 and hist[1] == 1


def test_sorted_encodings(gs_g2):
    enc = gs_g2.sorted_encodings()
    assert len(enc) == 27
    assert enc == sorted(enc)
    assert enc[0] == "3,2:0,0,0,0"
    assert len(set(enc)) == 27


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_order_histogram_and_sorted_encodings_match_the_elements(p, e, n):
    # The histogram is read off the p-power kernel, the encodings off the
    # label keys; both agree with the interned elements one by one.
    group = enumerate_quotient(DefiningVector(p, e), n)
    expected = Counter(x.order() for x in group)
    assert group.order_histogram() == dict(sorted(expected.items()))
    assert group.sorted_encodings() == [x.encode() for x in sorted(group)]


def test_histogram_subgroups_and_encodings_build_no_elements_or_classes(e10):
    group = enumerate_quotient(e10, 3)
    group.order_histogram()
    group.derived_subgroup()
    group.sorted_encodings()
    assert "elements" not in vars(group)
    assert not [key for key in group._stages if key.endswith("conjugacy_classes")]


def test_cayley_dot(gs_g2):
    dot = gs_g2.cayley_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 2 * 27


def _conjugation(c: Portrait):
    ci = c.inverse()
    return lambda x: ci * x * c


@pytest.mark.parametrize("stride", [None, 7])
def test_walks_keep_the_one_at_a_time_order(gs, e10, e10_g3, stride):
    """Walks over index tables, each built a power class at a time, find
    elements in the order of a walk that takes one element and one step at
    a time: element-major, step-minor.  The derived subgroup is read off
    the coordinates, in enumeration order.  Conjugacy classes are checked
    at about 40 sampled elements of e10_g3 (6561 elements), or at every
    `stride`-th element of two smaller groups."""
    groups = [e10_g3]
    if stride is not None:
        groups = [enumerate_quotient(gs, 3), enumerate_quotient(e10, 2)]
    for group in groups:
        a, b, one = group.a, group.b, group.identity
        by_a, by_b = _conjugation(a), _conjugation(b)
        derived = group.derived_subgroup()
        assert [x.labels for x in derived] == [x.labels for x in group if x in derived]
        # Arbitrary steps, each twice: a repeated table adds no element.
        steps = [times(b), times(b), quotient._conjugation(a * b), quotient._conjugation(a * b)]
        closure = table_walk([quotient._table(group, step, len(group)) for step in steps])
        expected = element_walk([one], [lambda x: x * b, _conjugation(a * b)])
        assert [group.label_keys[i] for i in closure] == expected
        for x in group.elements[:: stride or max(1, len(group) // 40)]:
            expected = element_walk([x], [by_a, by_b])
            assert [group._at(i).labels for i in group.conjugacy_class(x)] == expected
        expected, placed = [], set()
        for x in group:
            if x.labels not in placed:
                expected.append(element_walk([x], [by_a, by_b]))
                placed.update(expected[-1])
        assert [[group._at(i).labels for i in c] for c in group.conjugacy_classes()] == expected


@pytest.mark.parametrize("p,e,n", [(3, (1, 2), 3), (5, (1, 4, 1, 4), 2)])
def test_class_walks_on_one_shared_mask_match_one_walk_per_class(p, e, n):
    # conjugacy_classes walks every class on the one mask of assigned
    # elements; each class keeps the discovery order of a walk of its own.
    group = enumerate_quotient(DefiningVector(p, e), n)
    classes = group.conjugacy_classes()
    alone = [group.conjugacy_class(group._at(c[0])) for c in classes]
    assert classes == alone
    assert sum(map(len, classes)) == len(group)


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_no_nontrivial_class_is_its_own_inverse(p, e, n):
    # In a group of odd order x is conjugate to x^-1 only when x = 1
    # (Burnside): the inverses of a class form another class.  The
    # signature table scans one class of each inverse pair on this fact.
    group = enumerate_quotient(DefiningVector(p, e), n)
    classes = [list(map(group._at, cls)) for cls in group.conjugacy_classes()]
    keys = [frozenset(x.labels for x in cls) for cls in classes]
    assert keys[0] == {group.identity.labels}
    for cls, members in zip(classes[1:], keys[1:]):
        inverses = frozenset(x.inverse().labels for x in cls)
        assert inverses in keys[1:] and inverses != members


@pytest.mark.parametrize("p,e,n", WALK_CASES)
def test_walks_map_each_power_class_once(p, e, n):
    # Each step's table maps every power class before its stop exactly
    # once, in enumeration order, and the walk over the tables of x -> x*b,
    # x -> x^a and x -> x^b reaches the normal closure of b.
    group = enumerate_quotient(DefiningVector(p, e), n)
    size = group.class_size
    calls: list[tuple[int, bytes]] = []

    def counting(t: int, step):
        def counted(perm: bytes):
            calls.append((t, perm))
            return step(perm)

        return counted

    a, b = group.a, group.b
    steps = [times(b), quotient._conjugation(a), quotient._conjugation(b)]
    tables = [quotient._table(group, counting(t, s), len(group)) for t, s in enumerate(steps)]
    rows = [group._perm_row(c) for c in range(0, len(group), size)]
    assert calls == [(t, row) for t in range(len(steps)) for row in rows]
    assert list(tables[1]) == list(group._conjugation_tables()[0])
    found = {group.label_keys[i] for i in table_walk(tables)}
    assert group.normal_closure([b]).keys == found
    calls.clear()
    assert len(quotient._table(group, counting(0, steps[0]), size)) == size  # one class
    assert calls == [(0, rows[0])]


def test_center_and_stabilizer_derived_build_each_table_once(monkeypatch, gs):
    # The conjugation tables are built once, the a-table on st(1) alone.
    # The closure of st(1)' builds no table of x -> x*s: it forms the
    # product of each of its 27 members with each seed [b, b^(a^k)].
    group = enumerate_quotient(gs, 3)
    a, b, p = group.a, group.b, gs.p
    seeds = {commutator(b, b.conjugate_by(a**k)).labels for k in range(1, p)}
    stops: list[int] = []
    table, mul = quotient._table, Portrait.__mul__
    products = Counter()

    def counted(group, step, stop):
        stops.append(stop)
        return table(group, step, stop)

    def counted_mul(x, y):
        products[y.labels in seeds] += 1
        return mul(x, y)

    monkeypatch.setattr(quotient, "_table", counted)
    group.center()
    monkeypatch.setattr(Portrait, "__mul__", counted_mul)
    closure = group.stabilizer_derived()
    monkeypatch.undo()
    group.conjugacy_classes()
    assert stops == [len(group) // p, len(group)]
    assert len(closure) == 27 and products[True] == 27 * (p - 1)


def test_normal_closure_matches_reference(gs_g2, gs_g3, e10_g2):
    for group in (gs_g2, gs_g3, e10_g2):
        a, b = group.a, group.b
        for seeds in ([b], [a], [a * b * b], [group.identity], [b, group.identity, b]):
            expected = brute_normal_closure(group, seeds, [a, b])
            assert group.normal_closure(seeds).keys == expected
        for seeds, conjugators in (([b], [a]), ([a], [b]), ([a * b * b], [a * b])):
            expected = brute_normal_closure(group, seeds, conjugators)
            assert table_closure(group, seeds, conjugators) == expected


def test_derived_and_stabilizer_commutator_match_reference(gs, gs_g2, gs_g3, e10_g2, e10_g3):
    g1 = enumerate_quotient(gs, 1)
    p5 = enumerate_quotient(DefiningVector(5, (1, 2, 3, 4)), 2)
    for group in (g1, gs_g2, gs_g3, e10_g2, e10_g3, p5):
        a, b = group.a, group.b
        expected = brute_normal_closure(group, [commutator(a, b)], [a, b])
        assert group.derived_subgroup().keys == expected
        # st(1)' by its definition: the normal closure in st(1) of the
        # commutators of a generating set of st(1).
        gens = greedy_generators(group, [x for x in group if x.root_label == 0])
        seeds = [commutator(x, y) for x in gens for y in gens]
        expected = brute_normal_closure(group, seeds, gens)
        assert group.stabilizer_derived().keys == expected
    assert len(g1.stabilizer_derived()) == 1
    assert len(gs_g3.stabilizer_derived()) == 27
    assert len(e10_g3.stabilizer_derived()) == 729


def test_stages_are_memoised_once_per_group(e10):
    group, other = enumerate_quotient(e10, 2), enumerate_quotient(e10, 2)
    names = [
        "derived_subgroup",
        "center",
        "maximal_subgroups",
        "conjugacy_classes",
        "lines",
        "stabilizer_derived",
    ]
    for name in names:
        stage = getattr(group, name)
        assert stage() is stage()
        assert getattr(other, name)() is not stage()
    assert _signature_table(group) is _signature_table(group)
    # One result per stage, stored under the stage's name alone.
    assert all(isinstance(key, str) for key in group._stages)
    assert set(group._stages) >= {f"QuotientGroup.{name}" for name in names}
    assert "_signature_table" in group._stages


def test_finished_group_is_freed_without_the_cyclic_collector(e10):
    """No derived table refers back to its group, so dropping the last
    reference frees the group at once, with the cyclic collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        group = enumerate_quotient(e10, 2)
        group.derived_subgroup()
        group.stabilizer_derived()
        group.center()
        group.maximal_subgroups()
        group.conjugacy_classes()
        _signature_table(group)
        ref = weakref.ref(group)
        del group
        assert ref() is None
    finally:
        if collecting:
            gc.enable()
