"""Finite quotient enumeration and subgroup machinery."""
from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ggs import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DefiningVector,
    Portrait,
    SubgroupHandle,
    commutator,
    enumerate_quotient,
    predicted_order,
)
from ggs import quotient
from ggs.quotient import (
    MAX_BATCH_VERTICES,
    MAX_LEVEL,
    coordinate_line,
    exceeds_budget,
    predicted_exponent,
    written_order,
)

from reference import (
    brute_classes,
    brute_coords,
    brute_generated,
    brute_normal_closure,
    element_walk,
    greedy_generators,
    queue_walk,
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


def test_budget_exceeded_mid_enumeration():
    # symmetric vector: no predicted order, so the budget trips during the walk
    with pytest.raises(BudgetExceeded) as err:
        enumerate_quotient(DefiningVector(3, (1, 1)), 3, budget=100)
    assert err.value.predicted is None
    assert err.value.partial >= 100


@pytest.mark.parametrize(
    "p,e,n",
    [
        (3, (1, -1), 3),
        (3, (1, 0), 3),
        (3, (1, 1), 3),
        (5, (1, 4, 1, 4), 2),
        (7, (1, 2, 3, 4, 5, 6), 2),
        (3, (1, 0), 1),
        (5, (1, 4, 1, 4), 1),
        (7, (1, 2, 3, 4, 5, 6), 1),
    ],
)
def test_walk_matches_queue_walk(p, e, n):
    v = DefiningVector(p, e)
    group = enumerate_quotient(v, n)
    expected, coords = queue_walk(v, n)
    assert [x.labels for x in group.elements] == [x.labels for x in expected]
    assert group.coords == coords
    assert group._index == {x.labels: i for i, x in enumerate(expected)}
    assert [x._perm for x in group.elements] == [x._perm for x in expected]
    for x in group.elements[:: max(1, len(group) // 500)]:
        assert x.vertex_perm() == Portrait(x.shape, x.labels).vertex_perm()


@pytest.mark.parametrize(
    "steps",
    [
        ((1, 0), (0, 2), (-1, 0), (0, -1)),  # b moves the b-coordinate twice
        ((1, 0), (0, 1), (-1, 1), (0, -1)),  # a^-1 also moves the b-coordinate
    ],
)
def test_corrupt_coordinate_step_is_caught(e10, steps, monkeypatch):
    monkeypatch.setattr(quotient, "_GEN_COORDS", steps)
    with pytest.raises(RuntimeError, match="coordinates conflicted"):
        enumerate_quotient(e10, 2)
    # At level 1, b is trivial and the coordinates are dropped instead.
    assert enumerate_quotient(e10, 1).coords is None


def test_walk_refuses_trees_past_the_vertex_limit():
    sym = DefiningVector(3, (1, 1))
    # (3^5 - 1) / 2 = 121 internal vertices: walked until the budget stops it.
    with pytest.raises(BudgetExceeded, match="stopped at 101 elements"):
        enumerate_quotient(sym, 5, budget=100)
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


def test_derived_subgroup(gs_g2, gs_g3, e10_g2):
    for group, size in ((gs_g2, 3), (gs_g3, 243), (e10_g2, 9)):
        der = group.derived_subgroup()
        assert len(der) == size
        assert der.index() == len(group) // size
        assert len(group) == size * group.vector.p ** 2  # index p^2 always


def test_frattini_equals_derived(gs_g2, gs_g3, e10_g2):
    for group in (gs_g2, gs_g3, e10_g2):
        assert group.frattini().keys == group.derived_subgroup().keys


def test_center(gs_g2, gs_g3, e10_g2):
    p5 = enumerate_quotient(DefiningVector(5, (1, 4, 1, 4)), 2)
    for group, size in ((gs_g2, 3), (gs_g3, 3), (e10_g2, 3), (p5, 5)):
        z = group.center()
        assert len(z) == size
        assert group.identity in z
        a, b = group.a, group.b
        assert z.elements == tuple(x for x in group if x * a == a * x and x * b == b * x)
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
        gens = list(derived.generators)
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
    frat = gs_g2.frattini()
    for x in gs_g2:
        hits = sum(x in m for m in maxes)
        assert hits == (4 if x.labels in frat.keys else 1)


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
    for group in (gs_g2, e10_g3):
        p, lines = group.vector.p, group.lines()
        assert lines == bytes(coordinate_line(*c, p) for c in group.coords)
        for j, m in enumerate(group.maximal_subgroups()):
            assert [x in m for x in group] == [k in (j, p + 1) for k in lines]
    with pytest.raises(ValueError, match="level-1"):
        enumerate_quotient(DefiningVector(3, (1, 0)), 1).lines()


def test_level_stabilizers(gs_g3):
    assert len(gs_g3.level_stabilizer(0)) == 2187
    st1 = gs_g3.level_stabilizer(1)
    assert len(st1) == 729
    assert all(x.stabilizes_level(1) for x in st1)
    assert len(gs_g3.level_stabilizer(2)) == 81
    assert len(gs_g3.level_stabilizer(3)) == 1
    assert gs_g3.normal_closure([gs_g3.b]).keys == st1.keys


def test_subgroup_commutator(gs_g3):
    whole = gs_g3.as_subgroup()
    assert gs_g3.subgroup_commutator(whole, whole).keys == gs_g3.derived_subgroup().keys
    st1 = gs_g3.level_stabilizer(1)
    assert len(gs_g3.subgroup_commutator(st1, st1)) == 27


def test_conjugacy_classes(gs_g2, gs_g3, e10_g2):
    p5 = enumerate_quotient(DefiningVector(5, (1, 2, 3, 4)), 2)
    for group, count in ((gs_g2, 11), (gs_g3, 59), (e10_g2, 17), (p5, 29)):
        classes = group.conjugacy_classes()
        assert len(classes) == count
        assert sum(len(c) for c in classes) == len(group)
        for c in classes:
            assert len(group) % len(c) == 0
        assert [frozenset(x.labels for x in c) for c in classes] == brute_classes(group)
    assert gs_g2.conjugacy_class(gs_g2.identity) == (gs_g2.identity,)


def test_order_histogram_and_exponent(gs_g2, gs_g3, e10_g2):
    assert gs_g2.order_histogram() == {1: 1, 3: 26}
    assert e10_g2.order_histogram() == {1: 1, 3: 44, 9: 36}
    assert gs_g2.exponent() == 3
    assert gs_g3.exponent() == 9
    assert e10_g2.exponent() == 9
    hist = gs_g3.order_histogram()
    assert sum(hist.values()) == 2187 and hist[1] == 1


def test_lower_central_series(gs_g2, e10_g2):
    assert [len(h) for h in gs_g2.lower_central_series()] == [27, 3, 1]
    assert [len(h) for h in e10_g2.lower_central_series()] == [81, 9, 3, 1]
    series = e10_g2.lower_central_series()
    assert series[1].keys == e10_g2.derived_subgroup().keys


def test_sorted_encodings(gs_g2):
    enc = gs_g2.sorted_encodings()
    assert len(enc) == 27
    assert enc == sorted(enc)
    assert enc[0] == "3,2:0,0,0,0"
    assert len(set(enc)) == 27


def test_cayley_dot(gs_g2):
    dot = gs_g2.cayley_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 2 * 27


def test_subgroup_generators(gs_g2, e10_g2):
    assert gs_g2.derived_subgroup().generators
    for group in (gs_g2, e10_g2):
        st1 = group.level_stabilizer(1)
        handles = [
            group.as_subgroup(),
            group.derived_subgroup(),
            group.frattini(),
            group.center(),
            st1,
            group.subgroup_commutator(st1, st1),
            group.normal_closure([group.b], [group.a]),
            *group.maximal_subgroups(),
            *group.lower_central_series(),
        ]
        for h in handles:
            assert frozenset(brute_generated(group, h.generators)) == h.keys
            # The coset-growing pick equals the pick that re-closes each time.
            fresh = SubgroupHandle(group, h.elements)
            assert list(fresh.generators) == greedy_generators(group, h.elements)


def _conjugation(c: Portrait):
    ci = c.inverse()
    return lambda x: ci * x * c


@pytest.mark.parametrize("chunk", [None, 7])
def test_walks_keep_the_one_at_a_time_order(gs, e10, e10_g3, chunk, monkeypatch):
    """Chunked column walks find elements in the order of a walk that takes
    one element and one step at a time: element-major, step-minor.  With the
    default chunk the derived subgroup of e10_g3 (6561 elements) spans
    several chunks; with chunks of 7 every walk does."""
    groups = [e10_g3]
    if chunk is not None:
        monkeypatch.setattr(quotient, "WALK_CHUNK", chunk)
        groups = [enumerate_quotient(gs, 3), enumerate_quotient(e10, 2)]
    for group in groups:
        a, b, one = group.a, group.b, group.identity
        by_a, by_b = _conjugation(a), _conjugation(b)
        s = commutator(a, b)
        expected = element_walk([one], [lambda x: x * s, by_a, by_b])
        assert [x.labels for x in group.derived_subgroup()] == expected
        closure = group.normal_closure([b, b], [a * b, a * b])
        expected = element_walk([one], [lambda x: x * b, _conjugation(a * b)])
        assert [x.labels for x in closure] == expected
        for x in group.elements[:: max(1, len(group) // 40)]:
            expected = element_walk([x], [by_a, by_b])
            assert [y.labels for y in group.conjugacy_class(x)] == expected
        expected, placed = [], set()
        for x in group:
            if x.labels not in placed:
                expected.append(element_walk([x], [by_a, by_b]))
                placed.update(expected[-1])
        assert [[y.labels for y in c] for c in group.conjugacy_classes()] == expected


def test_normal_closure_matches_reference(gs_g2, gs_g3, e10_g2):
    for group in (gs_g2, gs_g3, e10_g2):
        a, b = group.a, group.b
        for seeds, conjugators in (
            ([b], None),
            ([b], [a]),
            ([a], [b]),
            ([a * b * b], [a * b]),
            ([group.identity], None),
        ):
            expected = brute_normal_closure(group, seeds, conjugators or [a, b])
            assert group.normal_closure(seeds, conjugators).keys == expected


def test_derived_and_stabilizer_commutator_match_reference(gs_g2, gs_g3, e10_g2, e10_g3):
    for group in (gs_g2, gs_g3, e10_g2, e10_g3):
        a, b = group.a, group.b
        expected = brute_normal_closure(group, [commutator(a, b)], [a, b])
        assert group.derived_subgroup().keys == expected
        st1 = group.level_stabilizer(1)
        gens = st1.generators
        seeds = [commutator(x, y) for x in gens for y in gens]
        expected = brute_normal_closure(group, seeds, list(gens))
        assert group.subgroup_commutator(st1, st1).keys == expected
    assert len(e10_g3.subgroup_commutator(st1, st1)) == 729


def test_lower_central_series_matches_reference(gs_g2, gs_g3, e10_g2):
    for group in (gs_g2, gs_g3, e10_g2):
        a, b = group.a, group.b
        # gamma_(i+1) = [gamma_i, G] is the normal closure of the [x, a] and
        # [x, b] with x running over gamma_i, or over {a, b} for gamma_1 = G.
        expected = [frozenset(x.labels for x in group)]
        members = [a, b]
        while len(expected[-1]) > 1:
            seeds = [commutator(x, g) for x in members for g in (a, b)]
            expected.append(brute_normal_closure(group, seeds, [a, b]))
            members = [group.element(k) for k in expected[-1]]
        assert [h.keys for h in group.lower_central_series()] == expected
