"""Sigma sets, socle-orbit signatures, and the structure search."""
from __future__ import annotations

import random
from functools import lru_cache
from hashlib import sha256
from itertools import compress, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ggs import (
    BudgetExceeded,
    DefiningVector,
    GeneratingTriple,
    NotGeneratingError,
    SEARCH_ELEMENT_CAP,
    cyclic_subgroup,
    enumerate_quotient,
    is_beauville_pair,
    search_beauville,
    sigma_set,
    subgroup_conjugation_orbit,
    triple_signature,
)

from ggs import beauville, quotient
from ggs.verifiers import _special_elements
from ggs.beauville import _signature_table, _socle_data, cyclic_powers

import reference
from reference import (
    brute_conjugates_of_powers,
    brute_sigma,
    pair_table_witness,
    reference_signature_table,
    search_literal,
    walk_socle_data,
    walk_subgroup_orbit,
    whole_group_signature_table,
)

ORACLE_SETTINGS = settings(max_examples=30, deadline=None)


def test_search_element_cap():
    assert SEARCH_ELEMENT_CAP == 100_000


def test_cyclic_subgroup(gs_g2, gs_g3):
    assert len(cyclic_subgroup(gs_g2, gs_g2.a)) == 3
    assert len(cyclic_subgroup(gs_g3, gs_g3.a * gs_g3.b)) == 9
    assert len(cyclic_subgroup(gs_g2, gs_g2.identity)) == 1


def test_subgroup_conjugation_orbit(gs_g2):
    start = frozenset(x.labels for x in cyclic_subgroup(gs_g2, gs_g2.a))
    orbit = subgroup_conjugation_orbit(gs_g2, start)
    assert len(orbit) == 3
    assert orbit[0] == start
    sizes = {len(s) for s in orbit}
    assert sizes == {3}
    # closed under further conjugation
    for member in orbit:
        for g in (gs_g2.a, gs_g2.b):
            gi = g.inverse()
            moved = frozenset(
                (gi * gs_g2.element(k) * g).labels for k in member
            )
            assert moved in orbit
    # A maximal subgroup has order 9 and exponent 3, so it is not cyclic.
    with pytest.raises(ValueError, match="cyclic"):
        subgroup_conjugation_orbit(gs_g2, gs_g2.maximal_subgroups()[0].keys)


@ORACLE_SETTINGS
@given(data=st.data())
def test_subgroup_conjugation_orbit_matches_walk(gs_g2, gs_g3, e10_g2, data):
    group = data.draw(st.sampled_from((gs_g2, gs_g3, e10_g2)))
    z = data.draw(st.sampled_from(group.elements))
    members = cyclic_subgroup(group, z).keys
    orbit = subgroup_conjugation_orbit(group, members)
    assert len(orbit) == len(set(orbit))
    assert set(orbit) == set(walk_subgroup_orbit(group, members))


@ORACLE_SETTINGS
@given(data=st.data())
def test_conjugates_of_powers_match_brute(gs_g2, gs_g3, e10_g2, data):
    group = data.draw(st.sampled_from((gs_g2, gs_g3, e10_g2)))
    z = data.draw(st.sampled_from(group.elements))
    seen = bytearray(len(group))
    seeds = (group._position(w.labels) for w in cyclic_powers(z))
    found = quotient._orbits(*group._conjugation_tables(), seeds, seen)
    members = set(map(group.label_keys.__getitem__, found))
    assert len(found) == len(members) == seen.count(1)
    assert group.identity.labels not in members
    assert members | {group.identity.labels} == brute_conjugates_of_powers(group, z)


@pytest.mark.parametrize(
    "p, e, n",
    [
        (3, (1, 2), 2),
        (3, (1, 2), 3),
        (3, (1, 0), 2),
        (3, (1, 0), 3),
        (3, (1, 1), 3),
        (5, (1, 4, 1, 4), 2),
        (5, (1, 0, 0, 0), 2),
        (5, (1, 2, 3, 4), 2),
    ],
)
def test_socle_orbits_match_walk_oracle(p, e, n):
    group = enumerate_quotient(DefiningVector(p, e), n)
    assert _socle_data(group) == walk_socle_data(group)


def test_socle_data_walks_each_orbit_once(monkeypatch):
    # p=5 e=(1,4,1,4): 148 socle classes in 37 orbits; one walk of the
    # powers of a socle names the class of every power.  The socle-orbit
    # id is a class function, so the kernel finds the socle of the first
    # member of each of the 149 classes alone.
    group = enumerate_quotient(DefiningVector(5, (1, 4, 1, 4)), 2)
    walks, fed = [], []
    powers, kernel = beauville.cyclic_powers, beauville.socles

    def counted(x):
        walks.append(x)
        return powers(x)

    def counted_socles(shape, columns, runs):
        fed.append(len(columns[0]))
        return kernel(shape, columns, runs)

    monkeypatch.setattr(beauville, "cyclic_powers", counted)
    monkeypatch.setattr(beauville, "socles", counted_socles)
    ids, count = _socle_data(group)
    monkeypatch.undo()
    assert len(walks) == count == 37
    assert sum(fed) == len(group.conjugacy_classes()) == 149
    assert (ids, count) == walk_socle_data(group)


@pytest.mark.parametrize("p, e", [(5, (1, 4, 1, 4)), (3, (1, 2))])
def test_search_builds_no_element_tuple(p, e):
    # From level 2 on the search reads classes, socles and partners by
    # enumeration index; only the representatives and the records are built.
    group = enumerate_quotient(DefiningVector(p, e), 2)
    search_beauville(group)
    assert "elements" not in vars(group)


def test_generating_triple(gs_g2):
    t = GeneratingTriple.make(gs_g2, gs_g2.a, gs_g2.b)
    assert t.xy == gs_g2.a * gs_g2.b
    assert t.members() == (gs_g2.a, gs_g2.b, t.xy)
    assert t.encode() == [gs_g2.a.encode(), gs_g2.b.encode(), t.xy.encode()]
    with pytest.raises(NotGeneratingError):
        GeneratingTriple.make(gs_g2, gs_g2.a, gs_g2.a ** 2)


def test_sigma_golden_sizes(gs_g2, gs_g3, e10_g2):
    t = GeneratingTriple.make(gs_g2, gs_g2.a, gs_g2.b)
    assert len(sigma_set(t, gs_g2)) == 19
    t = GeneratingTriple.make(e10_g2, e10_g2.a, e10_g2.b)
    assert len(sigma_set(t, e10_g2)) == 45
    t = GeneratingTriple.make(gs_g3, gs_g3.a, gs_g3.b)
    assert len(sigma_set(t, gs_g3)) == 721


def test_sigma_matches_brute_oracle(gs_g2, e10_g2):
    rng = random.Random(131)
    for group in (gs_g2, e10_g2):
        elements = sorted(group, key=lambda x: x.labels)
        pairs = [(group.a, group.b)]
        while len(pairs) < 6:
            x, y = rng.choice(elements), rng.choice(elements)
            if group.is_generating_pair(x, y):
                pairs.append((x, y))
        for x, y in pairs:
            t = GeneratingTriple.make(group, x, y)
            assert sigma_set(t, group).keys == brute_sigma(group, x, y)


def test_sigma_matches_brute_oracle_depth_three(gs_g3):
    t = GeneratingTriple.make(gs_g3, gs_g3.a, gs_g3.b)
    assert sigma_set(t, gs_g3).keys == brute_sigma(gs_g3, gs_g3.a, gs_g3.b)


@lru_cache(maxsize=None)
def _small_vectors(p, n):
    """The nonzero defining vectors whose level-n quotient has at most 3^7
    elements."""
    vectors = (e for e in product(range(p), repeat=p - 1) if any(e))
    return [e for e in vectors if p ** quotient._guard_exponent(DefiningVector(p, e), n) <= 3**7]


@lru_cache(maxsize=None)
def _small_group(p, e, n):
    return enumerate_quotient(DefiningVector(p, e), n)


def _generating_pair(data, group):
    """A generating pair drawn without filtering: x off G', y off the line
    of G/G' through x and off G'; at level 1, where G = C_p, y != 1 when
    x = 1."""
    every = range(len(group))
    if group.coords is None:
        i = data.draw(st.sampled_from(every))
        j = data.draw(st.sampled_from(every if i else every[1:]))
    else:
        p, lines = group.vector.p, group.lines()
        i = data.draw(st.sampled_from([k for k in every if lines[k] <= p]))
        j = data.draw(st.sampled_from([k for k in every if lines[k] not in (lines[i], p + 1)]))
    x, y = group._at(i), group._at(j)
    assert group.is_generating_pair(x, y)
    return x, y


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (3, 3), (5, 2)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sigma_masks_and_pair_verdicts_match_brute_intersection(p, n, data):
    # Random vectors, p in {3, 5}, n <= 3, at most 3^7 elements.  The
    # second triple is half the time the first conjugated by a random
    # element: Sigma is a union of classes, so the two Sigma sets are equal
    # and the pair is refuted.
    group = _small_group(p, data.draw(st.sampled_from(_small_vectors(p, n))), n)
    x1, y1 = _generating_pair(data, group)
    brute1 = brute_sigma(group, x1, y1)
    if data.draw(st.booleans()):
        g = data.draw(st.integers(0, len(group) - 1).map(group._at))
        (x2, y2), brute2 = (x1.conjugate_by(g), y1.conjugate_by(g)), brute1
    else:
        x2, y2 = _generating_pair(data, group)
        brute2 = brute_sigma(group, x2, y2)
    t1, t2 = GeneratingTriple.make(group, x1, y1), GeneratingTriple.make(group, x2, y2)
    for t, brute in ((t1, brute1), (t2, brute2)):
        s = sigma_set(t, group)
        assert s.keys == brute
        assert len(s) == len(brute)
    cert = is_beauville_pair(t1, t2, group)
    common = (brute1 & brute2) - {group.identity.labels}
    assert cert.verified == (not common)
    if common:
        assert cert.refuted
        assert cert.witnesses["common_element"] == group.element(min(common)).encode()


def test_sigma_invariants(gs_g2, e10_g2):
    rng = random.Random(137)
    for group in (gs_g2, e10_g2):
        elements = sorted(group, key=lambda x: x.labels)
        x, y = group.a, group.b
        t = GeneratingTriple.make(group, x, y)
        s = sigma_set(t, group)
        assert group.identity in s
        for z in (x, y, x * y):
            w = z
            while not w.is_identity():
                assert w in s
                w = w * z
        # closed under conjugation
        for k in s.keys:
            for g in (group.a, group.b):
                assert (g.inverse() * group.element(k) * g).labels in s.keys
        # symmetric in the pair and invariant under conjugating the pair
        t_swapped = GeneratingTriple.make(group, y, x)
        assert sigma_set(t_swapped, group).keys == s.keys
        g = rng.choice(elements)
        gi = g.inverse()
        t_conj = GeneratingTriple.make(group, gi * x * g, gi * y * g)
        assert sigma_set(t_conj, group).keys == s.keys


def test_signature_disjointness_equals_literal_intersection(gs_g2, e10_g2):
    rng = random.Random(139)
    for group in (gs_g2, e10_g2):
        elements = sorted(group, key=lambda x: x.labels)
        triples = []
        while len(triples) < 8:
            x, y = rng.choice(elements), rng.choice(elements)
            if group.is_generating_pair(x, y):
                triples.append(GeneratingTriple.make(group, x, y))
        for i in range(len(triples)):
            for j in range(i, len(triples)):
                t1, t2 = triples[i], triples[j]
                sig_disjoint = not (
                    triple_signature(group, t1) & triple_signature(group, t2)
                )
                common = sigma_set(t1, group).keys & sigma_set(t2, group).keys
                literally_trivial = common == {group.identity.labels}
                assert sig_disjoint == literally_trivial


def test_is_beauville_pair_refuted(gs_g2):
    t = GeneratingTriple.make(gs_g2, gs_g2.a, gs_g2.b)
    cert = is_beauville_pair(t, t, gs_g2)
    assert cert.refuted
    assert cert.exhaustive
    witness = cert.witnesses["common_element"]
    assert witness != gs_g2.identity.encode()
    common = gs_g2.element(witness)
    s = sigma_set(t, gs_g2)
    assert common in s


def test_is_beauville_pair_verified(gs_g3):
    u, v, _ = _special_elements(gs_g3)
    x2 = gs_g3.a * v
    y2 = gs_g3.b ** 2 * u
    t1 = GeneratingTriple.make(gs_g3, gs_g3.a, gs_g3.b)
    t2 = GeneratingTriple.make(gs_g3, x2, y2)
    cert = is_beauville_pair(t1, t2, gs_g3)
    assert cert.verified
    assert cert.witnesses["triple_1"] == t1.encode()
    assert cert.witnesses["triple_2"] == t2.encode()
    # order does not matter
    assert is_beauville_pair(t2, t1, gs_g3).verified
    assert len(sigma_set(t2, gs_g3)) == 723


def test_special_elements(gs_g3):
    u, v, _ = _special_elements(gs_g3)
    assert u.order() == 3
    assert u.labels in gs_g3.center().keys
    assert v.labels in gs_g3.stabilizer_derived().keys


def test_search_refuted_both_strategies(gs_g2, e10_g2):
    for group in (gs_g2, e10_g2):
        pruned = search_beauville(group)
        literal = search_literal(group)
        assert pruned.refuted and literal.refuted
        assert pruned.element_count == len(group)
        assert literal.exhaustive


def test_search_verified_matches_known_structure(gs_g3):
    cert = search_beauville(gs_g3)
    assert cert.verified
    t1 = _decode(gs_g3, cert.witnesses["triple_1"])
    t2 = _decode(gs_g3, cert.witnesses["triple_2"])
    assert is_beauville_pair(t1, t2, gs_g3).verified


@pytest.mark.parametrize(
    "p, e, n",
    [
        (3, (1, -1), 2),
        (3, (1, -1), 3),
        (5, (1, 4, 1, 4), 2),
        (3, (1, 0), 2),
        (7, (1, 2, 3, 4, 5, 6), 2),
        (5, (1, 2, 3, 4), 2),
        (3, (1, 0), 1),
    ],
)
def test_signature_table_matches_reference(p, e, n):
    group = enumerate_quotient(DefiningVector(p, e), n)
    table = _signature_table(group)
    expected = reference_signature_table(group)
    assert table == expected
    assert list(table) == list(expected)
    pruned = search_beauville(group)
    if pruned.verified:
        t1 = _decode(group, pruned.witnesses["triple_1"])
        t2 = _decode(group, pruned.witnesses["triple_2"])
        assert is_beauville_pair(t1, t2, group).verified
    if len(group) <= reference.LITERAL_SEARCH_CAP:
        assert pruned.verdict == search_literal(group).verdict


def _assert_same_table(group):
    table = _signature_table(group)
    expected = whole_group_signature_table(group)
    assert table == expected
    assert list(table) == list(expected)
    return table


@pytest.mark.parametrize(
    "p, e, n, order, signatures",
    [
        (5, (1, 0, 0, 0), 2, 15625, 252),
        (3, (1, 0), 3, 59049, 90),
        (3, (1, 1), 3, 19683, 24),
    ],
)
def test_coset_block_table_matches_whole_group_table(p, e, n, order, signatures):
    group = enumerate_quotient(DefiningVector(p, e), n)
    assert len(group) == order
    assert len(_assert_same_table(group)) == signatures


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_coset_block_table_matches_whole_group_table_on_random_vectors(data):
    p = data.draw(st.sampled_from([3, 5]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(2, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**9)
    _assert_same_table(enumerate_quotient(v, n))


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_partner_group_table_items_match_whole_group_table(data):
    p = data.draw(st.sampled_from([3, 5]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(any(e))
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.sampled_from([2, 3] if p == 3 else [2]))
    assume(p ** quotient._guard_exponent(v, n) <= 3**9)
    group = enumerate_quotient(v, n)
    expected = whole_group_signature_table(group)
    assert list(_signature_table(group).items()) == list(expected.items())


@pytest.mark.parametrize(
    "p, e, n, scanned, generating",
    [
        (5, (1, 4, 1, 4), 2, 60, 120),
        (3, (1, 0), 3, 50, 100),
    ],
)
def test_signature_table_scans_one_class_of_each_inverse_pair(
    monkeypatch, p, e, n, scanned, generating
):
    # Each scanned representative has the positions of its products
    # computed once (left_positions), and only the earlier class of each
    # inverse pair is scanned: half of the classes off the Frattini subgroup.
    group = enumerate_quotient(DefiningVector(p, e), n)
    classes = [list(map(group._at, cls)) for cls in group.conjugacy_classes()]
    lines = [quotient.coordinate_line(*group.coords_of(cls[0]), p) for cls in classes]
    assert sum(line != p + 1 for line in lines) == generating
    left_positions = quotient.QuotientGroup.left_positions
    reps = []

    def counted(self, x, stop):
        reps.append(x)
        return left_positions(self, x, stop)

    monkeypatch.setattr(quotient.QuotientGroup, "left_positions", counted)
    table = _signature_table(group)
    monkeypatch.undo()
    assert len(reps) == scanned
    class_of = {y.labels: c for c, cls in enumerate(classes) for y in cls}
    assert all(class_of[x.labels] < class_of[x.inverse().labels] for x in reps)
    assert list(table.items()) == list(whole_group_signature_table(group).items())


@pytest.mark.parametrize(
    "p, e, n, scanned, read, groupings",
    [
        (5, (1, 4, 1, 4), 2, 60, 180, 23),
        (3, (1, 0), 3, 50, 100, 8),
    ],
)
def test_signature_table_reads_one_coset_of_each_inverse_product_pair(
    monkeypatch, p, e, n, scanned, read, groupings
):
    # y -> (xy)^-1 pairs coset s with coset -r-s for a representative of
    # root label r; of each pair only the earlier is read, so (p+1)/2 of
    # the p cosets: 180 of 300 slots at p = 5, 100 of 150 at p = 3.  The
    # partners of a (line, coset) are grouped only when a read needs them.
    group = enumerate_quotient(DefiningVector(p, e), n)
    read_cosets, partner_groups = beauville._read_cosets, beauville._partner_groups
    reads, groups = [], []

    def counted_reads(r, q):
        reads.append(read_cosets(r, q))
        return reads[-1]

    def counted_groups(socles, members):
        groups.append(socles)
        return partner_groups(socles, members)

    monkeypatch.setattr(beauville, "_read_cosets", counted_reads)
    monkeypatch.setattr(beauville, "_partner_groups", counted_groups)
    table = _signature_table(group)
    monkeypatch.undo()
    assert len(reads) == scanned
    assert sum(map(len, reads)) == read == scanned * (p + 1) // 2
    assert len(groups) == groupings
    assert list(table.items()) == list(whole_group_signature_table(group).items())


def test_read_cosets_keep_the_earlier_of_each_pair():
    for p in (3, 5, 7, 11):
        for r in range(p):
            kept = beauville._read_cosets(r, p)
            assert len(kept) == (p + 1) // 2
            assert {min(s, (-r - s) % p) for s in range(p)} == set(kept)


PAIRING_GROUPS = [
    (3, (1, -1), 2),
    (3, (1, 0), 2),
    (5, (1, 4, 1, 4), 2),
    (5, (1, 2, 0, 2), 2),
    (7, (4, 6, 3, 6, 5, 4), 2),
    (3, (1, 0), 3),
]


@lru_cache(maxsize=None)
def _pairing_group(p, e, n):
    return enumerate_quotient(DefiningVector(p, e), n)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_product_is_a_partner_with_the_same_signature(data):
    # The pairing behind the coset skip of the signature table: for a
    # generating pair (x, y) with a-coordinates r and s, (xy)^-1 generates
    # with x, lies in coset -(r+s) mod p, and has y's triple signature.
    p, e, n = data.draw(st.sampled_from(PAIRING_GROUPS))
    group = _pairing_group(p, e, n)
    index = st.integers(0, len(group) - 1)
    x, y = group._at(data.draw(index)), group._at(data.draw(index))
    assume(group.is_generating_pair(x, y))
    y2 = (x * y).inverse()
    assert group.is_generating_pair(x, y2)
    (r, _), (s, _), (t, _) = map(group.coords_of, (x, y, y2))
    assert t == -(r + s) % p
    signature = triple_signature(group, GeneratingTriple.make(group, x, y))
    assert triple_signature(group, GeneratingTriple.make(group, x, y2)) == signature


def test_signature_table_with_a_one_member_partner_group(monkeypatch):
    # Conjugation fixes coordinates, so every partner group of a real table
    # (the partners of one coset with one socle id) is a union of classes of
    # noncentral elements, with at least p members.  A socle id of its own
    # for a = h_0 * a^1 makes a group of one, whose gather is one index.
    group = enumerate_quotient(DefiningVector(3, (1, -1)), 2)
    size = len(group) // 3
    ids, count = _socle_data(group)
    fake = (ids[:size] + [count] + ids[size + 1 :], count + 1)
    for module in (beauville, reference):
        monkeypatch.setattr(module, "_socle_data", lambda g: fake)
    mask = group.line_mask(*(j for j in range(4) if j != 1))[size : 2 * size]
    groups = beauville._partner_groups(fake[0][size : 2 * size], compress(range(size), mask))
    assert [g.members for g in groups if len(g.members) == 1] == [[0]]
    table = _signature_table(group)
    assert any(count in sig for sig in table)
    assert list(table.items()) == list(whole_group_signature_table(group).items())
    assert list(table.items()) == list(reference_signature_table(group).items())


# SHA-256 of the canonical certificates of search_beauville, of the reference
# literal search (up to its LITERAL_SEARCH_CAP) and of is_beauville_pair on
# the triples of (a, b) and (ab, b), which no golden file covers.
PINNED_SEARCHES = {
    (5, (1, 2, 3, 4), 1): {
        "literal": "3bfbab27bc5259b63798f0fec3fc4fb17e7643c3eac71f693564fa1ceb226e45",
        "table": "59abcfd37cf571169ab00cbc30616a7895c99827979644b1db6151cf45c0c6c4",
        "pair": "f8513a12d318eaca99e26eece27618a60eba79dd96240fd15e1f03a07e864447",
    },
    (5, (1, 2, 3, 4), 2): {
        "literal": "2dde413e4b4b3a1ef2ee4da92aabe50968b298de8d41924a1801e76214d30884",
        "table": "9ebef8e6c228f9b75b399ed3ddb63ea52fef588c00407600a4559ccd01afed9d",
        "pair": "065b00155d678452495eac6a6749958691bbe1f06bd38505ef3327214e25db6f",
    },
    (7, (1, 2, 3, 4, 5, 6), 2): {
        "literal": "87fdd6427c3641533de50ba7ee4e1754109c53007565470a9d53fd0962d0856d",
        "table": "baf30f0d6b1b5b9865e0f8ea7a60dbc6852f3fa9a1e3e1e3480d71e4b3f4899b",
        "pair": "189807797a10b3ba08b1be412d22e4c51745da4624172b8df9e32ae105903203",
    },
    (3, (1, 2), 2): {
        "literal": "5b7435d5b4dad9c4752c570a54df98cc054bcc327f76575ae4b0343eb9430260",
        "table": "b7457c09d706520ea9e4d59e8590b75b837a298f007160a3d78692940e451290",
        "pair": "c311917179b7cfb8f5dc01f12377740def24786c6e5b6e6d23d7adc0640fd383",
    },
    (3, (1, 0), 1): {
        "literal": "93f110d7bbc0ff398bb797bfb23de8813f066d4cb1752cbb5667e3aa31b1b94e",
        "table": "696760a594d727291480d7c63db9b6b4dd1b4276fbc8731a08fffa9b2d03dd31",
        "pair": "08d26ba3c10d3e11be8265127eff92ae452da12f1b1108474866a8552bcb8a0c",
    },
    (3, (1, 0), 2): {
        "literal": "cb8acb014b83eb95b209c14b8dbcb97d86d1088c73c4e2adae6458f88867050b",
        "table": "f22627d21e98644c9da29f2163d8e4e23ab265c3eae1057280382a24bca28387",
        "pair": "7ee47e63d2050fc7b237fd5f40d9f7a36057652c4f7314d0fe0a5b292cafb1bf",
    },
    (5, (1, 4, 1, 4), 2): {
        "table": "6b6d20af83940e1ef8c23f3374dc9c2785d7824ea96677b9e9845eee1c71e951",
        "pair": "4d49406faccc7d95fbe3defe26db08b480699cc86ded55da9cb28d5f0bbdff3d",
    },
    (3, (1, 2), 3): {
        "table": "0f7f438901db1388e670a7c2deb8d16492e257def6bfe947d2caddeb1eb4b0fd",
        "pair": "5551787f4c5acd78e10041348123784d57accca3ff5f9fb27315a2a24a7d337e",
    },
}


@pytest.mark.parametrize("p, e, n", list(PINNED_SEARCHES))
def test_search_and_pair_certificates_are_pinned(p, e, n):
    group = enumerate_quotient(DefiningVector(p, e), n)
    a, b = group.a, group.b
    certs = {
        "table": search_beauville(group),
        "pair": is_beauville_pair(
            GeneratingTriple.make(group, a, b), GeneratingTriple.make(group, a * b, b), group
        ),
    }
    if "literal" in PINNED_SEARCHES[p, e, n]:
        certs["literal"] = search_literal(group)
    digests = {k: sha256(c.canonical_json().encode()).hexdigest() for k, c in certs.items()}
    assert digests == PINNED_SEARCHES[p, e, n]


# Sigma-like sets over {0, ..., 4}, each holding the common element 0.
_SIGMAS = st.lists(
    st.frozensets(st.integers(1, 4), max_size=3).map(frozenset({0}).union), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(sigmas=_SIGMAS)
@example(sigmas=[frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1})])  # none disjoint
@example(sigmas=[frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1}), frozenset({0, 3})])
@example(sigmas=[frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({0, 3}), frozenset({0, 2})])
def test_first_disjoint_matches_pair_table(sigmas):
    first: dict[frozenset, int] = {}
    for k, s in enumerate(sigmas):
        first.setdefault(s, k)
    found = beauville._first_disjoint(list(first), lambda s1, s2: len(s1 & s2) == 1)
    expected = pair_table_witness(sigmas)
    assert (None if found is None else (first[found[0]], first[found[1]])) == expected


def test_search_is_deterministic(e10_g2):
    first = search_beauville(e10_g2).canonical_json()
    second = search_beauville(e10_g2).canonical_json()
    assert first == second


def test_search_literal_capped(gs_g3):
    with pytest.raises(BudgetExceeded):
        search_literal(gs_g3)


# "pruned" is the table search, "exhaustive" the reference literal search.
@pytest.mark.parametrize(
    "cap, engine, search",
    [
        ("SEARCH_ELEMENT_CAP", "pruned", "signature search"),
        ("LITERAL_SEARCH_CAP", "exhaustive", "literal search"),
    ],
)
def test_search_cap_errors_name_the_search(e10_g2, monkeypatch, cap, engine, search):
    pruned = engine == "pruned"
    module, run = (beauville, search_beauville) if pruned else (reference, search_literal)
    monkeypatch.setattr(module, cap, 80)
    with pytest.raises(BudgetExceeded) as err:
        run(e10_g2)
    assert str(err.value) == f"{search} handles at most 80 elements; this quotient has 81"
    assert (err.value.budget, err.value.partial) == (80, 81)


def _decode(group, encoded):
    return GeneratingTriple.make(
        group, group.element(encoded[0]), group.element(encoded[1])
    )
