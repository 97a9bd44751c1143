"""Portrait arithmetic against naive vertex-map oracles."""
from __future__ import annotations

import pickle
import random

import pytest

from ggs import (
    Portrait,
    apply,
    assemble,
    commutator,
    compose,
    conjugate,
    identity,
    inverse,
    order,
    parse_vertex,
    psi,
    PsiDecomposition,
    stabilizes_level,
    tree_shape,
)
from ggs.portrait import make_a, make_b
from ggs import DefiningVector

from reference import (
    naive_compose,
    naive_order,
    naive_vertex_map,
    random_portrait,
    shapes_for_tests,
)


def test_tree_shape_validation():
    for p in (2, 4, 6, 9, 1):
        with pytest.raises(ValueError):
            tree_shape(p, 2)
    with pytest.raises(ValueError):
        tree_shape(3, 0)
    sh = tree_shape(3, 2)
    assert sh.internal_count == 4
    assert sh.leaf_count == 9
    assert tree_shape(3, 2) is sh  # cached


def test_label_validation():
    sh = tree_shape(3, 2)
    with pytest.raises(ValueError):
        Portrait(sh, [0, 0, 0])  # wrong length
    x = Portrait(sh, [5, -1, 0, 3])  # residues are reduced
    assert list(x.labels) == [2, 2, 0, 0]


def test_identity_and_roundtrip():
    for sh in shapes_for_tests():
        e = identity(sh)
        assert e.is_identity()
        assert not any(e.labels)
        assert Portrait.decode(e.encode()) == e


def test_compose_matches_naive_oracle():
    rng = random.Random(11)
    for sh in shapes_for_tests():
        for _ in range(25):
            f = random_portrait(rng, sh)
            g = random_portrait(rng, sh)
            assert compose(f, g) == naive_compose(f, g)
            assert f * g == compose(f, g)


def test_group_axioms_random():
    rng = random.Random(23)
    sh = tree_shape(3, 3)
    e = identity(sh)
    for _ in range(100):
        f, g, h = (random_portrait(rng, sh) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * e == f and e * f == f
        assert f * inverse(f) == e and inverse(f) * f == e
        assert inverse(inverse(f)) == f
        assert inverse(f * g) == inverse(g) * inverse(f)


def test_vertex_perm_matches_naive_map():
    rng = random.Random(31)
    sh = tree_shape(3, 2)
    verts = [(1,), (2,), (3,)] + [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for _ in range(20):
        f = random_portrait(rng, sh)
        m = naive_vertex_map(f)
        for v in verts:
            assert f.apply(v) == m[v]


def test_apply_rooted_generator():
    sh = tree_shape(3, 2)
    a = make_a(sh)
    assert apply(a, "1") == (2,)
    assert apply(a, (3,)) == (1,)
    assert apply(a, "12") == (2, 2)  # subtree is carried rigidly


def test_apply_recursive_generator_depth_two():
    # e = (1, -1) at depth 2: sections a, a^2, then the depth-1 identity.
    b = make_b(DefiningVector(3, (1, -1)), tree_shape(3, 2))
    assert list(b.labels) == [0, 1, 2, 0]
    assert apply(b, "11") == (1, 2)
    assert apply(b, "21") == (2, 3)
    assert apply(b, "3 1") == (3, 1)  # third section fixes the next letter
    assert apply(b, (3, 2)) == (3, 2)


def test_parse_vertex_formats():
    sh = tree_shape(3, 2)
    assert parse_vertex(sh, "31") == (3, 1)
    assert parse_vertex(sh, "3 1") == (3, 1)
    assert parse_vertex(sh, "3,1") == (3, 1)
    assert parse_vertex(sh, (3, 1)) == (3, 1)
    assert parse_vertex(sh, "") == ()
    with pytest.raises(ValueError):
        parse_vertex(sh, "311")  # deeper than the tree
    with pytest.raises(ValueError):
        parse_vertex(sh, "40")  # letters out of range
    with pytest.raises(ValueError):
        parse_vertex(sh, "x")


def test_psi_assemble_roundtrip():
    rng = random.Random(47)
    for sh in (tree_shape(3, 2), tree_shape(3, 3), tree_shape(5, 2)):
        for _ in range(20):
            f = random_portrait(rng, sh)
            d = psi(f)
            assert d.root_label == f.root_label
            assert len(d.sections) == sh.p
            assert assemble(d) == f


def test_psi_depth_one_rejected():
    with pytest.raises(ValueError):
        psi(identity(tree_shape(3, 1)))


def test_psi_of_recursive_generator():
    v = DefiningVector(3, (1, -1))
    sh = tree_shape(3, 3)
    sub = tree_shape(3, 2)
    d = psi(make_b(v, sh))
    assert d.root_label == 0
    assert d.sections == (make_a(sub), make_a(sub) ** 2, make_b(v, sub))


def test_assemble_nonzero_root():
    sub = tree_shape(3, 1)
    d = PsiDecomposition(2, (identity(sub),) * 3)
    f = assemble(d)
    assert f.root_label == 2
    assert psi(f) == d


def test_order_matches_naive():
    rng = random.Random(59)
    sh = tree_shape(3, 2)
    for _ in range(30):
        f = random_portrait(rng, sh)
        assert order(f) == naive_order(f)
    assert order(identity(sh)) == 1
    assert order(make_a(sh)) == 3


def test_order_is_power_of_p():
    rng = random.Random(61)
    sh = tree_shape(5, 2)
    for _ in range(10):
        k = order(random_portrait(rng, sh))
        while k % 5 == 0:
            k //= 5
        assert k == 1


def test_powers():
    rng = random.Random(67)
    sh = tree_shape(3, 3)
    for _ in range(10):
        f = random_portrait(rng, sh)
        assert f**0 == identity(sh)
        assert f**1 == f
        assert f**3 == f * f * f
        assert f**-1 == inverse(f)
        assert f**-2 == inverse(f * f)
        assert f**10 == f**9 * f


def test_conjugation_and_commutators():
    rng = random.Random(71)
    sh = tree_shape(3, 3)
    for _ in range(15):
        f, g = random_portrait(rng, sh), random_portrait(rng, sh)
        assert conjugate(f, g) == inverse(g) * f * g
        assert f.conjugate_by(g) == conjugate(f, g)
        assert commutator(f, g) == inverse(f) * inverse(g) * f * g
        assert inverse(commutator(f, g)) == commutator(g, f)


def test_stabilizes_level():
    v = DefiningVector(3, (1, -1))
    sh = tree_shape(3, 3)
    a, b = make_a(sh), make_b(v, sh)
    assert a.stabilizes_level(0) and not a.stabilizes_level(1)
    assert b.stabilizes_level(1) and not b.stabilizes_level(2)
    assert stabilizes_level(identity(sh), 3)
    with pytest.raises(ValueError):
        b.stabilizes_level(4)


def test_encode_decode():
    v = DefiningVector(3, (1, -1))
    b = make_b(v, tree_shape(3, 2))
    assert b.encode() == "3,2:0,1,2,0"
    assert Portrait.decode("3,2:0,1,2,0") == b
    assert Portrait.decode("3,2:0,1,-1,3") == b  # residues reduced on decode
    for bad in ("", "3,2", "3:0", "x,2:0", "3,2:0,1"):
        with pytest.raises(ValueError):
            Portrait.decode(bad)


def test_decode_refuses_a_huge_prime_at_once():
    # Trial division up to 10^9 would not end; the arity bound answers first.
    with pytest.raises(ValueError, match="malformed") as err:
        Portrait.decode("1000000000000000003,1:0")
    assert "at most 127" in str(err.value.__cause__)


def test_ordering_is_label_order():
    rng = random.Random(73)
    sh = tree_shape(3, 2)
    xs = [random_portrait(rng, sh) for _ in range(30)]
    assert sorted(xs) == sorted(xs, key=lambda x: x.labels)


def test_pickle_roundtrip():
    rng = random.Random(79)
    for sh in shapes_for_tests():
        f = random_portrait(rng, sh)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.shape is f.shape
