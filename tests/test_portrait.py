"""Portrait arithmetic against naive vertex-map oracles."""
from __future__ import annotations

import random

import pytest

from ggs import Portrait, PsiDecomposition, assemble, commutator, tree_shape
from ggs.portrait import make_a, make_b
from ggs import DefiningVector

from reference import (
    internal_vertices,
    naive_compose,
    naive_image,
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
    assert sh.level_starts == (0, 1, 4)
    assert tree_shape(3, 2) is sh  # cached


def test_label_validation():
    sh = tree_shape(3, 2)
    with pytest.raises(ValueError):
        Portrait(sh, [0, 0, 0])  # wrong length
    x = Portrait(sh, [5, -1, 0, 3])  # residues are reduced
    assert list(x.labels) == [2, 2, 0, 0]


def test_identity_and_roundtrip():
    for sh in shapes_for_tests():
        e = Portrait.identity(sh)
        assert e.is_identity()
        assert not any(e.labels)
        assert Portrait.decode(e.encode()) == e


def test_compose_matches_naive_oracle():
    rng = random.Random(11)
    for sh in shapes_for_tests():
        for _ in range(25):
            f = random_portrait(rng, sh)
            g = random_portrait(rng, sh)
            assert f * g == naive_compose(f, g)


def test_group_axioms_random():
    rng = random.Random(23)
    sh = tree_shape(3, 3)
    e = Portrait.identity(sh)
    for _ in range(100):
        f, g, h = (random_portrait(rng, sh) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * e == f and e * f == f
        assert f * f.inverse() == e and f.inverse() * f == e
        assert f.inverse().inverse() == f
        assert (f * g).inverse() == g.inverse() * f.inverse()


def test_vertex_perm_matches_naive_map():
    # vertex_perm()[u] is the breadth-first index of the image of the
    # internal vertex u, the permutation every product composes.
    rng = random.Random(31)
    for sh in shapes_for_tests():
        vertices = internal_vertices(sh)
        index = {u: i for i, u in enumerate(vertices)}
        for _ in range(10):
            f = random_portrait(rng, sh)
            m = naive_vertex_map(f)
            perm = f.vertex_perm()
            assert len(perm) == len(vertices)
            for i, u in enumerate(vertices):
                assert perm[i] == index[m[u] if u else u]


def test_apply_rooted_generator():
    a = make_a(tree_shape(3, 2))
    assert naive_image(a, (1,)) == (2,)
    assert naive_image(a, (3,)) == (1,)
    assert naive_image(a, (1, 2)) == (2, 2)  # subtree is carried rigidly


def test_apply_recursive_generator_depth_two():
    # e = (1, -1) at depth 2: sections a, a^2, then the depth-1 identity.
    b = make_b(DefiningVector(3, (1, -1)), tree_shape(3, 2))
    assert list(b.labels) == [0, 1, 2, 0]
    assert naive_image(b, (1, 1)) == (1, 2)
    assert naive_image(b, (2, 1)) == (2, 3)
    assert naive_image(b, (3, 1)) == (3, 1)  # third section fixes the next letter
    assert naive_image(b, (3, 2)) == (3, 2)


def test_psi_assemble_roundtrip():
    rng = random.Random(47)
    for sh in (tree_shape(3, 2), tree_shape(3, 3), tree_shape(5, 2)):
        for _ in range(20):
            f = random_portrait(rng, sh)
            d = f.psi()
            assert d.root_label == f.root_label
            assert len(d.sections) == sh.p
            assert assemble(d) == f


def test_psi_depth_one_rejected():
    with pytest.raises(ValueError):
        Portrait.identity(tree_shape(3, 1)).psi()


def test_psi_of_recursive_generator():
    v = DefiningVector(3, (1, -1))
    sh = tree_shape(3, 3)
    sub = tree_shape(3, 2)
    d = make_b(v, sh).psi()
    assert d.root_label == 0
    assert d.sections == (make_a(sub), make_a(sub) ** 2, make_b(v, sub))


def test_assemble_nonzero_root():
    sub = tree_shape(3, 1)
    d = PsiDecomposition(2, (Portrait.identity(sub),) * 3)
    f = assemble(d)
    assert f.root_label == 2
    assert f.psi() == d


def test_order_matches_naive():
    rng = random.Random(59)
    sh = tree_shape(3, 2)
    for _ in range(30):
        f = random_portrait(rng, sh)
        assert f.order() == naive_order(f)
    assert Portrait.identity(sh).order() == 1
    assert make_a(sh).order() == 3


def test_order_is_power_of_p():
    rng = random.Random(61)
    sh = tree_shape(5, 2)
    for _ in range(10):
        k = random_portrait(rng, sh).order()
        while k % 5 == 0:
            k //= 5
        assert k == 1


def test_powers():
    rng = random.Random(67)
    sh = tree_shape(3, 3)
    for _ in range(10):
        f = random_portrait(rng, sh)
        assert f**0 == Portrait.identity(sh)
        assert f**1 == f
        assert f**3 == f * f * f
        assert f**-1 == f.inverse()
        assert f**-2 == (f * f).inverse()
        assert f**10 == f**9 * f


def test_conjugation_and_commutators():
    rng = random.Random(71)
    sh = tree_shape(3, 3)
    for _ in range(15):
        f, g = random_portrait(rng, sh), random_portrait(rng, sh)
        assert f.conjugate_by(g) == g.inverse() * f * g
        assert commutator(f, g) == f.inverse() * g.inverse() * f * g
        assert commutator(f, g).inverse() == commutator(g, f)


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

