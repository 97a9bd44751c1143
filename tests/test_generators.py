"""Defining vectors, circulant rank, and the two standard generators."""
from __future__ import annotations

import random

import pytest

from ggs import (
    Classification,
    DefiningVector,
    analyze_circulant,
    classify,
    make_a,
    make_b,
    parse_vector,
    tree_shape,
)

from reference import naive_image, shift_multiplicity, two_level_b_labels


def test_vector_validation():
    with pytest.raises(ValueError):
        DefiningVector(3, (0, 0))  # zero vector
    with pytest.raises(ValueError):
        DefiningVector(3, (1, 2, 1))  # wrong length
    with pytest.raises(ValueError):
        DefiningVector(4, (1, 2, 3))  # not an odd prime
    v = DefiningVector(3, (4, -1))
    assert v.e == (1, 2)  # reduced mod p


def test_vector_equality_hash_and_repr_follow_the_residues():
    v = DefiningVector(5, (6, 4, 1, 4))
    w = DefiningVector(5, (1, 4, 1, 4))
    assert v == w and hash(v) == hash(w)
    assert v != DefiningVector(5, (2, 3, 2, 3))
    assert repr(v) == "DefiningVector(p=5, e=(1, 4, 1, 4))"


def test_vector_is_immutable():
    v = DefiningVector(5, (1, 4, 1, 4))
    assert v.rank == 4
    for name, value in (("p", 7), ("e", (1, 0, 0, 0)), ("rank", 1)):
        with pytest.raises(AttributeError):
            setattr(v, name, value)
    assert (v.p, v.e, v.rank) == (5, (1, 4, 1, 4), 4)


@pytest.mark.parametrize("p,message", [
    (2, "arity must be an odd prime, got 2"),
    (9, "arity must be an odd prime, got 9"),
    (131, "arity must be at most 127, got 131: products sum two labels in one byte "
          "before reducing them mod p"),
])
def test_vector_and_tree_reject_a_bad_arity_alike(p, message):
    for build in (lambda: DefiningVector(p, (1,) * (p - 1)), lambda: tree_shape(p, 1)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_parse_vector():
    assert parse_vector(3, "1,-1").e == (1, 2)
    assert parse_vector(5, "1, -1, 1, -1").e == (1, 4, 1, 4)
    with pytest.raises(ValueError):
        parse_vector(3, "1")
    with pytest.raises(ValueError):
        parse_vector(3, "1,x")
    with pytest.raises(ValueError):
        parse_vector(3, "0,0")


def test_alpha_and_periodicity():
    assert DefiningVector(3, (1, -1)).alpha == 0
    assert DefiningVector(3, (1, -1)).periodic
    v = DefiningVector(3, (1, 0))
    assert v.alpha == 1 and not v.periodic
    assert DefiningVector(5, (1, -1, 1, -1)).periodic


def test_symmetric():
    assert DefiningVector(3, (1, 1)).symmetric
    assert not DefiningVector(3, (1, -1)).symmetric
    assert DefiningVector(5, (1, 2, 2, 1)).symmetric
    assert not DefiningVector(5, (1, 2, 1, 2)).symmetric


def test_rank_frozen_values():
    assert DefiningVector(3, (1, -1)).rank == 2
    assert DefiningVector(3, (1, 0)).rank == 3
    assert DefiningVector(3, (1, 1)).rank == 3
    assert DefiningVector(5, (1, -1, 1, -1)).rank == 4
    assert DefiningVector(5, (1, 0, 0, 0)).rank == 5


def test_circulant_analysis_agrees_with_shift_oracle():
    rng = random.Random(101)
    for p in (3, 5, 7):
        for _ in range(60):
            e = [rng.randrange(p) for _ in range(p - 1)]
            if not any(e):
                e[rng.randrange(p - 1)] = 1 + rng.randrange(p - 1)
            v = DefiningVector(p, tuple(e))
            res = analyze_circulant(v)
            assert res.rank_gauss == res.rank_formula == v.rank
            assert res.multiplicity == shift_multiplicity(list(v.e), p)
            assert res.rank_gauss == p - res.multiplicity


def test_classify():
    c = classify(DefiningVector(3, (1, -1)))
    assert (c.alpha, c.periodic, c.symmetric, c.rank) == (0, True, False, 2)
    assert c.gupta_sidki
    assert not classify(DefiningVector(3, (1, 0))).gupta_sidki
    assert not classify(DefiningVector(5, (1, -1, 1, -1))).gupta_sidki


def test_classification_fields_in_order():
    c = Classification(5, (1, 4, 1, 4), 0, True, False, 4, False)
    assert (c.p, c.e, c.alpha, c.periodic, c.symmetric, c.rank, c.gupta_sidki) == (
        5, (1, 4, 1, 4), 0, True, False, 4, False)
    assert c == classify(DefiningVector(5, (1, 4, 1, 4)))


def test_make_a():
    a = make_a(tree_shape(3, 2))
    assert list(a.labels) == [1, 0, 0, 0]
    assert a.order() == 3
    a5 = make_a(tree_shape(5, 3))
    assert a5.order() == 5
    assert naive_image(a5, (5,)) == (1,)


def test_make_b_depth_two_matches_unfolding():
    for p, e in ((3, (1, 2)), (3, (1, 0)), (5, (1, 4, 1, 4)), (5, (2, 3, 0, 1))):
        v = DefiningVector(p, e)
        b = make_b(v, tree_shape(p, 2))
        assert list(b.labels) == two_level_b_labels(p, e)


def test_make_b_depth_one_is_identity():
    v = DefiningVector(3, (1, -1))
    assert make_b(v, tree_shape(3, 1)).is_identity()


def test_make_b_sections():
    v = DefiningVector(5, (1, 4, 1, 4))
    sh = tree_shape(5, 3)
    d = make_b(v, sh).psi()
    sub = tree_shape(5, 2)
    expected = tuple(make_a(sub) ** k for k in (1, 4, 1, 4)) + (make_b(v, sub),)
    assert d.root_label == 0
    assert d.sections == expected


def test_make_b_wrong_arity():
    with pytest.raises(ValueError):
        make_b(DefiningVector(3, (1, -1)), tree_shape(5, 2))


def test_conjugate_generator_rotates_sections():
    v = DefiningVector(3, (1, -1))
    sh = tree_shape(3, 3)
    b, a = make_b(v, sh), make_a(sh)
    base = b.psi().sections
    for i in range(3):
        rotated = b.conjugate_by(a**i).psi().sections
        assert all(rotated[j] == base[(j - i) % 3] for j in range(3))


def test_generator_orders(gs):
    sh = tree_shape(3, 3)
    assert make_b(gs, sh).order() == 3
    assert make_a(sh).order() == 3
