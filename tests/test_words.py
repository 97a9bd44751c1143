"""Generator-word parsing."""
from __future__ import annotations

import pytest

from ggs import DefiningVector, WordSyntaxError, evaluate_word, parse_word, tree_shape
from ggs.portrait import Portrait, make_a, make_b
from ggs.words import MAX_NESTING


def _gens(p=3, e=(1, -1), n=3):
    sh = tree_shape(p, n)
    return make_a(sh), make_b(DefiningVector(p, e), sh)


def test_basic_words():
    a, b = _gens()
    assert evaluate_word("a", a, b) == a
    assert evaluate_word("b", a, b) == b
    assert evaluate_word("ab", a, b) == a * b
    assert evaluate_word("ba", a, b) == b * a
    assert evaluate_word("", a, b).is_identity()


def test_inverse_letters():
    a, b = _gens()
    assert evaluate_word("A", a, b) == a.inverse()
    assert evaluate_word("B", a, b) == b.inverse()
    assert evaluate_word("Ab", a, b) == a.inverse() * b
    assert evaluate_word("aA", a, b).is_identity()


@pytest.mark.parametrize("word, inverses", [("ab^2", 0), ("AbA", 1), ("AB(ab)^-1", 3)])
def test_parser_inverts_only_the_letters_a_word_uses(monkeypatch, word, inverses):
    a, b = _gens()
    calls = []
    inverse = Portrait.inverse

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(Portrait, "inverse", counted)
    evaluate_word(word, a, b)
    assert len(calls) == inverses


def test_exponents():
    a, b = _gens()
    assert evaluate_word("a^2", a, b) == a * a
    assert evaluate_word("b^-1", a, b) == b.inverse()
    assert evaluate_word("a^0", a, b).is_identity()
    assert evaluate_word("ab^2", a, b) == a * b * b
    assert evaluate_word("A^2", a, b) == (a * a).inverse()


def test_groups():
    a, b = _gens()
    assert evaluate_word("(ab)^3", a, b) == (a * b) ** 3
    assert evaluate_word("(ab)^-1", a, b) == (a * b).inverse()
    assert evaluate_word("((ab)^2b)^2", a, b) == ((a * b) ** 2 * b) ** 2
    assert evaluate_word("(a)(b)", a, b) == a * b


def test_whitespace():
    a, b = _gens()
    assert evaluate_word(" a b ^ 2 ", a, b) == a * b * b
    assert evaluate_word("( a b ) ^ 3", a, b) == (a * b) ** 3


def test_syntax_errors():
    a, b = _gens()
    for text, pos in (("c", 0), (")", 0), ("a^", 2), ("a^x", 2), ("(ab", 3), ("ab)", 2)):
        with pytest.raises(WordSyntaxError) as err:
            evaluate_word(text, a, b)
        assert err.value.position == pos
    with pytest.raises(WordSyntaxError):
        evaluate_word("2a", a, b)


def test_nesting_cap():
    a, b = _gens()
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert evaluate_word(deepest, a, b) == a
    assert evaluate_word("(a)" * 1000, a, b) == a**1000  # siblings do not nest
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(WordSyntaxError, match="nested deeper") as err:
            evaluate_word("(" * depth + "a" + ")" * depth, a, b)
        assert err.value.position == MAX_NESTING


def test_parse_word_binds_to_group(gs_g3):
    x = parse_word("(ab)^3", gs_g3)
    assert x in gs_g3
    assert x == (gs_g3.a * gs_g3.b) ** 3
    assert parse_word("aA", gs_g3) == gs_g3.identity
