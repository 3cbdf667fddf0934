import random

import pytest

from bridgecovers.words import (
    CyclicPresentation,
    FreeWord,
    LaurentPolynomial,
    Presentation,
    format_word,
    parse_word,
    word,
)


def test_merge_and_reduce():
    w = word((1, 1), (1, 2), (2, -1))
    assert w.letters == ((1, 3), (2, -1))
    w = word((1, 1), (1, -1))
    assert w.is_empty()
    w = word((1, 1), (2, 1), (2, -1), (1, 1))
    assert w.letters == ((1, 2),)


def test_inverse_cancels():
    w = word((3, -2), (1, 1), (2, 4))
    assert (w.inverse() * w).is_empty()
    assert (w * w.inverse()).is_empty()
    assert w.inverse().inverse() == w


def test_power():
    w = word((1, 1), (2, -1))
    assert w ** 0 == FreeWord()
    assert w ** 2 == word((1, 1), (2, -1), (1, 1), (2, -1))
    assert w ** -1 == w.inverse()


def test_shift():
    w = word((1, 1), (3, -1))
    assert w.shift(1, 3) == word((2, 1), (1, -1))
    assert w.shift(3, 3) == w


def test_exponent_sums():
    w = word((1, 2), (2, -1), (4, 1))
    assert w.exponent_sums(3) == [3, -1, 0]
    assert w.exponent_sums(4) == [2, -1, 0, 1]


def test_cyclic_reduce():
    w = word((1, 1), (2, 1), (1, -1))
    assert w.cyclic_reduce() == word((2, 1))
    assert word((1, 2), (2, 1), (1, -1)).cyclic_reduce() == word((1, 1), (2, 1))


def test_parse_format_roundtrip():
    text = "x3^-2 x1 x2^4"
    assert format_word(parse_word(text)) == text
    assert parse_word("x1^1").letters == ((1, 1),)
    assert format_word(FreeWord()) == "1"
    with pytest.raises(ValueError):
        parse_word("y2")


def test_presentation_json_roundtrip():
    pres = Presentation(3, (word((1, 1), (2, -1)), word((3, 2))))
    back = Presentation.from_json(pres.to_json())
    assert back == pres
    assert pres.relator_matrix() == [[1, -1, 0], [0, 0, 2]]
    with pytest.raises(ValueError):
        Presentation(2, (word((3, 1)),))


def test_cyclic_presentation_expand():
    cp = CyclicPresentation(4, word((1, 1), (2, -1)))
    pres = cp.expand()
    assert pres.generator_count == 4
    assert len(pres.relators) == 4
    assert sum(r.letter_length() for r in pres.relators) == 4 * cp.w.letter_length()
    assert pres.relators[0] == cp.w
    assert pres.relators[1] == word((2, 1), (3, -1))
    assert pres.relators[3] == word((4, 1), (1, -1))


def test_reduction_confluent():
    rng = random.Random(11)
    for _ in range(300):
        letters = tuple((rng.randrange(1, 4), rng.randrange(-2, 3)) for _ in range(12))
        w = FreeWord(letters)
        # no adjacent syllables share an index, no zero exponents
        for (i, e), (j, _) in zip(w.letters, w.letters[1:]):
            assert i != j and e != 0
        assert (w.inverse() * w).is_empty()


def test_laurent_polynomial():
    p = LaurentPolynomial({-1: -1, 0: 3, 1: -1})
    q = LaurentPolynomial({0: -1, 1: 3, 2: -1})
    assert p.unit_equal(q)
    assert p.unit_equal(LaurentPolynomial({0: 1, 1: -3, 2: 1}))
    assert not p.unit_equal(LaurentPolynomial({0: 1, 1: -1, 2: 1}))
    assert p.normalized().coefficient_list() == [1, -3, 1]
    assert p(1) == 1
    assert LaurentPolynomial({1: 5, 2: 0}).coefficients == {1: 5}
    assert LaurentPolynomial().is_zero()
    assert str(LaurentPolynomial({2: 1, 1: -3, 0: 1})) == "t^2 - 3t + 1"


def test_laurent_wrap():
    p = LaurentPolynomial({0: 1, 5: 1})
    assert p.wrap(5) == LaurentPolynomial({0: 2})
    a = LaurentPolynomial({0: 1, 1: -1})
    b = LaurentPolynomial({2: 1, 3: -1})
    assert a.unit_equal_mod(b, 4)
