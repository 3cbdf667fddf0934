import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bridgecovers.cli import _presentation_payload
from bridgecovers.words import (
    CyclicPresentation,
    FreeWord,
    LaurentPolynomial,
    Presentation,
    format_word,
    word,
)

from h1_rows import reduced_rows
from laurent import unit_equal, unit_equal_mod, wrap


def test_merge_and_reduce():
    w = word((1, 1), (1, 2), (2, -1))
    assert w.letters == ((1, 3), (2, -1))
    w = word((1, 1), (1, -1))
    assert w == FreeWord()
    w = word((1, 1), (2, 1), (2, -1), (1, 1))
    assert w.letters == ((1, 2),)


def test_inverse_cancels():
    w = word((3, -2), (1, 1), (2, 4))
    assert w.inverse() * w == FreeWord()
    assert w * w.inverse() == FreeWord()
    assert w.inverse().inverse() == w


def test_power():
    w = word((1, 1), (2, -1))
    assert w ** 0 == FreeWord()
    assert w ** 2 == word((1, 1), (2, -1), (1, 1), (2, -1))
    assert w ** -1 == w.inverse()


def test_word_length_counts_syllables():
    w = word((1, 2), (2, -1), (1, 1))
    assert len(w) == len(w.letters) == 3
    assert len(FreeWord()) == 0 and len(word((1, 1), (1, -1))) == 0
    # still a one-field value: unpacking and indexing see the letters
    letters, = w
    assert letters == w[0] == w.letters


def test_words_multiply_and_never_add_or_repeat():
    w = word((1, 2), (2, -1))
    for make in (lambda: w + w, lambda: 2 * w, lambda: w * 2, lambda: w + (1,),
                 lambda: (1,) + w, lambda: sum([w, w], FreeWord())):
        with pytest.raises(TypeError):
            make()
    assert w * w == w ** 2 == word((1, 2), (2, -1), (1, 2), (2, -1))


# indices beyond 1..n as well, so that a shift can make two syllables meet
syllables = st.lists(st.tuples(st.integers(-2, 8), st.integers(-3, 3)), max_size=10)


def _inverse_letters(letters):
    return [(i, -e) for i, e in reversed(letters)]


@settings(max_examples=300, deadline=None)
@given(syllables, syllables, syllables)
def test_product_is_reduced_concatenation(u, v, c):
    # a ends in c and b starts with its inverse: the junction cancels c and more
    a = FreeWord(tuple(u + c))
    b = FreeWord(tuple(_inverse_letters(c) + v))
    assert a * b == FreeWord(a.letters + b.letters)
    assert b * a == FreeWord(b.letters + a.letters)
    assert a * a.inverse() == FreeWord()


@settings(max_examples=300, deadline=None)
@given(syllables, syllables, st.integers(-6, 6))
def test_power_is_repeated_product(u, c, k):
    # a conjugate u c u^-1 cancels across every junction of its power
    for letters in (c, u + c + _inverse_letters(u)):
        w = FreeWord(tuple(letters))
        factor = w if k >= 0 else w.inverse()
        want = FreeWord()
        for _ in range(abs(k)):
            want = want * factor
        assert w ** k == want == FreeWord(factor.letters * abs(k))


@settings(max_examples=300, deadline=None)
@given(syllables, st.integers(-20, 20), st.integers(1, 12))
def test_shift_is_reduced_shifted_word(letters, d, n):
    w = FreeWord(tuple(letters))
    assert w.shift(d, n) == FreeWord(tuple(((i - 1 + d) % n + 1, e) for i, e in w.letters))


def test_shift():
    w = word((1, 1), (3, -1))
    assert w.shift(1, 3) == word((2, 1), (1, -1))
    assert w.shift(3, 3) == w
    # x_1 and x_4 are both x_1 mod 3, so they merge after the shift
    assert word((1, 2), (4, -1), (2, 1)).shift(1, 3) == word((2, 1), (3, 1))


def test_exponent_sums():
    # one sparse row per relator, keyed from 0; sums that cancel leave no key
    pres = Presentation(4, (word((1, 2), (2, -1), (4, 1), (1, 1)),
                            word((3, 1), (2, 1), (3, -1), (2, -1)), FreeWord()))
    assert pres.relator_matrix() == [{0: 3, 1: -1, 3: 1}, {}, {}]
    # the same sums off a word alone: letters that cancel, and the empty word
    assert word((2, 1), (5, 3), (2, -1), (5, -3)).abelianized() == {}
    assert FreeWord().abelianized() == {}
    # columns come in the order of their last letters
    assert list(word((1, 1), (2, 1), (1, 1)).abelianized().items()) == [(1, 1), (0, 2)]


def test_format_word():
    assert format_word(word((3, -2), (1, 1), (2, 4))) == "x3^-2 x1 x2^4"
    assert format_word(FreeWord()) == "1"


def test_presentation_json_roundtrip():
    # the one JSON form of a presentation is the CLI payload
    pres = Presentation(3, (word((1, 1), (2, -1)), word((3, 2))))
    payload = _presentation_payload(pres)
    assert json.loads(json.dumps(payload)) == payload == {
        "generators": 3, "relators": ["x1 x2^-1", "x3^2"]}
    assert pres.relator_matrix() == [{0: 1, 1: -1}, {2: 2}]
    with pytest.raises(ValueError):
        Presentation(2, (word((3, 1)),))


def test_cyclic_presentation_expand():
    cp = CyclicPresentation(4, ((word((1, 1), (2, -1)), 4),))
    pres = cp.expand()
    assert pres.generator_count == 4
    assert len(pres.relators) == 4
    length = lambda w: sum(abs(e) for _, e in w.letters)
    assert sum(map(length, pres.relators)) == 4 * length(cp.w)
    assert pres.relators[0] == cp.w
    assert pres.relators[1] == word((2, 1), (3, -1))
    assert pres.relators[3] == word((4, 1), (1, -1))


@settings(max_examples=300, deadline=None)
@example(1, [])
@example(7, [])
@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(-15, 30), st.integers(-3, 3)), max_size=12))
def test_cyclic_relator_matrix_is_the_expanded_one(n, letters):
    # the indices drawn are wrapped into 1..n, the only ones a cyclic
    # presentation accepts; h1 reads the rows of one family of count n by
    # rotating its one abelianized word
    letters = [((i - 1) % n + 1, e) for i, e in letters]
    cp = CyclicPresentation(n, ((FreeWord(tuple(letters)), n),))
    assert cp.generator_count == n
    assert reduced_rows(cp) == cp.expand().relator_matrix()


def test_reduction_confluent():
    rng = random.Random(11)
    for _ in range(300):
        letters = tuple((rng.randrange(1, 4), rng.randrange(-2, 3)) for _ in range(12))
        w = FreeWord(letters)
        # no adjacent syllables share an index, no zero exponents
        for (i, e), (j, _) in zip(w.letters, w.letters[1:]):
            assert i != j and e != 0
        assert w.inverse() * w == FreeWord()


def test_laurent_polynomial():
    p = LaurentPolynomial({-1: -1, 0: 3, 1: -1})
    q = LaurentPolynomial({0: -1, 1: 3, 2: -1})
    assert unit_equal(p, q)
    assert unit_equal(p, LaurentPolynomial({0: 1, 1: -3, 2: 1}))
    assert not unit_equal(p, LaurentPolynomial({0: 1, 1: -1, 2: 1}))
    assert p.normalized().coefficient_list() == [1, -3, 1]
    assert LaurentPolynomial({1: 5, 2: 0}).coefficients == {1: 5}
    assert LaurentPolynomial().coefficients == {}


def test_laurent_wrap():
    p = LaurentPolynomial({0: 1, 5: 1})
    assert wrap(p, 5) == LaurentPolynomial({0: 2})
    a = LaurentPolynomial({0: 1, 1: -1})
    b = LaurentPolynomial({2: 1, 3: -1})
    assert unit_equal_mod(a, b, 4)
