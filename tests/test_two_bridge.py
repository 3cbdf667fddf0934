import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bridgecovers.two_bridge import (
    ContinuedFraction,
    TwoBridge,
    cf_expand,
    equivalent,
    even_cf_expand,
    is_genus_one,
    linking_number,
    mirror,
    normalize,
    reorient_component,
)


def all_forms(amax):
    for alpha in range(2, amax + 1):
        for beta in range(1, 2 * alpha):
            if gcd(alpha, beta) == 1:
                yield normalize(alpha, beta)


def test_normalize():
    assert normalize(5, 13) == TwoBridge(5, 3)
    assert normalize(8, 3) == TwoBridge(8, 3)
    assert normalize(5, -3) == TwoBridge(5, 7)
    with pytest.raises(ValueError, match=r"^gcd\(4, 2\) != 1$"):
        normalize(4, 2)
    with pytest.raises(ValueError, match=r"^alpha must exceed 1, got 1$"):
        normalize(1, 1)
    with pytest.raises(ValueError, match=r"^alpha must exceed 1, got 0$"):
        normalize(0, 1)


def test_normalize_idempotent():
    for t in all_forms(20):
        assert normalize(t.alpha, t.beta) == t
        assert 1 <= t.beta <= 2 * t.alpha - 1


def test_knot_link_split():
    assert normalize(5, 3).is_knot
    assert not normalize(5, 3).is_link
    assert normalize(8, 3).is_link
    assert str(normalize(8, 3)) == "b(8,3)"


def test_equivalent():
    assert equivalent(normalize(5, 3), normalize(5, 7))
    assert not equivalent(normalize(5, 3), normalize(7, 3))


def test_equivalent_is_equivalence_relation():
    forms = list(all_forms(14))
    for t in forms:
        assert equivalent(t, t)
    for a in forms:
        for b in forms:
            assert equivalent(a, b) == equivalent(b, a)


def test_mirror():
    assert mirror(normalize(5, 3)) == normalize(5, 7)
    assert mirror(normalize(8, 3)) == normalize(8, 13)
    for t in all_forms(16):
        assert mirror(mirror(t)) == t


def test_reorient_component():
    assert reorient_component(normalize(8, 3)) == normalize(8, 11)
    assert reorient_component(normalize(4, 1)) == normalize(4, 5)
    with pytest.raises(ValueError, match=r"^b\(5,3\) is a knot; .* 2-component link$"):
        reorient_component(normalize(5, 3))
    for t in all_forms(16):
        if t.is_link:
            assert reorient_component(reorient_component(t)) == t
            assert equivalent(reorient_component(t), t)


def test_cf_expand():
    assert cf_expand(normalize(5, 3)).entries == (1, 1, 2)
    assert cf_expand(normalize(8, 3)).entries == (2, 1, 2)
    assert cf_expand(normalize(5, 2)).entries == (2, 2)


def test_cf_expand_value():
    for t in all_forms(40):
        b = t.beta if t.beta < t.alpha else t.beta - t.alpha
        assert cf_expand(t).value() == Fraction(t.alpha, b)


def nested_value(entries):
    """Oracle: the tower evaluated from the bottom, one Fraction per entry."""
    v = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        v = c + 1 / v
    return v


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(2, 50) | st.integers(-50, -2), min_size=1, max_size=30))
def test_value_matches_nested_fractions(entries):
    # with every |c| >= 2 no tail of the tower vanishes, so the nested
    # evaluation never divides by zero
    assert ContinuedFraction(tuple(entries)).value() == nested_value(entries)


def test_even_cf_expand_long_chain_ceiling():
    # the even form of b(999999, 1) has 999998 entries, all re-evaluated
    start = time.monotonic()
    form = even_cf_expand(normalize(999999, 1))
    assert time.monotonic() - start < 2.5
    assert len(form.entries()) == 999998


def test_even_cf_expand():
    f = even_cf_expand(normalize(5, 2))
    assert (f.m, f.q, f.s) == (1, (-1,), (1,))
    f = even_cf_expand(normalize(29, 12))
    assert (f.m, f.q, f.s) == (2, (-1, -1), (1, 1))
    # b(5,3) reaches the same form through the even representative 2
    f = even_cf_expand(normalize(5, 3))
    assert (f.m, f.q, f.s) == (1, (-1,), (1,))


def check_even_form(t):
    f = even_cf_expand(t)
    assert all(c % 2 == 0 for c in f.entries())
    v = f.value()
    assert abs(v.numerator) == t.alpha
    bp = v.denominator if v.numerator > 0 else -v.denominator
    # the division chain stops at an even numerator: an even count of
    # entries for a knot, an odd count for a link
    if t.is_knot:
        assert len(f.s) == f.m
        assert bp % 2 == 0
        # an even representative of beta^{+-1} mod alpha
        assert bp % t.alpha in (t.beta % t.alpha, pow(t.beta, -1, t.alpha))
    else:
        assert len(f.s) == f.m - 1
        assert bp % (2 * t.alpha) == t.beta


def test_even_cf_expand_reevaluates():
    for t in all_forms(30):
        check_even_form(t)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6), st.integers(0, 2 ** 32))
def test_even_cf_expand_reevaluates_wide(alpha, seed):
    # beta uniform in its residues: the even form of b(alpha, +-1) has
    # alpha - 1 entries, and the grid of test_even_cf_expand_reevaluates
    # covers such beta for small alpha
    rng = random.Random(seed)
    beta = rng.randrange(1, 2 * alpha)
    while gcd(alpha, beta) != 1:
        beta = rng.randrange(1, 2 * alpha)
    check_even_form(normalize(alpha, beta))


def test_linking_number():
    assert linking_number(normalize(8, 3)) == 0
    assert linking_number(normalize(2, 1)) == 1
    assert linking_number(normalize(4, 1)) == 2
    for alpha in range(2, 41, 2):
        assert linking_number(normalize(alpha, 1)) == alpha // 2
    with pytest.raises(ValueError, match=r"^b\(5,3\) is a knot; .* 2-component link$"):
        linking_number(normalize(5, 3))


def test_linking_number_reorient():
    # reversing one component negates the linking number
    for t in all_forms(20):
        if t.is_link:
            assert linking_number(reorient_component(t)) == -linking_number(t)


def test_is_genus_one():
    assert is_genus_one(normalize(5, 2))
    assert is_genus_one(normalize(7, 2))
    assert not is_genus_one(normalize(29, 12))
    with pytest.raises(ValueError, match=r"^b\(8,3\) is a 2-component link; .* knot$"):
        is_genus_one(normalize(8, 3))
