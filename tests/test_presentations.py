from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from bridgecovers.gems import eta
from bridgecovers.homology import AbelianGroup, _polyhedral_presentation, h1
from bridgecovers.presentations import (
    _minkus_letters,
    _mu3_shifts,
    alexander_polynomial,
    minkus_cyclic,
    minkus_presentation,
    mu3_presentation,
    takahashi_word,
)
from bridgecovers.two_bridge import EvenConwayForm, even_cf_expand, normalize
from bridgecovers.words import CyclicPresentation, FreeWord, LaurentPolynomial, word

from h1_rows import reduced_rows
from laurent import unit_equal, unit_equal_mod, word_polynomial


def knots(amax):
    for alpha in range(3, amax + 1, 2):
        for beta in range(1, 2 * alpha):
            if gcd(alpha, beta) == 1:
                yield normalize(alpha, beta)


def links(amax):
    for alpha in range(2, amax + 1, 2):
        for beta in range(1, 2 * alpha, 2):
            if gcd(alpha, beta) == 1:
                yield normalize(alpha, beta)


def test_minkus_shift_data():
    # the partial sums s_1..s_4 of b(5,3) are (-1, 0, 1, 0)
    assert _minkus_letters(normalize(5, 3)) == [(1, 1), (0, -1), (1, 1), (2, -1), (1, 1)]


def test_minkus_word():
    assert minkus_cyclic(normalize(3, 1), 5).w == word((1, 1), (2, -1), (3, 1))
    # x_0 means x_n after wrapping
    assert minkus_cyclic(normalize(5, 3), 3).w == word((1, 1), (3, -1), (1, 1), (2, -1), (1, 1))
    assert minkus_cyclic(normalize(5, 3), 3).expand().relator_matrix()[0] == {0: 3, 1: -1, 2: -1}


def test_minkus_presentation_shape():
    pres = minkus_presentation(normalize(3, 1), 5)
    assert pres.generator_count == 5
    assert len(pres.relators) == 5
    # links carry the extra generator y and the killing relator x_n
    pres = minkus_presentation(normalize(8, 3), 4)
    assert pres.generator_count == 5
    assert len(pres.relators) == 5
    assert pres.relators[0] == word((4, 1))


def test_mu3_data():
    # the exponents e_j and shifts s_j, read off the relators
    pres = mu3_presentation(normalize(8, 3), 5, 2)
    q, q_prime = pres.relators[0], pres.relators[gcd(5, 2):]
    assert len(q.letters) == 5  # n' = n / gcd(n, k)
    for r in q_prime:
        assert len(r.letters) == 8  # one letter x_{i+s_j}^{e_j} per j < alpha
        assert all(e in (1, -1) for _, e in r.letters)
    with pytest.raises(ValueError, match=r"^b\(5,3\) is a knot; .* 2-component link$"):
        mu3_presentation(normalize(5, 3), 5, 2)


def mu3_shifts_reference(alpha, beta, k):
    """The exponents and shifts by 3 alpha eta calls, one sum at a time."""
    e = [-eta(2 * j * beta, alpha) for j in range(alpha)]
    s = [0] * alpha
    sa = sb = 0
    for j in range(1, alpha):
        sa += eta(2 * j * beta - 2 * beta - alpha, alpha)
        sb += eta(2 * j * beta - beta - alpha, alpha)
        bump = 1 if e[j] == -1 else 0
        s[j] = -k * sa - sb + k * bump
    return e, s


def test_mu3_shifts_read_off_one_sign_sequence():
    cases = [(alpha, beta, k) for alpha in range(2, 41, 2) for beta in range(1, 2 * alpha, 2)
             if gcd(alpha, beta) == 1 for k in range(1, 12)]
    assert len(cases) == 3806
    for case in cases:
        assert _mu3_shifts(*case) == mu3_shifts_reference(*case), case


def test_mu3_presentation():
    pres = mu3_presentation(normalize(8, 3), 5, 2)
    assert pres.generator_count == 5
    assert len(pres.relators) == gcd(5, 2) + 5
    assert h1(pres) == AbelianGroup(0, (5, 5, 5))
    assert h1(mu3_presentation(normalize(2, 1), 5, 2)) == AbelianGroup(0, (5,))
    pres = mu3_presentation(normalize(8, 3), 6, 4)
    assert len(pres.relators) == gcd(6, 4) + 6
    with pytest.raises(ValueError):
        mu3_presentation(normalize(8, 3), 5, 5)


def test_takahashi_figure_eight():
    form = even_cf_expand(normalize(5, 2))
    cp = takahashi_word(form, 4)
    assert cp.w.letters == ((3, -1), (2, 2), (1, -1), (2, 1))
    # every degree yields the same window around the base index
    assert takahashi_word(form, 7).w.letters == ((3, -1), (2, 2), (1, -1), (2, 1))


def test_takahashi_trefoil_like():
    form = EvenConwayForm((1,), (1,))
    cp = takahashi_word(form, 4)
    assert cp.w.letters == ((3, 1), (1, 1), (2, -1))
    assert cp.expand().relator_matrix()[0] == {0: 1, 1: -1, 2: 1}


def test_takahashi_rejects_links():
    form = even_cf_expand(normalize(8, 3))
    with pytest.raises(ValueError, match=r"^even form lacks the final twist parameter$"):
        takahashi_word(form, 3)


def test_word_polynomial():
    w = word((3, -1), (2, 2), (1, -1), (2, 1))
    p = word_polynomial(CyclicPresentation(5, ((w, 5),)))
    assert unit_equal(p, LaurentPolynomial({-1: -1, 0: 3, 1: -1}))
    p = word_polynomial(CyclicPresentation(5, ((word((1, 1), (2, -1), (3, 1)), 5),)))
    assert p == LaurentPolynomial({0: 1, 1: -1, 2: 1})
    assert word_polynomial(CyclicPresentation(3, ((word((1, 1)), 3),))) == LaurentPolynomial({0: 1})


def test_alexander_polynomial():
    assert alexander_polynomial(normalize(5, 3)).coefficient_list() == [1, -3, 1]
    assert alexander_polynomial(normalize(3, 1)).coefficient_list() == [1, -1, 1]
    with pytest.raises(ValueError, match=r"^b\(8,3\) is a 2-component link; .* knot$"):
        alexander_polynomial(normalize(8, 3))


def test_alexander_determinant():
    # |Delta(-1)| is the determinant alpha
    for t in knots(25):
        coefficients = alexander_polynomial(t).coefficient_list()
        assert abs(sum(c * (-1) ** e for e, c in enumerate(coefficients))) == t.alpha


def test_minkus_takahashi_same_homology():
    for t in knots(13):
        form = even_cf_expand(t)
        for n in range(2, 9):
            a = h1(minkus_presentation(t, n))
            b = h1(takahashi_word(form, n).expand())
            assert a == b, (t, n, a, b)


def test_knot_cyclic_presentations_share_one_circulant():
    # both are G_n(w) with f_w = +-t^k Delta, so their abelianized rows are
    # the same n rotations of one Laurent polynomial mod t^n - 1: for knots
    # the two routes agree before any Smith normal form runs
    count = 0
    for alpha in range(3, 26, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            form = even_cf_expand(t)
            for n in range(1, 13):
                minkus = reduced_rows(minkus_presentation(t, n))
                takahashi = reduced_rows(takahashi_word(form, n))
                assert ({frozenset(r.items()) for r in minkus}
                        == {frozenset(r.items()) for r in takahashi}), (t, n)
                count += 1
    assert count == 1632


def test_link_polyhedral_rows_are_mu3_rows():
    # the schema of a link covering has mu3's relator rows up to sign, so
    # verify_consistency reduces one matrix for both routes
    def rows(p):
        return sorted(min(sorted(r.items()), sorted((c, -x) for c, x in r.items()))
                      for r in reduced_rows(p))

    count = 0
    for t in links(16):
        for n in range(2, 11):
            for k in range(1, n):
                assert (rows(mu3_presentation(t, n, k))
                        == rows(_polyhedral_presentation(t, n, k))), (t, n, k)
                count += 1
    assert count == 2790


def test_mu3_inverse_exponent():
    # k and k^{-1} mod n present the same covering
    for t in links(12):
        for n in range(2, 9):
            for k in range(1, n):
                if gcd(n, k) != 1:
                    continue
                a = h1(mu3_presentation(t, n, k))
                b = h1(mu3_presentation(t, n, pow(k, -1, n)))
                assert a == b, (t, n, k)


def test_word_polynomial_is_alexander():
    for t in knots(13):
        form = even_cf_expand(t)
        delta = alexander_polynomial(t)
        # at a degree beyond the word span both polynomials stabilize
        big = word_polynomial(takahashi_word(form, 40))
        assert unit_equal(big, word_polynomial(minkus_cyclic(t, 40)))
        assert unit_equal(big, delta)
        for n in range(2, 9):
            fp = word_polynomial(takahashi_word(form, n))
            mk = word_polynomial(minkus_cyclic(t, n))
            assert unit_equal_mod(fp, mk, n), (t, n)


def test_degree_must_be_positive():
    knot, link = normalize(5, 3), normalize(8, 3)
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match="degree"):
            minkus_presentation(knot, n)
        with pytest.raises(ValueError, match="degree"):
            minkus_presentation(link, n)
        with pytest.raises(ValueError, match="degree"):
            mu3_presentation(link, n, 1)
        with pytest.raises(ValueError, match="degree"):
            takahashi_word(even_cf_expand(knot), n)
    # degree 1 is the trivial covering and stays accepted
    assert minkus_presentation(knot, 1).generator_count == 1
    assert takahashi_word(even_cf_expand(knot), 1).n == 1


def takahashi_reference(form, n):
    """Independent oracle: the twist recurrence over every index 1..n, kept
    in a dict keyed by (index, level), then w read off at i = 1."""
    q, s = form.q, form.s
    d = {}
    b = {}
    for kk in range(1, n + 1):
        d[(kk, 1)] = word((kk, 1))
    for kk in range(1, n + 1):
        k1 = kk % n + 1
        b[(kk, 1)] = d[(kk, 1)] ** q[0] * d[(k1, 1)] ** (-q[0])
    for j in range(2, form.m + 1):
        for kk in range(1, n + 1):
            km1 = (kk - 2) % n + 1
            d[(kk, j)] = b[(kk, j - 1)] ** (-s[j - 2]) * d[(kk, j - 1)] * b[(km1, j - 1)] ** s[j - 2]
        for kk in range(1, n + 1):
            k1 = kk % n + 1
            b[(kk, j)] = d[(kk, j)] ** q[j - 1] * b[(kk, j - 1)] * d[(k1, j)] ** (-q[j - 1])
    m = form.m
    i1 = 1 % n + 1
    sm = s[m - 1]
    return b[(i1, m)] ** (-sm) * d[(i1, m)] * b[(1, m)] ** sm


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda h: st.tuples(st.just(2 * h + 1), st.integers(1, 4 * h + 1), st.integers(1, 12))))
def test_takahashi_word_against_all_index_recurrence(case):
    alpha, beta, n = case
    assume(gcd(alpha, beta) == 1)
    form = even_cf_expand(normalize(alpha, beta))
    assert takahashi_word(form, n).w == takahashi_reference(form, n)


# ---- oracles: the link presentations built relator by relator ----

def mu3_relators_reference(t, n, k):
    """Q_{1+i} for i < gcd(n, k), then Q'_{1+i} for i < n, each the word
    Q_1 or Q'_1 shifted by i."""
    k %= n
    e, s = _mu3_shifts(t.alpha, t.beta, k)
    d = gcd(n, k)
    q = FreeWord(tuple((-j * k % n + 1, 1) for j in range(n // d)))
    q_prime = FreeWord(tuple((s[j] % n + 1, e[j]) for j in range(t.alpha)))
    return tuple([q.shift(i, n) for i in range(d)] + [q_prime.shift(i, n) for i in range(n)])


def minkus_link_relators_reference(t, n):
    """x_n, then R_i y^{-1} for i < n with y = x_{n+1}."""
    r = minkus_cyclic(t, n).w
    return tuple([word((n, 1))] + [r.shift(i, n) * word((n + 1, -1)) for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda h: st.tuples(st.just(2 * h), st.integers(0, 2 * h - 1), st.integers(2, 12))))
def test_link_presentations_rotate_their_rows(case):
    # links with alpha <= 20, n <= 12 and every k != 0 mod n: the rows read
    # by rotation are the abelianized relators, which are the ones built
    # relator by relator
    alpha, b, n = case
    beta = 2 * b + 1
    assume(gcd(alpha, beta) == 1)
    t = normalize(alpha, beta)
    minkus = minkus_presentation(t, n)
    assert minkus.generator_count == n + 1
    assert minkus.relators == minkus_link_relators_reference(t, n)
    assert reduced_rows(minkus) == minkus.expand().relator_matrix()
    for k in range(1, n):
        mu3 = mu3_presentation(t, n, k)
        assert mu3.generator_count == n
        assert mu3.relators == mu3_relators_reference(t, n, k)
        assert reduced_rows(mu3) == mu3.expand().relator_matrix(), k
