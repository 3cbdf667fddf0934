from math import gcd

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from bridgecovers.covering import (
    CoveringSpec,
    GenusBounds,
    GeometryType,
    classify,
    covering_equivalent,
    genus_bounds,
    geometry,
    hyperbolic_homeomorphic,
    lens_recognize,
    torus_signs,
)
from bridgecovers.homology import consensus_group, h1, h1_closed_form, verify_consistency
from bridgecovers.presentations import minkus_presentation
from bridgecovers.two_bridge import mirror, normalize, reorient_component


def test_spec_validation():
    s = CoveringSpec(5, (1, 7))
    assert s.exponents == (1, 2)
    assert s.nu == 2
    with pytest.raises(ValueError):
        CoveringSpec(1, (1,))
    with pytest.raises(ValueError):
        CoveringSpec(5, ())
    with pytest.raises(ValueError):
        CoveringSpec(5, (5,))
    with pytest.raises(ValueError):
        CoveringSpec(4, (2, 2))  # gcd 2: not transitive


def test_classify():
    cls = classify(CoveringSpec(5, (1, 2)))
    assert cls.meridian and cls.singly
    assert not cls.almost_strictly and not cls.strictly
    cls = classify(CoveringSpec(4, (1, 2)))
    assert cls.singly and not cls.meridian
    cls = classify(CoveringSpec(7, (3,)))
    assert cls.strictly and cls.almost_strictly and cls.meridian and cls.singly


def test_classify_chain():
    # each class implies the next one along the chain
    for n in range(2, 13):
        for k1 in range(1, n):
            for k2 in range(1, n):
                if gcd(n, gcd(k1, k2)) != 1:
                    continue
                cls = classify(CoveringSpec(n, (k1, k2)))
                chain = (cls.strictly, cls.almost_strictly, cls.meridian, cls.singly)
                for a, b in zip(chain, chain[1:]):
                    assert (not a) or b
                assert cls.strictly == (k1 == k2)
                assert cls.meridian == (gcd(n, k1) == 1 and gcd(n, k2) == 1)


def test_covering_equivalent():
    t = normalize(8, 3)
    assert covering_equivalent(t, CoveringSpec(5, (1, 2)), CoveringSpec(5, (1, 3)))
    assert covering_equivalent(t, CoveringSpec(5, (1, 2)), CoveringSpec(5, (1, 2)))
    # beta^2 = alpha + 1 branch: k -> -k
    assert covering_equivalent(t, CoveringSpec(5, (1, 2)), CoveringSpec(5, (1, 3)))
    with pytest.raises(ValueError, match=r"^expected normal form \(n; 1, k\), got \(2, 2\)$"):
        covering_equivalent(t, CoveringSpec(5, (2, 2)), CoveringSpec(5, (1, 2)))
    with pytest.raises(ValueError, match=r"^specs have different degrees$"):
        covering_equivalent(t, CoveringSpec(5, (1, 2)), CoveringSpec(6, (1, 5)))
    with pytest.raises(ValueError, match=r"^b\(5,3\) is not a link$"):
        covering_equivalent(normalize(5, 3), CoveringSpec(5, (1, 2)), CoveringSpec(5, (1, 2)))


def test_hyperbolic_homeomorphic():
    t = normalize(8, 3)
    assert hyperbolic_homeomorphic(t, 7, 2, 4)
    assert hyperbolic_homeomorphic(t, 7, 2, 5)
    assert not hyperbolic_homeomorphic(normalize(12, 5), 7, 2, 5)
    with pytest.raises(ValueError, match=r"^b\(4,1\) is a torus link; "
                       r"hyperbolic_homeomorphic needs a hyperbolic link$"):
        hyperbolic_homeomorphic(normalize(4, 1), 7, 2, 4)
    with pytest.raises(ValueError, match=r"^b\(7,1\) is a torus knot; "
                       r"hyperbolic_homeomorphic needs a hyperbolic knot$"):
        hyperbolic_homeomorphic(normalize(7, 1), 7, 2, 4)
    with pytest.raises(ValueError, match=r"^exponents 2, 4 not coprime to 6$"):
        hyperbolic_homeomorphic(t, 6, 2, 4)


def test_hyperbolic_homeomorphic_agrees_with_covering_equivalent():
    # on unit exponents of non-torus links both accept k' = k^{+-1}, widened
    # to +-k^{+-1} when beta^2 = alpha +- 1 mod 2 alpha
    for alpha in range(4, 21, 2):
        for beta in range(1, 2 * alpha, 2):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            if torus_signs(t):
                continue
            widened = beta * beta % (2 * alpha) in (alpha - 1, alpha + 1)
            for n in range(2, 12):
                units = [k for k in range(1, n) if gcd(n, k) == 1]
                for k in units:
                    rule = {k, pow(k, -1, n)}
                    if widened:
                        rule |= {-x % n for x in rule}
                    for k2 in units:
                        spec, spec2 = CoveringSpec(n, (1, k)), CoveringSpec(n, (1, k2))
                        assert covering_equivalent(t, spec, spec2) == (k2 in rule)
                        assert hyperbolic_homeomorphic(t, n, k, k2) == (k2 in rule)


def test_torus_signs():
    assert [torus_signs(normalize(4, b)) for b in (1, 3, 5, 7)] == [(1,), (-1,), (-1,), (1,)]
    assert torus_signs(normalize(2, 1)) == torus_signs(normalize(2, 3)) == (1, -1)
    assert [torus_signs(normalize(5, b)) for b in (1, 2, 4, 6, 9)] == [(1,), (), (1,), (1,), (1,)]
    assert torus_signs(normalize(8, 3)) == ()


def test_geometry():
    assert geometry(normalize(5, 2), CoveringSpec(3, (1,))) is GeometryType.euclidean
    assert geometry(normalize(3, 1), CoveringSpec(5, (1,))) is GeometryType.spherical
    assert geometry(normalize(8, 3), CoveringSpec(5, (1, 2))) is GeometryType.hyperbolic
    # torus-link split by 1/n + 1/alpha - 1/2
    assert geometry(normalize(4, 1), CoveringSpec(4, (1, 1))) is GeometryType.nil
    assert geometry(normalize(6, 1), CoveringSpec(5, (2, 2))) is GeometryType.sl2r
    assert geometry(normalize(7, 3), CoveringSpec(2, (1,))) is GeometryType.spherical


@st.composite
def coverings(draw):
    alpha = draw(st.integers(2, 20))
    beta = draw(st.sampled_from([b for b in range(1, 2 * alpha) if gcd(alpha, b) == 1]))
    n = draw(st.integers(2, 8))
    return alpha, beta, n, draw(st.integers(1, n - 1))


@seed(2408)
@settings(max_examples=300, deadline=None)
@example((4, 5, 5, 1))
@example((2, 1, 3, 2))
@example((11, 3, 2, 1))
@given(coverings())
def test_orientation_invariance(case):
    # (n; 1, k) of a link is (n; 1, -k) of the link with one component
    # reversed; a knot's coverings and its mirror's have the same invariants
    alpha, beta, n, k = case
    t = normalize(alpha, beta)
    if t.is_link:
        sides = [(t, CoveringSpec(n, (1, k))), (reorient_component(t), CoveringSpec(n, (1, -k)))]
    else:
        assume(gcd(n, k) == 1)
        sides = [(t, CoveringSpec(n, (k,))), (mirror(t), CoveringSpec(n, (k,)))]
    assert geometry(*sides[0]) is geometry(*sides[1])
    groups = [consensus_group(verify_consistency(*side)) for side in sides]
    assert groups[0] is not None and groups[0] == groups[1]
    closed = [h1_closed_form(*side) for side in sides]
    if None not in closed:
        assert closed[0] == closed[1]
    # d(H_1) generators fit in every Heegaard splitting that a bound claims
    d = groups[0]["rank"] + len(groups[0]["torsion"])
    for side in sides:
        bounds = genus_bounds(*side)
        assert all(g is None or d <= g for g in (bounds.general, bounds.braid, bounds.symmetric))


def test_genus_bounds():
    b = genus_bounds(normalize(8, 3), CoveringSpec(5, (1, 2)))
    assert b.general == 4
    b = genus_bounds(normalize(5, 3), CoveringSpec(7, (3,)))
    assert b == GenusBounds(general=6, braid=2, symmetric=6)
    for alpha in range(2, 12):
        t = normalize(alpha, 1)
        spec = CoveringSpec(3, (1,) if t.is_knot else (1, 1))
        assert genus_bounds(t, spec).braid == min(alpha - 1, 2)


def test_braid_bound_bounds_generator_count():
    # a genus-g splitting gives g generators of pi_1, so d(H_1) <= g
    for alpha in range(2, 11):
        for beta in range(1, 2 * alpha):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            for n in range(2, 7):
                spec = CoveringSpec(n, (1,) if t.is_knot else (1, 1))
                braid = genus_bounds(t, spec).braid
                if braid is not None:
                    group = h1(minkus_presentation(t, n))
                    assert group.rank + len(group.torsion) <= braid, (t, n)


def test_genus_bounds_meridian_links():
    # meridian-cyclic link coverings: the general bound collapses to n-1
    for n in range(2, 11):
        for k in range(1, n):
            if gcd(n, k) != 1:
                continue
            b = genus_bounds(normalize(8, 3), CoveringSpec(n, (1, k)))
            assert b.general == n - 1


def test_lens_recognize():
    assert lens_recognize(normalize(7, 3), CoveringSpec(2, (1,))) == (7, 3)
    assert lens_recognize(normalize(2, 1), CoveringSpec(5, (1, 2))) == (5, 2)
    assert lens_recognize(normalize(8, 3), CoveringSpec(5, (1, 2))) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1), st.integers(1, n - 1))))
def test_single_against_unit_search(case):
    n, k1, k2 = case
    assume(gcd(n, k1, k2) == 1)
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    # (k1, k2) ~ (u k1, u k2) for a unit u; failing that, swap the exponents
    want = next((u * k2 % n for u in units if u * k1 % n == 1), None)
    if want is None:
        want = next((u * k1 % n for u in units if u * k2 % n == 1), None)
    spec = CoveringSpec(n, (k1, k2))
    assert spec.single == want
    # a lens space of the Hopf link needs k to be a unit
    both_units = gcd(n, k1) == 1 and gcd(n, k2) == 1
    assert (want is not None and gcd(n, want) == 1) == both_units
    if gcd(n, k1) == 1:
        assert CoveringSpec(n, (k1,)).single == k1
