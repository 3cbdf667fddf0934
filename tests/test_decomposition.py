from fractions import Fraction
from math import gcd

import pytest

from bridgecovers.covering import CoveringSpec, genus_bounds
from bridgecovers.decomposition import (
    MonodromyRep,
    build_monodromy,
    component_orbit_counts,
    decompose,
    orbit_genus,
)
from bridgecovers.two_bridge import NotALink, equivalent, mirror, normalize


def test_decompose_whitehead():
    t = normalize(8, 3)
    result = decompose(t, 10, 5)
    assert result.d == 5
    assert (result.upper_degree, result.lower_degree) == (2, 5)
    assert result.base_indices == (10, 2)
    inter = result.intermediate
    assert inter.alpha1_over_beta == Fraction(4, 3)
    assert inter.l == 0
    assert inter.components == 6  # lk = 0, so 1 + gcd(5, 0)


def test_decompose_json():
    data = decompose(normalize(8, 3), 10, 5).to_json()
    assert data == {
        "d": 5,
        "degrees": [2, 5],
        "intermediate": {"d": 5, "alpha1": 4, "beta": 3, "l": 0,
                         "components": 6, "index": 2},
    }


def test_decompose_degenerate():
    # gcd(n, k) = 1: the upper covering is the whole covering
    result = decompose(normalize(8, 3), 7, 3)
    assert result.d == 1
    assert (result.upper_degree, result.lower_degree) == (7, 1)
    assert result.intermediate.components == 2


def test_decompose_component_counts():
    t = normalize(8, 3)
    for d in range(1, 11):
        result = decompose(t, 2 * d, d)
        assert result.d == d
        assert result.intermediate.components == d + 1


def test_decompose_validation():
    with pytest.raises(NotALink, match=r"^b\(5,3\) is a knot; .* 2-component link$"):
        decompose(normalize(5, 3), 6, 2)
    with pytest.raises(ValueError):
        decompose(normalize(8, 3), 1, 1)
    with pytest.raises(ValueError):
        decompose(normalize(8, 3), 6, 6)


def test_degree_law():
    for alpha in (2, 4, 8, 12):
        t = normalize(alpha, alpha - 1) if gcd(alpha, alpha - 1) == 1 else normalize(alpha, 1)
        for n in range(2, 21):
            for k in range(1, n):
                result = decompose(t, n, k)
                assert result.upper_degree * result.lower_degree == n
                assert result.base_indices == (n, result.upper_degree)


def test_build_monodromy():
    rep = build_monodromy(5, 2)
    assert rep.images[0] == (1, 2, 3, 4, 0)
    assert rep.images[1] == (2, 3, 4, 0, 1)
    assert rep.shifts == (1, 2)
    rep = build_monodromy(4, 2)
    assert component_orbit_counts(rep) == (1, 2, (4, 2))
    with pytest.raises(ValueError):
        MonodromyRep(4, ((2, 3, 0, 1), (2, 3, 0, 1)))  # gcd 2: intransitive
    with pytest.raises(ValueError):
        MonodromyRep(3, ((1, 2, 0), (0, 2, 1)))  # not a cycle power


def test_component_orbit_counts():
    assert component_orbit_counts(build_monodromy(10, 5)) == (1, 5, (10, 2))
    assert component_orbit_counts(build_monodromy(5, 2)) == (1, 1, (5, 5))
    for n in range(2, 51):
        for k in range(1, n):
            counts = component_orbit_counts(build_monodromy(n, k))
            assert counts[0] == 1
            assert counts[1] == gcd(n, k)
            assert counts[2] == (n, n // gcd(n, k))


def test_orbit_genus_matches_bound():
    t = normalize(8, 3)
    for n in range(2, 21):
        for k in range(1, n):
            bound = genus_bounds(t, CoveringSpec(n, (1, k))).general
            assert orbit_genus(build_monodromy(n, k)) == bound


def test_trivial_intermediate_link():
    # d = 1 leaves L(1, alpha_1/beta); for b(8,3) reoriented that is b(4,3),
    # the mirror of the (2,4) torus link
    result = decompose(normalize(8, 3), 5, 2)
    frac = result.intermediate.alpha1_over_beta
    t = normalize(frac.numerator, frac.denominator)
    assert equivalent(mirror(t), normalize(4, 1))
