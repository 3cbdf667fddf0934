import json
from math import gcd

import pytest

from bridgecovers.cli import main
from bridgecovers.covering import CoveringSpec, genus_bounds
from bridgecovers.decomposition import decompose
from bridgecovers.two_bridge import equivalent, mirror, normalize


def test_decompose_whitehead():
    t = normalize(8, 3)
    result = decompose(t, 10, 5)
    assert result["d"] == 5
    assert result["degrees"] == [2, 5]
    inter = result["intermediate"]
    assert (inter["alpha1"], inter["beta"]) == (4, 3)
    assert inter["l"] == 0
    assert inter["components"] == 6  # lk = 0, so 1 + gcd(5, 0)


def test_decompose_json():
    data = decompose(normalize(8, 3), 10, 5)
    assert data == {
        "link": "b(8,3)",
        "exponents": [1, 5],
        "d": 5,
        "degrees": [2, 5],
        "intermediate": {"d": 5, "alpha1": 4, "beta": 3, "l": 0,
                         "components": 6, "index": 2},
    }


def test_decompose_degenerate():
    # gcd(n, k) = 1: the upper covering is the whole covering
    result = decompose(normalize(8, 3), 7, 3)
    assert result["d"] == 1
    assert result["degrees"] == [7, 1]
    assert result["intermediate"]["components"] == 2


def test_decompose_component_counts():
    t = normalize(8, 3)
    for d in range(1, 11):
        result = decompose(t, 2 * d, d)
        assert result["d"] == d
        assert result["intermediate"]["components"] == d + 1


def test_decompose_validation():
    with pytest.raises(ValueError, match=r"^b\(5,3\) is a knot; .* 2-component link$"):
        decompose(normalize(5, 3), 6, 2)
    # (n, k) is checked as the covering spec (n; 1, k)
    with pytest.raises(ValueError, match=r"^degree must be at least 2$"):
        decompose(normalize(8, 3), 1, 1)
    with pytest.raises(ValueError, match=r"^exponents must be nonzero mod n$"):
        decompose(normalize(8, 3), 6, 6)


def test_degree_law():
    for alpha in (2, 4, 8, 12):
        t = normalize(alpha, alpha - 1) if gcd(alpha, alpha - 1) == 1 else normalize(alpha, 1)
        for n in range(2, 21):
            for k in range(1, n):
                upper, lower = decompose(t, n, k)["degrees"]
                assert upper * lower == n


def test_decompose_degree_is_gcd():
    # one component over the first meridian, d = gcd(n, k) over the second
    t = normalize(8, 3)
    assert decompose(t, 5, 2)["d"] == 1
    assert decompose(t, 4, 2)["d"] == 2


def test_decompose_base_indices(capsys):
    # (n, n/d): the decompose text reads them off the record's degrees
    for argv, indices in (((10, 5), (10, 2)), ((5, 2), (5, 5)), ((4, 2), (4, 2))):
        assert main(["decompose", "8", "3", *map(str, argv)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "base indices: %s" % (indices,)


def test_decompose_normalizes_k(capsys):
    # k is taken mod n, as homology prints its exponents
    assert decompose(normalize(8, 3), 10, 15) == decompose(normalize(8, 3), 10, 5)
    assert main(["decompose", "8", "3", "10", "15"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "b(8,3), covering (10; 1, 5)"
    assert main(["--format", "json", "decompose", "8", "3", "10", "15"]) == 0
    assert json.loads(capsys.readouterr().out)["exponents"] == [1, 5]


def test_genus_bound_is_n_minus_gcd():
    # 1 + d components upstairs, so the general genus bound n + 1 - (1 + d) is n - d
    t = normalize(8, 3)
    for n in range(2, 51):
        for k in range(1, n):
            assert genus_bounds(t, CoveringSpec(n, (1, k))).general == n - gcd(n, k)


def test_trivial_intermediate_link():
    # d = 1 leaves L(1, alpha_1/beta); for b(8,3) reoriented that is b(4,3),
    # the mirror of the (2,4) torus link
    inter = decompose(normalize(8, 3), 5, 2)["intermediate"]
    t = normalize(inter["alpha1"], inter["beta"])
    assert equivalent(mirror(t), normalize(4, 1))
