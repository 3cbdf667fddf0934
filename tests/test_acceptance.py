"""Cross-route battery: every headline computation checked end to end.

Each test pins one family of claims by comparing independent routes
(presentation + Smith form, arithmetic closed form, resultant, coloured
graph, face-paired schema) against each other and against frozen values.
Tests that sweep carry explicit wall-clock ceilings.
"""

import time
from itertools import combinations_with_replacement
from math import gcd

from bridgecovers.covering import CoveringSpec, geometry
from bridgecovers.decomposition import decompose
from bridgecovers.gems import (CYCLIC_ORDERS, LMParams, OutOfRange,
                               build_generalized, build_lins_mandel, gem_closed_form,
                               graph_isomorphic, heegaard_genus, is_crystallization,
                               is_gem, lm_isomorphic_closed_form)
from bridgecovers.homology import (AbelianGroup, group_from_factors, h1,
                                   h1_closed_form, order_via_resultant,
                                   verify_consistency, whitehead_factors)
from bridgecovers.polyhedral import build_minkus, quotient_counts, schema_presentation
from bridgecovers.presentations import (alexander_polynomial, minkus_presentation,
                                        mu3_presentation, takahashi_word)
from bridgecovers.two_bridge import even_cf_expand, normalize
from bridgecovers.words import word


def test_hantzsche_wendt_all_routes():
    start = time.monotonic()
    t = normalize(5, 3)
    spec = CoveringSpec(3, (1,))
    target = AbelianGroup(0, (4, 4))
    assert h1(minkus_presentation(t, 3)) == target
    assert h1(takahashi_word(even_cf_expand(t), 3).expand()) == target
    assert h1(schema_presentation(build_minkus(3, 1, 5, 3))) == target
    assert h1_closed_form(t, spec) == target
    assert order_via_resultant(alexander_polynomial(t), 3) == 16
    report = verify_consistency(t, spec)
    assert report["agree"] is True
    assert [r["route"] for r in report["routes"]] == [
        "minkus", "takahashi", "polyhedral", "closed_form", "resultant"]
    assert time.monotonic() - start < 1.0


def test_double_covers_are_lens_spaces():
    start = time.monotonic()
    forms = {normalize(alpha, beta)
             for alpha in range(2, 31)
             for beta in range(1, 2 * alpha, 2)
             if gcd(alpha, beta) == 1}
    for t in forms:
        assert h1(minkus_presentation(t, 2)) == AbelianGroup(0, (t.alpha,)), t
    assert time.monotonic() - start < 5.0


def test_whitehead_meridian_sweep():
    start = time.monotonic()
    t = normalize(8, 3)
    residues = set()
    for n in range(3, 25):
        for k in range(1, n):
            if gcd(n, k) != 1:
                continue
            want = group_from_factors(0, whitehead_factors(n))
            assert h1(mu3_presentation(t, n, k)) == want, (n, k)
            assert h1_closed_form(t, CoveringSpec(n, (1, k))) == want, (n, k)
        residues.add(n % 6)
    assert residues == {0, 1, 2, 3, 4, 5}
    assert time.monotonic() - start < 30.0


def _odd_alpha_group(alpha, n):
    d = gcd(n, alpha)
    if n % 2:
        return group_from_factors(0, [2] * (d - 1))
    return group_from_factors(d - 1, [alpha // d])


def _even_alpha_group(alpha, n, k):
    s, h = gcd(n, k), gcd(n, k + 1)
    d = gcd(n, alpha * (k + 1) // 2)
    m = gcd(d, s)
    assert n * m % (s * d) == 0 and alpha * h % (2 * d) == 0
    a, b = n * m // (s * d), alpha * h // (2 * d)
    if h == 1:
        return group_from_factors(d - m, [a] * m)
    if h < m + 1:
        return group_from_factors(d + 1 - h - m,
                                  [a] * (m - h + 1) + [a * b] * (h - 2) + [h * a * b])
    return group_from_factors(d + 1 - h - m,
                              [b] * (h - 1 - m) + [a * b] * (m - 1) + [h * a * b])


def test_torus_link_closed_forms():
    start = time.monotonic()
    checked = 0
    for alpha in range(3, 10, 2):
        forms = {normalize(alpha, b) for b in (1, alpha - 1, alpha + 1, 2 * alpha - 1)}
        for t in forms:
            for n in range(2, 10):
                want = _odd_alpha_group(alpha, n)
                assert h1(minkus_presentation(t, n)) == want, (t, n)
                assert h1_closed_form(t, CoveringSpec(n, (1,))) == want, (t, n)
                checked += 1
    for alpha in range(2, 10, 2):
        forms = {normalize(alpha, b) for b in (1, alpha - 1, alpha + 1, 2 * alpha - 1)}
        for t in forms:
            for n in range(2, 10):
                for k in range(1, n):
                    kk = -k % n if t.beta in (alpha - 1, alpha + 1) else k
                    want = _even_alpha_group(alpha, n, kk)
                    assert h1(mu3_presentation(t, n, k)) == want, (t, n, k)
                    assert h1_closed_form(t, CoveringSpec(n, (1, k))) == want, (t, n, k)
                    checked += 1
                    if t.beta != 1:
                        continue
                    # coprime-exponent and untwisted specializations
                    if gcd(n, k) == 1:
                        d = gcd(n, alpha * (k + 1) // 2)
                        h = gcd(n, k + 1)
                        a, b = n // d, alpha * h // (2 * d)
                        if h == 1:
                            special = group_from_factors(d - 1, [a])
                        else:
                            special = group_from_factors(
                                d - h, [b] * (h - 2) + [h * a * b])
                        assert special == want, (t, n, k)
                    if k == 1:
                        d = gcd(n, alpha)
                        if n % 2:
                            special = group_from_factors(d - 1, [n // d])
                        else:
                            special = group_from_factors(
                                d - 2, [2 * n * alpha // (d * d)])
                        assert special == want, (t, n)
    assert checked >= 500
    assert time.monotonic() - start < 60.0


def test_finite_orders_match_resultant():
    knots = {normalize(alpha, beta)
             for alpha in range(3, 14, 2)
             for beta in range(1, 2 * alpha)
             if gcd(alpha, beta) == 1}
    finite = 0
    for t in knots:
        delta = alexander_polynomial(t)
        for n in range(2, 9):
            g = h1(minkus_presentation(t, n))
            r = order_via_resultant(delta, n)
            if g.rank == 0:
                assert g.order() == r, (t, n)
                finite += 1
            else:
                assert r == "infinite", (t, n)
    assert finite > 500


def test_poincare_sphere_covers():
    for t, n in ((normalize(3, 1), 5), (normalize(5, 1), 3)):
        assert h1(minkus_presentation(t, n)) == AbelianGroup(0, ())
        assert geometry(t, CoveringSpec(n, (1,))).value == "spherical"


def test_gem_and_crystallization_sweep():
    start = time.monotonic()
    checked = 0
    for n in range(1, 7):
        for p in range(1, 7):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    for cp in range(n):
                        if gcd(n, gcd(c, cp)) != 1:
                            continue
                        params = LMParams(n, p, q, c, cp)
                        g = build_generalized(params)
                        gem = is_gem(g)
                        assert gem == gem_closed_form(params), params
                        checked += 1
                        if gem and cp % n == 1 % n:
                            # connectivity criterion, stated on the plain family
                            assert is_crystallization(g) == (gcd(n, c) == 1), params
    assert checked == 1728
    assert time.monotonic() - start < 60.0


def test_graph_isomorphism_arithmetic():
    positives = negatives = 0
    for n in (3, 4, 5):
        for p in (3, 4, 5):
            params = [LMParams(n, p, q, c)
                      for q in range(2 * p) if gcd(p, q) == 1
                      for c in range(n)]
            graphs = {pr: build_lins_mandel(pr) for pr in params}
            for a, b in combinations_with_replacement(params, 2):
                try:
                    want = lm_isomorphic_closed_form(a, b)
                except OutOfRange:
                    continue
                got = graph_isomorphic(graphs[a], graphs[b],
                                       allow_colour_permutation=True)
                assert got == want, (a, b)
                if want:
                    positives += 1
                else:
                    negatives += 1
    assert positives > 0 and negatives > 0


def test_takahashi_relators_exact():
    fig8 = takahashi_word(even_cf_expand(normalize(5, 2)), 4)
    assert fig8.w.letters == ((3, -1), (2, 2), (1, -1), (2, 1))

    # degree-5 relator of the 12-crossing example, syllables stored as
    # offsets from the base strand index
    offsets = [(1, -1), (0, 1), (1, -2), (2, 1), (1, -1), (0, 1),
               (1, -1), (0, 2), (-1, -1), (0, 1), (1, -1), (0, 2),
               (-1, -1), (0, 1), (-1, -1), (-2, 1), (-1, -2), (0, 1),
               (-1, -1), (0, 1), (1, -1), (0, 2), (-1, -1), (0, 1)]
    expected = word(*(((2 + off - 1) % 5 + 1, e) for off, e in offsets))
    got = takahashi_word(even_cf_expand(normalize(29, 12)), 5)
    assert got.w == expected


def test_schema_euler_and_homology():
    for n in range(2, 7):
        for p in range(2, 10):
            for q in range(1, p, 2):
                if gcd(p, q) != 1:
                    continue
                for k in range(1, n):
                    assert quotient_counts(build_minkus(n, k, p, q)).chi == 0
    for n in range(2, 6):
        for p in range(2, 10):
            for q in range(1, p, 2):
                if gcd(p, q) != 1:
                    continue
                schema = build_minkus(n, 1, p, q)
                assert h1(schema_presentation(schema)) == \
                    h1(minkus_presentation(normalize(p, q), n)), (n, p, q)


def test_crystallization_heegaard_genus():
    crystallizations = []
    for n in range(1, 7):
        for p in range(1, 6):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    params = LMParams(n, p, q, c)
                    g = build_lins_mandel(params)
                    if is_gem(g) and is_crystallization(g):
                        crystallizations.append((params, g))
    assert len(crystallizations) == 156
    dropped = 0
    for params, g in crystallizations:
        assert heegaard_genus(g, (0, 2, 1, 3)) == params.n - 1, params
        best = min(heegaard_genus(g, order) for order in CYCLIC_ORDERS)
        if params.p >= 3:
            assert best == params.n - 1, params
        else:
            # lens and sphere graphs admit cheaper splittings
            assert best <= params.n - 1, params
            dropped += best < params.n - 1
    assert dropped > 0


def test_covering_factorization_laws():
    t = normalize(8, 3)
    for n in range(2, 51):
        for k in range(1, n):
            g = gcd(n, k)
            res = decompose(t, n, k)
            upper, lower = res["degrees"]
            assert res["d"] == g and lower == g
            assert upper * lower == n
            assert upper == n // g
