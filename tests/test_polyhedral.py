import time
from collections import Counter
from math import gcd

import pytest

from bridgecovers.homology import AbelianGroup, h1
from bridgecovers import polyhedral
from bridgecovers.cli import main
from bridgecovers.polyhedral import (
    MinkusSchema,
    build_minkus,
    quotient_counts,
    schema_presentation,
)
from bridgecovers.presentations import minkus_presentation
from bridgecovers.two_bridge import normalize
from bridgecovers.words import CyclicPresentation, FreeWord, format_word
from union_find import union_classes


def test_build_validation():
    s = build_minkus(3, 1, 5, 3)
    assert (s.n, s.k, s.p, s.q) == (3, 1, 5, 3)
    with pytest.raises(ValueError, match=r"^q must be the odd representative, got 2$"):
        build_minkus(3, 1, 5, 2)
    with pytest.raises(ValueError, match=r"^need 0 < q < p coprime, got p=6 q=3$"):
        build_minkus(3, 1, 6, 3)
    with pytest.raises(ValueError, match=r"^need 0 < q < p coprime, got p=5 q=7$"):
        build_minkus(3, 1, 5, 7)
    with pytest.raises(ValueError, match=r"^need degree n >= 2 and k nonzero mod n$"):
        build_minkus(1, 1, 5, 3)
    with pytest.raises(ValueError, match=r"^need degree n >= 2 and k nonzero mod n$"):
        build_minkus(3, 3, 5, 3)


def test_cell_counts():
    s = build_minkus(3, 1, 5, 3)
    faces = _faces(s)
    assert len(faces) == 2 * s.n
    # poles plus p-1 subdivision points per semicircle; each segment and arc
    # lies in two slots, once each way
    assert len({v for verts, _ in faces for v in verts}) == s.n * (s.p - 1) + 2
    assert len({de for _, slots in faces for de in slots}) == 2 * (s.n * s.p + s.n)
    counts = quotient_counts(s)
    assert counts.chi == 0
    assert counts.t3 == 1
    assert counts.t2 == s.n
    assert counts.t1 == counts.t0 + s.n - 1


def test_hantzsche_wendt_schema():
    pres = schema_presentation(build_minkus(3, 1, 5, 3))
    assert pres.generator_count == 3
    assert h1(pres) == AbelianGroup(0, (4, 4))


def test_lens_schemata():
    for p in range(2, 10):
        for q in range(1, p, 2):
            if gcd(p, q) != 1:
                continue
            pres = schema_presentation(build_minkus(2, 1, p, q))
            assert h1(pres) == AbelianGroup(0, (p,))


def test_poincare_schema():
    pres = schema_presentation(build_minkus(5, 1, 3, 1))
    assert h1(pres) == AbelianGroup(0, ())


def test_chi_zero_sweep():
    for n in range(2, 7):
        for p in range(2, 10):
            for q in range(1, p, 2):
                if gcd(p, q) != 1:
                    continue
                for k in range(1, n):
                    s = build_minkus(n, k, p, q)
                    counts = quotient_counts(s)
                    assert counts.chi == 0, (n, k, p, q)
                    assert counts.t0 - counts.t1 + counts.t2 - counts.t3 == 0


def test_schema_matches_minkus_presentation():
    # strictly-cyclic overlap: same H_1 as the algebraic presentation
    for p in range(2, 10):
        for q in range(1, p, 2):
            if gcd(p, q) != 1:
                continue
            t = normalize(p, q)
            for n in range(2, 6):
                a = h1(schema_presentation(build_minkus(n, 1, p, q)))
                b = h1(minkus_presentation(t, n))
                assert a == b, (n, p, q, a, b)


def _vertex_name(s, v):
    """N, S, or v(i,t): the t-th subdivision point of semicircle i."""
    if v < 2:
        return "NS"[v]
    i, t = divmod(v - 2, s.p - 1)
    return "v(%d,%d)" % (i, t + 1)


def test_marked_vertices():
    s = build_minkus(3, 1, 5, 3)
    # P_i is the arc endpoint q steps below N on semicircle i
    marked = [_semicircle(s, i)[s.q] for i in range(s.n)]
    names = [_vertex_name(s, v) for v in marked]
    assert names == ["v(0,3)", "v(1,3)", "v(2,3)"]


def test_hantzsche_wendt_schema_regions():
    # the regions R_i, R'_i in their established order
    s = build_minkus(3, 1, 5, 3)
    assert s.pairing_shift == 1
    regions = {("R'%d" if f % 2 else "R%d") % (f // 2):
               " ".join(_vertex_name(s, v) for v in verts)
               for f, (verts, _) in enumerate(_faces(s))}
    assert regions == {
        "R0": "N v(0,1) v(0,2) v(0,3) v(1,2) v(1,1)",
        "R'0": "v(0,3) v(0,4) S v(1,4) v(1,3) v(1,2)",
        "R1": "N v(1,1) v(1,2) v(1,3) v(2,2) v(2,1)",
        "R'1": "v(1,3) v(1,4) S v(2,4) v(2,3) v(2,2)",
        "R2": "N v(2,1) v(2,2) v(2,3) v(0,2) v(0,1)",
        "R'2": "v(2,3) v(2,4) S v(0,4) v(0,3) v(0,2)",
    }


def test_hantzsche_wendt_schema_content():
    # vertex classes (from the face lists), cells, and the relators of the
    # two families in their established order
    s = build_minkus(3, 1, 5, 3)
    classes = {}
    for v, root in enumerate(glue_reference(s)[0]):
        classes.setdefault(root, []).append(_vertex_name(s, v))
    assert list(classes.values()) == [
        ["N", "v(0,2)", "v(0,4)", "v(1,2)", "v(1,4)", "v(2,2)", "v(2,4)"],
        ["S", "v(0,1)", "v(0,3)", "v(1,1)", "v(1,3)", "v(2,1)", "v(2,3)"],
    ]
    counts = quotient_counts(s)
    assert (counts.t0, counts.t1, counts.t2, counts.t3, counts.chi) == (2, 4, 3, 1, 0)
    assert [format_word(r) for r in schema_presentation(s).relators] == [
        "x1 x2^-1 x1^2 x3^-1",
        "x2 x3^-1 x2^2 x1^-1",
        "x3 x1^-1 x3^2 x2^-1",
        "x1 x3 x2",
    ]


def test_literal_shift_is_not_a_manifold():
    # odd p with the literal i-k matching: chi != 0, so no presentation
    s = MinkusSchema(5, 5, 3, 2, 2)
    counts = quotient_counts(s)
    assert (counts.t0, counts.t1, counts.chi) == (2, 2, 4)
    with pytest.raises(ValueError, match="chi = 4"):
        schema_presentation(s)


def test_each_call_glues_once(monkeypatch, capsys):
    calls = []
    real = polyhedral._glue

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(polyhedral, "_glue", counting)
    schema_presentation(build_minkus(3, 1, 5, 3))
    assert len(calls) == 1
    assert main(["polyhedral", "3", "1", "5", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    s = build_minkus(4, 1, 6, 1)
    quotient_counts(s)
    schema_presentation(s)
    quotient_counts(s)
    assert len(calls) == 3


# ---- oracle: the gluing read off explicit per-face vertex and slot lists ----

def _semicircle(s, i):
    """Vertex ids at heights 0..p on semicircle i (mod n): N, v(i,1..p-1), S."""
    first = 2 + (i % s.n) * (s.p - 1)
    return [0, *range(first, first + s.p - 1), 1]


def _faces(s):
    """Regions R_0, R'_0, R_1, R'_1, ... as (vertex cycle, slot list).

    Edge ids: semicircle segment sc(i,t) = i*p + t runs v(i,t) -> v(i,t+1);
    bisecting arc arc(i) = n*p + i runs v(i,q) -> v(i+1, p-q).  A slot holds
    the directed edge met there, numbered 2e along edge e and 2e + 1 against.
    """
    n, p, q = s.n, s.p, s.q
    faces = []
    for i in range(n):
        j = (i + 1) % n
        here, there = _semicircle(s, i), _semicircle(s, j)
        # R_i: down semicircle i to the arc, back up semicircle i+1 to N
        verts = here[:q + 1] + there[p - q:0:-1]
        slots = ([2 * (i * p + t) for t in range(q)] + [2 * (n * p + i)]
                 + [2 * (j * p + t) + 1 for t in range(p - q - 1, -1, -1)])
        faces.append((verts, slots))
        # R'_i: from the arc down semicircle i to S, back up semicircle i+1
        verts = here[q:] + there[p - 1:p - q - 1:-1]
        slots = ([2 * (i * p + t) for t in range(q, p)]
                 + [2 * (j * p + t) + 1 for t in range(p - 1, p - q - 1, -1)]
                 + [2 * (n * p + i) + 1])
        faces.append((verts, slots))
    for verts, slots in faces:
        assert len(verts) == p + 1 and len(slots) == p + 1
    return faces


def glue_reference(s):
    """The gluing of R_i to R'_{i - shift}, paired list by list: north
    position q (the marked vertex) to south position 0, the slots after each
    running on in opposite directions.  Returns the class representative of
    each vertex and one relator per edge class, walked in slot order."""
    faces = _faces(s)
    n, p, q = s.n, s.p, s.q
    directed = 2 * (n * p + n)
    assert len({de for _, slots in faces for de in slots}) == directed
    nxt = [0] * directed
    letter = [None] * directed
    vertex_pairs = []
    for i in range(n):
        l = (i - s.pairing_shift) % n
        (nverts, nslots), (sverts, sslots) = faces[2 * i], faces[2 * l + 1]
        forward, backward = (i + 1, +1), (i + 1, -1)
        for a, b in zip(nslots[q:] + nslots[:q], sslots[::-1]):
            nxt[a], nxt[b] = b ^ 1, a ^ 1
            letter[a], letter[b] = forward, backward
        vertex_pairs += zip(nverts[q:] + nverts[:q], sverts[:1] + sverts[:0:-1])
    vertex_class = union_classes(n * (p - 1) + 2, vertex_pairs)
    relators = []
    seen = [False] * directed
    for _, slots in faces:
        for de0 in slots:
            if seen[de0]:
                continue
            rel = []
            de = de0
            while True:
                seen[de] = seen[de ^ 1] = True
                rel.append(letter[de])
                de = nxt[de]
                if de == de0:
                    break
            relators.append(tuple(rel))
    return vertex_class, relators


def _cyclic_word(w):
    """w as a cyclic word up to inversion: the least rotation of its
    cyclically reduced letters, or of its inverse's, one letter per unit."""
    letters = [(i, 1 if e > 0 else -1) for i, e in w.letters for _ in range(abs(e))]
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    inverse = [(i, -e) for i, e in reversed(letters)]
    return min((tuple(c[k:] + c[:k]) for c in (letters, inverse) for k in range(len(c))),
               default=())


def assert_glued_as_face_lists(s):
    """The rotation families against the gluing of every face pair: as many
    vertex classes, and the same relators as cyclic words up to inversion."""
    g = polyhedral._glue(s)
    vertex_class, relators = glue_reference(s)
    assert g.t0 == len(set(vertex_class)), s
    expanded = CyclicPresentation(s.n, g.families).relators
    assert Counter(map(_cyclic_word, expanded)) == \
        Counter(_cyclic_word(FreeWord(rel)) for rel in relators), s


def manifold_schemata():
    """p <= 16 of both parities, every odd q, n <= 10 and every k."""
    for p in range(2, 17):
        for q in range(1, p, 2):
            if gcd(p, q) == 1:
                for n in range(2, 11):
                    for k in range(1, n):
                        yield build_minkus(n, k, p, q)


def test_glue_against_face_lists():
    for s in manifold_schemata():
        assert_glued_as_face_lists(s)


def test_glue_against_face_lists_at_every_pairing_shift():
    # the literal shifts too, which are not manifolds for odd p
    for p in (5, 6, 9):
        for q in range(1, p, 2):
            if gcd(p, q) != 1:
                continue
            for n in range(1, 7):
                for shift in range(n):
                    assert_glued_as_face_lists(MinkusSchema(n, p, q, shift, shift))


def test_manifold_schemata_have_two_shift_families():
    # like mu3's (Q_1, gcd(n, k)) and (Q'_1, n): one orbit of edge classes
    # of size gcd(n, shift) and one of size n
    for s in manifold_schemata():
        sizes = sorted(count for _, count in s._gluing.families)
        assert sizes == sorted([gcd(s.n, s.pairing_shift), s.n]), s


def test_gluing_ceiling_at_large_degree():
    # a gluing of every face pair walks all 2n(p+1) slots, 0.24 s on a
    # 2-core x86-64 virtual machine; one pair and the rotation take 2-3 ms
    best = float("inf")
    for _ in range(3):
        s = build_minkus(5120, 7, 30, 7)
        start = time.perf_counter()
        counts = quotient_counts(s)
        best = min(best, time.perf_counter() - start)
        assert counts == (2, 5121, 5120, 1)
    assert best < 0.1
