import random
import re
from collections import Counter, namedtuple
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bridgecovers.covering import CoveringSpec
from bridgecovers.gems import (
    CYCLIC_ORDERS,
    ColouredGraph,
    LMParams,
    OutOfRange,
    SPHERE,
    _build,
    _components,
    _residue_count,
    build_generalized,
    build_lins_mandel,
    eta,
    gem_closed_form,
    graph_isomorphic,
    heegaard_genus,
    is_crystallization,
    is_gem,
    lm_isomorphic_closed_form,
    represented_covering,
)
from bridgecovers.two_bridge import normalize
from depth_first import depth_first_isomorphic


TWO_VERTEX = ColouredGraph(((1, 0), (1, 0), (1, 0), (1, 0)))


def lm_sweep(nmax, pmax):
    for n in range(1, nmax + 1):
        for p in range(1, pmax + 1):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    yield LMParams(n, p, q, c)


def test_eta():
    assert eta(1, 5) == 1
    assert eta(5, 5) == 1
    assert eta(6, 5) == -1
    assert eta(0, 5) == -1
    assert eta(11, 5) == 1  # wraps mod 2p


def reference_build(params):
    """Independent oracle: the four involutions vertex by vertex."""
    n, p, q, c, cp = params.n, params.p, params.q, params.c, params.cprime
    width = 2 * p

    def idx(i, j):
        return (i % n) * width + (j % width)

    inv = [[], [], [], []]
    for v in range(n * width):
        i, j = divmod(v, width)
        inv[0].append(idx(i + c * eta(j - q, p), 1 - j + 2 * q))
        inv[1].append(idx(i + cp * eta(j, p), 1 - j))
        inv[2].append(idx(i, j + (-1) ** j))
        inv[3].append(idx(i, j - (-1) ** j))
    return tuple(tuple(col) for col in inv)


def test_build_matches_per_vertex_reference():
    count = 0
    for n in range(1, 8):
        for p in range(1, 8):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    for cp in range(n):
                        if gcd(n, gcd(c, cp)) != 1:
                            continue
                        params = LMParams(n, p, q, c, cp)
                        assert build_generalized(params).involutions == reference_build(params)
                        count += 1
    assert count == 4320


def test_build_basic():
    g = build_lins_mandel(LMParams(3, 5, 3, 2))
    assert g.vertex_count == 30
    # colour 2 joins (0,1) to (0,0); colour 1 shifts column by eta
    assert g.involutions[2][1] == 0
    assert g.involutions[1][1] == 10
    for inv in g.involutions:
        for v, w in enumerate(inv):
            assert inv[w] == v and w != v


def test_generalized_extends():
    for params in ((3, 5, 3, 2), (4, 4, 1, 3), (5, 2, 1, 2), (1, 3, 1, 0)):
        assert LMParams(*params) == LMParams(*params, 1)
        lm = build_lins_mandel(LMParams(*params))
        glm = build_generalized(LMParams(*params, cprime=1))
        assert lm.involutions == glm.involutions
    # the two builders are one construction: they agree for every c'
    for cp in range(5):
        params = LMParams(5, 3, 2, 1, cp)
        assert build_lins_mandel(params).involutions == build_generalized(params).involutions


@pytest.mark.parametrize("involutions, message", [
    pytest.param(((1, 0),) * 3, "need exactly four involutions",
                 id="three_colours"),
    pytest.param(((1, 0),) * 5, "need exactly four involutions",
                 id="five_colours"),
    pytest.param(((),) * 4, "vertex count must be positive and even",
                 id="no_vertex"),
    pytest.param(((1, 2, 0),) * 4, "vertex count must be positive and even",
                 id="odd_vertex_count"),
    pytest.param(((1, 0), (1, 0), (1, 0), (1, 0, 3, 2)),
                 "involution 3 acts on a different vertex set", id="length_mismatch"),
    pytest.param(((1, 0), (1, 0), (0, 1), (1, 0)),
                 "colour 2 fixes vertex 0", id="fixed_point"),
    pytest.param(((1, 0), (2, 0), (1, 0), (1, 0)),
                 "colour 1 is not an involution at vertex 0", id="endpoint_too_large"),
    # a negative endpoint would index from the end and find vertex 0 again
    pytest.param(((1, 0), (1, 0), (-1, 0), (1, 0)),
                 "colour 2 is not an involution at vertex 0", id="negative_endpoint"),
    pytest.param(((1, 0, 3, 2), (1, 0, 3, 2), (1, 0, 3, 2), (1, 2, 3, 0)),
                 "colour 3 is not an involution at vertex 0", id="not_an_involution"),
    pytest.param(((1, 0, 3, 2),) * 4, "graph is not connected",
                 id="disconnected"),
])
def test_rejections(involutions, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)) as caught:
        ColouredGraph(involutions)
    assert caught.type is ValueError


def _cycle_sizes(g, pair):
    """Sorted vertex counts of the bicoloured cycles of a colour pair a < b,
    as the lifts of the base cycles in the quotient table."""
    cycles, count = g._cycles[pair][:2]
    sizes = sorted(size for copies, size in cycles for _ in range(copies))
    assert len(sizes) == count
    return sizes


def test_cycle_table_sizes():
    g = build_lins_mandel(LMParams(3, 5, 3, 2))
    assert _cycle_sizes(g, (2, 3)) == [10, 10, 10]
    assert _cycle_sizes(TWO_VERTEX, (0, 1)) == [2]
    for pair in combinations(range(4), 2):
        assert sum(_cycle_sizes(g, pair)) == g.vertex_count


def test_is_gem():
    assert is_gem(build_lins_mandel(LMParams(3, 5, 3, 2)))
    assert not is_gem(build_lins_mandel(LMParams(3, 5, 3, 1)))
    assert is_gem(build_lins_mandel(LMParams(4, 6, 1, 3)))  # p even
    assert is_gem(TWO_VERTEX)


def test_gem_closed_form():
    assert gem_closed_form(LMParams(3, 5, 3, 2))
    assert gem_closed_form(LMParams(4, 6, 1, 3))
    assert not gem_closed_form(LMParams(3, 5, 3, 1, 1))


def test_gem_criterion_sweep():
    for n in range(1, 5):
        for p in range(1, 5):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    for cp in range(n):
                        if gcd(n, gcd(c, cp)) != 1:
                            continue
                        params = LMParams(n, p, q, c, cp)
                        g = build_generalized(params)
                        assert is_gem(g) == gem_closed_form(params), params


@st.composite
def lm_params(draw):
    """LMParams(n, p, q, c, c') with n, p <= 7."""
    n, p = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    q = draw(st.integers(0, 2 * p - 1).filter(lambda q: gcd(p, q) == 1))
    c, cp = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda cs: gcd(n, *cs) == 1))
    return LMParams(n, p, q, c, cp)


@settings(max_examples=150, deadline=None)
@given(lm_params())
def test_gem_criterion_random(params):
    assert is_gem(build_generalized(params)) == gem_closed_form(params)


def test_is_crystallization():
    assert is_crystallization(build_lins_mandel(LMParams(3, 4, 1, 1)))
    assert not is_crystallization(build_lins_mandel(LMParams(4, 4, 1, 2)))
    assert is_crystallization(TWO_VERTEX)
    with pytest.raises(ValueError, match=r"^graph has a non-spherical 3-residue$"):
        is_crystallization(build_lins_mandel(LMParams(3, 5, 3, 1)))


def test_represented_covering():
    t, spec = represented_covering(LMParams(3, 5, 3, 2))
    assert t == normalize(5, 3)
    assert spec == CoveringSpec(3, (1,))
    t, spec = represented_covering(LMParams(5, 8, 3, 3, 1))
    assert t == normalize(8, 3)
    assert spec == CoveringSpec(5, (1, 2))
    assert represented_covering(LMParams(4, 5, 3, 0, 1)) is SPHERE
    assert represented_covering(LMParams(3, 5, 3, 1, 0)) is SPHERE
    assert represented_covering(LMParams(4, 1, 1, 3)) is SPHERE  # p = 1 gem: 3 = (-1)^q mod 4
    with pytest.raises(ValueError, match=r"^parameters fail the gem criterion$"):
        represented_covering(LMParams(3, 5, 3, 1, 1))


def test_lens_graphs():
    # degree-2 graphs realize the lens space as the 2-fold covering
    t, spec = represented_covering(LMParams(2, 7, 3, 1))
    assert t == normalize(7, 3)
    assert spec == CoveringSpec(2, (1,))
    assert is_gem(build_lins_mandel(LMParams(2, 7, 3, 1)))


def test_graph_isomorphic():
    g = build_lins_mandel(LMParams(3, 4, 1, 1))
    assert graph_isomorphic(g, g)
    assert not graph_isomorphic(g, TWO_VERTEX)
    assert graph_isomorphic(g, build_lins_mandel(LMParams(3, 4, 5, 2)))


def test_graph_isomorphic_unequal_sizes_past_the_cap():
    # unequal vertex counts answer False before the 200-vertex cap applies
    big = build_lins_mandel(LMParams(101, 1, 1, 1))
    small = build_lins_mandel(LMParams(3, 1, 1, 1))
    assert big.vertex_count == 202
    assert not graph_isomorphic(big, small)
    assert not graph_isomorphic(small, big)
    with pytest.raises(ValueError, match=r"^brute-force isomorphism capped at 200 vertices$"):
        graph_isomorphic(big, big)


@st.composite
def gem_graphs(draw):
    """A generalized Lins-Mandel graph, or a random gem on at most 12 vertices."""
    if draw(st.booleans()):
        return build_generalized(draw(lm_params()))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    v_count = 2 * draw(st.integers(1, 6))
    g = _random_graph(rng, v_count)
    while not is_gem(g):
        g = _random_graph(rng, v_count)
    return g


@settings(max_examples=150, deadline=None)
@given(gem_graphs(), st.randoms(use_true_random=False))
def test_graph_isomorphic_under_relabelling(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    sigma = [0, 1, 2, 3]
    rng.shuffle(sigma)
    moved = ColouredGraph(_relabel(g.involutions, perm))
    assert graph_isomorphic(g, moved)
    recoloured = ColouredGraph(_relabel(g.involutions, perm, sigma))
    assert graph_isomorphic(g, recoloured, allow_colour_permutation=True)
    # the verdict does not depend on which cached tables have been read
    for h in (g, recoloured):
        h._cycles
        _residue_count(h, 0)
    assert graph_isomorphic(g, recoloured, allow_colour_permutation=True)


def test_graph_isomorphic_against_depth_first_search_on_small_family():
    # every pair, gem or not, of G(n, p, q, c) with n, p in {3, 4}
    family = [build_lins_mandel(params) for params in lm_sweep(4, 4) if params.n > 2 and params.p > 2]
    assert len(family) == 56
    verdicts = Counter()
    for g1, g2 in combinations(family, 2):
        for allow in (False, True):
            verdict = graph_isomorphic(g1, g2, allow)
            assert verdict == depth_first_isomorphic(g1, g2, allow)
            verdicts[allow, verdict] += 1
    # both verdicts occur with and without colour permutations
    assert min(verdicts[key] for key in ((False, False), (False, True), (True, False), (True, True))) > 0


def _lm_by_size(v_max):
    """Parameters of the G(n, p, q, c) on at most v_max vertices, by vertex count."""
    by_size = {}
    for n in range(1, v_max // 2 + 1):
        for p in range(1, v_max // (2 * n) + 1):
            by_size.setdefault(2 * n * p, []).extend(
                LMParams(n, p, q, c) for q in range(2 * p) if gcd(p, q) == 1 for c in range(n))
    return by_size


_SMALL_LM = _lm_by_size(60)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SMALL_LM)), st.randoms(use_true_random=False))
def test_graph_isomorphic_against_depth_first_search_relabelled(v_count, rng):
    # a relabelled copy puts the matching root of vertex 0 away from 0, so
    # some roots fail part-way before one succeeds
    g1 = build_lins_mandel(rng.choice(_SMALL_LM[v_count]))
    g2 = g1 if rng.random() < 0.5 else build_lins_mandel(rng.choice(_SMALL_LM[v_count]))
    perm = list(range(v_count))
    rng.shuffle(perm)
    sigma = [0, 1, 2, 3]
    if rng.random() < 0.5:
        rng.shuffle(sigma)
    moved = ColouredGraph(_relabel(g2.involutions, perm, sigma))
    for allow in (False, True):
        assert graph_isomorphic(g1, moved, allow) == depth_first_isomorphic(g1, moved, allow)
    if g2 is g1:
        assert graph_isomorphic(g1, moved, allow_colour_permutation=True)


def test_lm_isomorphic_closed_form():
    assert lm_isomorphic_closed_form(LMParams(3, 4, 1, 1), LMParams(3, 4, 5, 2))
    assert lm_isomorphic_closed_form(LMParams(3, 8, 3, 2), LMParams(3, 8, 3, 2))
    # q^2 = p + 1 allows +-c^{+-1}
    assert lm_isomorphic_closed_form(LMParams(3, 8, 3, 2), LMParams(3, 8, 3, 1))
    assert not lm_isomorphic_closed_form(LMParams(3, 8, 1, 2), LMParams(3, 8, 3, 2))
    with pytest.raises(OutOfRange):
        lm_isomorphic_closed_form(LMParams(2, 4, 1, 1), LMParams(2, 4, 1, 1))
    with pytest.raises(OutOfRange):
        lm_isomorphic_closed_form(LMParams(3, 5, 3, 1), LMParams(3, 5, 3, 1))
    # the conditions are stated for c' = 1 only
    for cp in (0, 2):
        with pytest.raises(OutOfRange):
            lm_isomorphic_closed_form(LMParams(3, 4, 1, 1, cp), LMParams(3, 4, 1, 1))
        with pytest.raises(OutOfRange):
            lm_isomorphic_closed_form(LMParams(3, 4, 1, 1), LMParams(3, 4, 1, 1, cp))


def test_heegaard_genus():
    for order in CYCLIC_ORDERS:
        assert heegaard_genus(TWO_VERTEX, order) == 0
    g = build_generalized(LMParams(5, 8, 3, 3, 1))
    assert heegaard_genus(g, (0, 2, 1, 3)) == 4
    g = build_lins_mandel(LMParams(3, 5, 3, 2))
    assert heegaard_genus(g, (0, 2, 1, 3)) == 2
    with pytest.raises(ValueError):
        heegaard_genus(g, (0, 1, 2, 2))


def is_bipartite(g):
    """Two-colouring of the vertices by search: the gem is orientable."""
    side = [None] * g.vertex_count
    side[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for inv in g.involutions:
            w = inv[v]
            if side[w] is None:
                side[w] = 1 - side[v]
                stack.append(w)
            elif side[w] == side[v]:
                return False
    return True


def test_bipartite():
    # every colour moves column j to 1 - j + 2q, 1 - j or j +- 1 mod 2p, so
    # every G(n, p, q, c, c') is bipartite and each cyclic order of the
    # colours gives an orientable surface: an even chi, an integer genus
    for base in lm_sweep(5, 5):
        for cp in range(base.n):
            if gcd(base.n, gcd(base.c, cp)) != 1:
                continue
            g = build_generalized(LMParams(base.n, base.p, base.q, base.c, cp))
            assert is_bipartite(g)
            for order in CYCLIC_ORDERS:
                assert isinstance(heegaard_genus(g, order), int)
    assert is_bipartite(TWO_VERTEX)


def _residues(involutions, colours):
    """Vertex sets of the components on the given colours, by search."""
    left = set(range(len(involutions[0])))
    out = []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for c in colours:
                w = involutions[c][v]
                if w not in comp:
                    comp.add(w)
                    left.discard(w)
                    stack.append(w)
        out.append(comp)
    return out


def _reference_is_gem(g):
    # every 3-residue on its own: (#bicoloured cycles in it) - |R|/2 == 2
    for missing in range(4):
        kept = [c for c in range(4) if c != missing]
        for comp in _residues(g.involutions, kept):
            cycles = sum(sum(1 for cyc in _residues(g.involutions, pair) if cyc <= comp)
                         for pair in combinations(kept, 2))
            if cycles - len(comp) // 2 != 2:
                return False
    return True


def _random_involutions(rng, v_count):
    """Four random perfect matchings of 0..v_count-1."""
    inv = []
    for _ in range(4):
        order = list(range(v_count))
        rng.shuffle(order)
        col = [0] * v_count
        for a, b in zip(order[::2], order[1::2]):
            col[a], col[b] = b, a
        inv.append(tuple(col))
    return tuple(inv)


def _random_graph(rng, v_count):
    # perfect matchings pass every endpoint check, so only a disconnected
    # draw is rejected and retried
    while True:
        try:
            return ColouredGraph(_random_involutions(rng, v_count))
        except ValueError as err:
            if str(err) != "graph is not connected":
                raise


def _component(involutions, start):
    """Vertices reachable from start, by search over all four colours."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for inv in involutions:
            w = inv[v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _relabel(involutions, perm, sigma=(0, 1, 2, 3)):
    """The involutions with vertex v renamed perm[v] and colour c renamed sigma[c]."""
    out = [None] * 4
    for c, inv in enumerate(involutions):
        col = [0] * len(inv)
        for v, w in enumerate(inv):
            col[perm[v]] = perm[w]
        out[sigma[c]] = tuple(col)
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_connectivity_against_search(half, other_half, rng):
    # a second, disjoint graph (vertex names shuffled into the first) makes
    # the union disconnected; a single small draw is disconnected at times
    involutions = _random_involutions(rng, 2 * half)
    if other_half:
        other = _random_involutions(rng, 2 * other_half)
        union = tuple(a + tuple(w + 2 * half for w in b) for a, b in zip(involutions, other))
        perm = list(range(2 * (half + other_half)))
        rng.shuffle(perm)
        involutions = _relabel(union, perm)
    connected = len(_component(involutions, 0)) == len(involutions[0])
    try:
        ColouredGraph(involutions)
    except ValueError as err:
        assert str(err) == "graph is not connected"
        assert not connected
    else:
        assert connected


def test_cycle_table_against_search():
    # random graphs reach non-bipartite residues (projective planes, chi = 1)
    # that the Lins-Mandel families do not
    rng = random.Random(7)
    gems = 0
    for v_count in (2, 4, 6, 8, 10, 12) * 40:
        g = _random_graph(rng, v_count)
        for pair in combinations(range(4), 2):
            cycles = _residues(g.involutions, pair)
            assert _cycle_sizes(g, pair) == sorted(map(len, cycles))
            assert g._cycles[pair][1] == len(cycles)
        for missing in range(4):
            kept = [c for c in range(4) if c != missing]
            assert _residue_count(g, missing) == len(_residues(g.involutions, kept))
        assert is_gem(g) == _reference_is_gem(g)
        if is_gem(g):
            gems += 1
            crystal = all(len(_residues(g.involutions, [c for c in range(4) if c != m])) == 1
                          for m in range(4))
            assert is_crystallization(g) == crystal
        else:
            with pytest.raises(ValueError, match=r"^graph has a non-spherical 3-residue$"):
                is_crystallization(g)
    assert 0 < gems < 240


# the parameters of _build without LMParams's checks, so that gcd(n, c, c') > 1
RawParams = namedtuple("RawParams", "n p q c cprime")


def _component_sizes(involutions, colours):
    return sorted(map(len, _residues(involutions, colours)))


def test_quotient_tables_against_lifted_search():
    # every parameter set with n <= 8 and p <= 6, gcd(n, c, c') > 1 included:
    # the quotient's cycle and residue tables and its connectivity verdict
    # against search on the lifted involutions of the per-vertex reference
    graphs = disconnected = non_gems = 0
    for n in range(1, 9):
        for p in range(1, 7):
            for q in range(2 * p):
                if gcd(p, q) != 1:
                    continue
                for c in range(n):
                    for cp in range(n):
                        raw = RawParams(n, p, q, c, cp)
                        lifted = reference_build(raw)
                        if len(_component_sizes(lifted, range(4))) > 1:
                            with pytest.raises(ValueError, match=r"^graph is not connected$"):
                                _build(raw)
                            disconnected += 1
                            continue
                        g = _build(raw)
                        if gcd(n, gcd(c, cp)) == 1:
                            assert g == build_generalized(LMParams(*raw))
                        assert g.involutions == lifted
                        for pair in combinations(range(4), 2):
                            assert _cycle_sizes(g, pair) == _component_sizes(lifted, pair), raw
                        for missing in range(4):
                            kept = [x for x in range(4) if x != missing]
                            assert (_residue_count(g, missing)
                                    == len(_component_sizes(lifted, kept))), raw
                        non_gems += not is_gem(g)
                        graphs += 1
    assert (graphs, disconnected) == (4032, 864)
    assert 0 < non_gems < graphs


def _gauge_shifts(rng, base, n):
    """Shifts f(w) - f(v) on the edges v -> w, for a random f on the base,
    except on one colour, whose shifts are random: the closed walks of the
    other three colours then shift by 0, so their lift has n copies of each
    base component, and an offset the quotient gets wrong shows."""
    f = [rng.randrange(n) for _ in base[0]]
    free = rng.randrange(4)
    shifts = []
    for c, inv in enumerate(base):
        shift = [(f[w] - f[v]) % n for v, w in enumerate(inv)]
        for v, w in enumerate(inv):
            if c == free and v < w:
                shift[v] = rng.randrange(n)
                shift[w] = -shift[v] % n
        shifts.append(tuple(shift))
    return tuple(shifts)


def _lift(base, n, shifts):
    """The involutions of the n-fold lift, vertex by vertex."""
    size = len(base[0])
    return tuple(tuple(((v // size + shift[v % size]) % n) * size + inv[v % size]
                       for v in range(n * size))
                 for inv, shift in zip(base, shifts))


def test_random_voltage_graphs_against_lifted_search():
    # random bases have several cycles per colour pair, so the union-find
    # joins cycles at offsets, which the Lins-Mandel bases (one cycle on
    # each of the pairs 01 and 23) never do
    rng = random.Random(11)
    verdicts = Counter()
    for _ in range(600):
        n, size = rng.randrange(1, 9), 2 * rng.randrange(1, 9)
        base = _random_involutions(rng, size)
        shifts = _gauge_shifts(rng, base, n)
        lifted = _lift(base, n, shifts)
        try:
            g = ColouredGraph(base, n, shifts)
        except ValueError as err:
            assert str(err) == "graph is not connected"
            assert len(_component_sizes(lifted, range(4))) > 1
            verdicts["disconnected"] += 1
            continue
        assert len(_component_sizes(lifted, range(4))) == 1
        assert g.involutions == lifted
        for pair in combinations(range(4), 2):
            assert _cycle_sizes(g, pair) == _component_sizes(lifted, pair)
        for missing in range(4):
            kept = [x for x in range(4) if x != missing]
            assert _residue_count(g, missing) == len(_component_sizes(lifted, kept))
        verdicts[is_gem(g)] += 1
    assert min(verdicts[True], verdicts[False], verdicts["disconnected"]) > 0


@pytest.mark.parametrize("n", [97, 360, 1000, 100000])
def test_gem_criterion_at_large_degree(n):
    # the quotient has 2p vertices at every n, so the criterion is checked
    # far above the degrees that search on the lift can reach
    for p in range(1, 13):
        for q in range(2 * p):
            if gcd(p, q) != 1:
                continue
            for c in sorted({0, 1, 2, 3, 5, 12, n // 2, n - 1}):
                for cp in (1, 2, n - 1):
                    if gcd(n, gcd(c, cp)) != 1:
                        continue
                    params = LMParams(n, p, q, c, cp)
                    g = build_generalized(params)
                    assert g.vertex_count == 2 * n * p
                    assert is_gem(g) == gem_closed_form(params), params
                    if cp == 1 and is_gem(g):
                        assert is_crystallization(g) == (gcd(n, c) == 1), params


def logging_calls(log, real):
    """real, appending its first argument to log on every call."""
    def logged(first, *rest):
        log.append(first)
        return real(first, *rest)
    return logged


def test_cycle_table_is_built_once_per_graph(monkeypatch):
    built = {"_cycles": [], "_residues": []}
    for name, log in built.items():
        table = ColouredGraph.__dict__[name]
        monkeypatch.setattr(table, "func", logging_calls(log, table.func))
    union_finds = []
    monkeypatch.setattr("bridgecovers.gems._components", logging_calls(union_finds, _components))
    g = build_lins_mandel(LMParams(5, 8, 3, 3))
    assert is_gem(g) and is_crystallization(g) and is_gem(g)
    for order in CYCLIC_ORDERS:
        heegaard_genus(g, order)
    g._cycles[(1, 3)]
    assert built == {"_cycles": [g], "_residues": [g]}
    # one for connectivity at construction, then one per missing colour
    assert len(union_finds) == 1 + 4
    build_lins_mandel(LMParams(5, 8, 3, 3))._cycles
    assert len(built["_cycles"]) == 2
    # a non-gem stops at its first failing colour
    union_finds.clear()
    assert not is_gem(build_lins_mandel(LMParams(3, 5, 3, 1)))
    assert len(union_finds) < 1 + 4
