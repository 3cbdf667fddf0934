"""4-coloured graphs encoding closed orientable 3-manifolds.

The Lins-Mandel family G(n, p, q, c) and its generalization carry four
fixed-point-free involutions on the vertex set Z_n x Z_2p.  Checking that
every 3-residue is a 2-sphere decides whether the graph is a gem, i.e.
whether the associated pseudocomplex is a manifold.
"""

from functools import cached_property
from itertools import combinations, permutations
from math import gcd

from .covering import CoveringSpec
from .two_bridge import normalize
from .values import checked_namedtuple


class OutOfRange(ValueError):
    pass


class Sphere:
    """Sentinel for parameter ranges whose manifold collapses to S^3."""

    __slots__ = ()

    def __repr__(self):
        return "Sphere"


SPHERE = Sphere()

# the three essentially distinct cyclic orders of the four colours
CYCLIC_ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


class ColouredGraph(checked_namedtuple("ColouredGraph", "involutions")):
    """Connected 4-regular graph given by four fixed-point-free involutions.

    Vertices are 0..V-1; involutions[c][v] is the endpoint of the c-coloured
    edge at v.  Parallel edges of different colours are allowed.
    """

    # no __slots__: the cached properties below live in the instance dict

    def __new__(cls, involutions: tuple):
        if len(involutions) != 4:
            raise ValueError("need exactly four involutions")
        v_count = len(involutions[0])
        if v_count == 0 or v_count % 2:
            raise ValueError("vertex count must be positive and even")
        for c, inv in enumerate(involutions):
            if len(inv) != v_count:
                raise ValueError("involution %d acts on a different vertex set" % c)
            for v, w in enumerate(inv):
                if w == v:
                    raise ValueError("colour %d fixes vertex %d" % (c, v))
                if not 0 <= w < v_count or inv[w] != v:
                    raise ValueError("colour %d is not an involution at vertex %d" % (c, v))
        graph = tuple.__new__(cls, (involutions,))
        if _cycle_classes(graph, (0, 1), (2, 3)) != 1:
            raise ValueError("graph is not connected")
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self.involutions[0])

    @cached_property
    def _cycles(self) -> dict:
        """Colour pair (a < b) -> (cycle label of each vertex, cycle count).

        Computed once, by the connectivity check at construction, and kept
        for the life of this (immutable) graph; every bicoloured-cycle,
        residue and component count reads this one table.
        """
        table = {}
        for a, b in combinations(range(4), 2):
            ia, ib = self.involutions[a], self.involutions[b]
            label = [-1] * self.vertex_count
            count = 0
            for start in range(self.vertex_count):
                if label[start] >= 0:
                    continue
                # walk the cycle through start, alternating colours a and b
                v = start
                while label[v] < 0:
                    label[v] = count
                    w = ia[v]
                    label[w] = count
                    v = ib[w]
                count += 1
            table[(a, b)] = (label, count)
        return table

    @cached_property
    def _residues(self) -> dict:
        """Missing colour -> number of 3-residues on the other three colours.

        Empty at first; _residue_count fills one entry per missing colour on
        first use, so each union-find runs at most once per graph and a
        non-gem is counted only up to its first failing colour.
        """
        return {}


class LMParams(checked_namedtuple("LMParams", "n p q c cprime")):
    """Parameters (n, p, q, c, c') of the generalized family: q reduced mod 2p,
    c and c' mod n, gcd(p, q) = 1 and gcd(n, c, c') = 1.  The default c' = 1
    is the Lins-Mandel family G(n, p, q, c)."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int, c: int, cprime: int = 1):
        if n < 1 or p < 1:
            raise ValueError("n and p must be positive")
        if gcd(p, q) != 1:
            raise ValueError("gcd(p, q) must be 1")
        if gcd(n, gcd(c, cprime)) != 1:
            raise ValueError("gcd(n, c, c') must be 1")
        return tuple.__new__(cls, (n, p, q % (2 * p), c % n, cprime % n))


def eta(j: int, p: int) -> int:
    """+1 on residues 1..p mod 2p, -1 on the rest (so eta(0) = -1)."""
    return 1 if 1 <= j % (2 * p) <= p else -1


def _build(params: LMParams) -> ColouredGraph:
    n, p, q, c, cp = params.n, params.p, params.q, params.c, params.cprime
    width = 2 * p
    sign = [eta(j, p) for j in range(width)]
    # each colour moves vertex (i, j) to (i + shift_j, column_j)
    moves = (
        [(c * sign[(j - q) % width], (1 - j + 2 * q) % width) for j in range(width)],
        [(cp * sign[j], (1 - j) % width) for j in range(width)],
        [(0, (j + (-1) ** j) % width) for j in range(width)],
        [(0, (j - (-1) ** j) % width) for j in range(width)],
    )
    return ColouredGraph(tuple(
        tuple(((i + shift) % n) * width + col for i in range(n) for shift, col in move)
        for move in moves))


def build_lins_mandel(params: LMParams) -> ColouredGraph:
    """G(n, p, q, c) on Z_n x Z_2p with the four standard involutions."""
    return _build(params)


def build_generalized(params: LMParams) -> ColouredGraph:
    """Same as build_lins_mandel; colour 1 shifts columns by c'."""
    return _build(params)


def _classes(size: int, pairs) -> list:
    """Representative of each of 0..size-1 once every pair is identified."""
    parent = list(range(size))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        parent[x] = y
    for v in range(size):
        # point every id straight at its root
        while parent[parent[v]] != parent[v]:
            parent[v] = parent[parent[v]]
    return parent


def _cycle_classes(g: ColouredGraph, first: tuple, second: tuple) -> int:
    """Number of classes of the cycles of two colour pairs, joined wherever
    they share a vertex: the components of the graph on those colours when
    every edge lies in a cycle of one pair or the other."""
    one, m = g._cycles[first]
    two, k = g._cycles[second]
    return len(set(_classes(m + k, zip(one, (m + y for y in two)))))


def _residue_count(g: ColouredGraph, missing: int) -> int:
    """Number of components of the graph on the three colours other than
    missing.  With kept colours a < b < c, every edge of such a component
    lies in an ab-cycle or a bc-cycle."""
    counts = g._residues
    if missing not in counts:
        a, b, c = (x for x in range(4) if x != missing)
        counts[missing] = _cycle_classes(g, (a, b), (b, c))
    return counts[missing]


def is_gem(g: ColouredGraph) -> bool:
    """True iff every 3-residue is a 2-sphere.

    For a component R of the graph on three colours, the represented surface
    has Euler characteristic (#bicoloured cycles inside R) - |R|/2, at most 2
    and equal to 2 exactly for the sphere.  So every residue is a sphere iff,
    summed over the residues of one missing colour, the cycles less V/2 come
    to twice the number of residues.  This is the oracle the closed-form
    criterion is validated against.
    """
    return _is_gem(g)


def _is_gem(g: ColouredGraph) -> bool:
    # is_crystallization calls this, not is_gem, so that a wrapped is_gem
    # counts only its callers' own gem tests
    for missing in range(4):
        kept = tuple(c for c in range(4) if c != missing)
        cycles = sum(g._cycles[pair][1] for pair in combinations(kept, 2))
        if cycles - g.vertex_count // 2 != 2 * _residue_count(g, missing):
            return False
    return True


def gem_closed_form(params: LMParams) -> bool:
    """Arithmetic gem criterion: p even, a vanishing shift, or c = (-1)^q c'."""
    n, cp = params.n, params.cprime
    if params.p % 2 == 0:
        return True
    if params.c == 0 or cp == 0:
        return True
    return (params.c - (-1) ** params.q * cp) % n == 0


def is_crystallization(g: ColouredGraph) -> bool:
    """True iff deleting any one colour leaves the graph connected."""
    if not _is_gem(g):
        raise ValueError("graph has a non-spherical 3-residue")
    return all(_residue_count(g, missing) == 1 for missing in range(4))


def represented_covering(params: LMParams):
    """The 2-bridge link and covering spec a gem's manifold realizes.

    Returns SPHERE for the degenerate ranges (p = 1 or a vanishing shift);
    otherwise (b(p, q), spec) where the exponents are c' (links only) and -c
    taken mod n.
    """
    if not gem_closed_form(params):
        raise ValueError("parameters fail the gem criterion")
    n, cp = params.n, params.cprime
    if params.p == 1 or params.c == 0 or cp == 0:
        return SPHERE
    t = normalize(params.p, params.q)
    if t.is_knot:
        return t, CoveringSpec(n, (-params.c % n,))
    return t, CoveringSpec(n, (cp, -params.c % n))


def _rooted_match(pairs: tuple, w0: int) -> bool:
    # a colour-respecting map is forced once one vertex image is chosen;
    # pairs holds, per colour, the involution of g1 and its image in g2
    image = [-1] * len(pairs[0][0])
    image[0] = w0
    stack = [0]
    while stack:
        v = stack.pop()
        x = image[v]
        for inv1, inv2 in pairs:
            u = inv1[v]
            w = inv2[x]
            if image[u] == -1:
                image[u] = w
                stack.append(u)
            elif image[u] != w:
                return False
    return len(set(image)) == len(image)


def graph_isomorphic(g1: ColouredGraph, g2: ColouredGraph,
                     allow_colour_permutation: bool = False) -> bool:
    """Exact isomorphism decision by propagating rooted correspondences."""
    if g1.vertex_count != g2.vertex_count:
        return False
    if g1.vertex_count > 200:
        raise ValueError("brute-force isomorphism capped at 200 vertices")
    sigmas = permutations(range(4)) if allow_colour_permutation else ((0, 1, 2, 3),)
    for sigma in sigmas:
        pairs = tuple(zip(g1.involutions, (g2.involutions[c] for c in sigma)))
        for w0 in range(g2.vertex_count):
            if _rooted_match(pairs, w0):
                return True
    return False


def lm_isomorphic_closed_form(a: LMParams, b: LMParams) -> bool:
    """Isomorphism of G(n,p,q,c) graphs decided arithmetically (n, p > 2).

    For even p the answer depends on gcd(n, c): q' must be +-q^{+-1} mod 2p
    with c' = c (or c^{+-1} in the coprime case), or that shifted by p with
    c' negated.  For odd p the criterion is stated only on the gem range
    c = (-1)^q, where it reads q' = +-q^{+-1} mod p.  The conditions are
    stated for c' = 1 only.
    """
    if a.n <= 2 or a.p <= 2 or b.n <= 2 or b.p <= 2:
        raise OutOfRange("isomorphism conditions require n, p > 2")
    if a.cprime != 1 or b.cprime != 1:
        raise OutOfRange("isomorphism conditions are stated for c' = 1")
    if b.n != a.n or b.p != a.p:
        return False
    n, p = a.n, a.p
    if p % 2 == 0:
        qinv = pow(a.q, -1, 2 * p)
        plain = {x % (2 * p) for x in (a.q, -a.q, qinv, -qinv)}
        shifted = b.q in {(x + p) % (2 * p) for x in plain}
        if gcd(n, a.c) != 1:
            return (b.q in plain and b.c == a.c) or (shifted and b.c == -a.c % n)
        cs = {a.c, pow(a.c, -1, n)}
        return (b.q in plain and b.c in cs) or (shifted and b.c in {-x % n for x in cs})
    if a.c != (-1) ** a.q % n or b.c != (-1) ** b.q % n:
        raise OutOfRange("odd p conditions are stated only for c = (-1)^q")
    qinv = pow(a.q, -1, p)
    return b.q % p in {x % p for x in (a.q, -a.q, qinv, -qinv)}


def heegaard_genus(g: ColouredGraph, pairing) -> int:
    """Genus of the surface split along a cyclic colour order.

    chi sums the bicoloured cycle counts of the four adjacent colour pairs
    and subtracts the vertex count; the genus is 1 - chi/2.
    """
    if sorted(pairing) != [0, 1, 2, 3]:
        raise ValueError("pairing must be a cyclic order of all four colours")
    chi = -g.vertex_count
    for i in range(4):
        a, b = pairing[i], pairing[(i + 1) % 4]
        chi += g._cycles[(min(a, b), max(a, b))][1]
    if chi % 2:
        raise ValueError("odd Euler characteristic %d" % chi)
    return 1 - chi // 2

