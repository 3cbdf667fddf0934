"""4-coloured graphs encoding closed orientable 3-manifolds.

The Lins-Mandel family G(n, p, q, c) and its generalization carry four
fixed-point-free involutions on Z_n x Z_2p: the n-fold lift of a graph on
Z_2p whose edges carry shifts in Z_n, on which cycles and residues are
counted.  Checking that every 3-residue is a 2-sphere decides whether the
graph is a gem, i.e. whether the associated pseudocomplex is a manifold.
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
_KEPT = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # kept when colour 0, 1, 2 or 3 is missing


class ColouredGraph(checked_namedtuple("ColouredGraph", "base n shifts")):
    """Connected 4-regular graph: the n-fold lift of a base graph on 0..B-1
    given by four fixed-point-free involutions, base[c][v] the endpoint of
    the c-coloured edge at v, whose edges carry antisymmetric shifts in Z_n.
    The lift joins i*B + v to ((i + shifts[c][v]) mod n)*B + base[c][v]; with
    n = 1 and no shifts it is the base.  Parallel edges are allowed."""

    # no __slots__: the cached properties below live in the instance dict

    def __new__(cls, base: tuple, n: int = 1, shifts: tuple = None):
        if len(base) != 4:
            raise ValueError("need exactly four involutions")
        v_count = len(base[0])
        if v_count == 0 or v_count % 2:
            raise ValueError("vertex count must be positive and even")
        if n < 1:
            raise ValueError("degree must be positive")
        shifts = tuple(tuple([s % n for s in shift])
                       for shift in (((0,) * v_count,) * 4 if shifts is None else shifts))
        for c, (inv, shift) in enumerate(zip(base, shifts, strict=True)):
            if len(inv) != v_count or len(shift) != v_count:
                raise ValueError("involution %d acts on a different vertex set" % c)
            for v, w in enumerate(inv):
                # a shift that w does not undo breaks the lifted involution at v
                if w == v or not 0 <= w < v_count or inv[w] != v or (shift[v] + shift[w]) % n:
                    raise ValueError(("colour %d fixes vertex %d" if w == v else
                                      "colour %d is not an involution at vertex %d") % (c, v))
        graph = tuple.__new__(cls, (tuple(map(tuple, base)), n, shifts))
        if _components(graph, (0, 1), (2, 3)) != 1:
            raise ValueError("graph is not connected")
        return graph

    @property
    def vertex_count(self) -> int:
        return self.n * len(self.base[0])

    @cached_property
    def involutions(self) -> tuple:
        """The lift's four involutions, built on first use (graph_isomorphic)."""
        n, size = self.n, len(self.base[0])
        return tuple(tuple(((i + s) % n) * size + w for i in range(n) for s, w in zip(shift, inv))
                     for inv, shift in zip(self.base, self.shifts))

    @cached_property
    def _cycles(self) -> dict:
        """Colour pair (a < b) -> (the number and vertex count of the lifts of
        each base cycle, their total, and per vertex v its base cycle and the
        offset at which the walk from the cycle's first vertex reaches v).  A
        base cycle of L vertices whose shifts sum to s lifts to gcd(n, s)
        cycles of L*n / gcd(n, s) vertices.  Built with the graph and kept."""
        n, size = self.n, len(self.base[0])
        table = {}
        for a, b in combinations(range(4), 2):
            ia, ib, sa, sb = self.base[a], self.base[b], self.shifts[a], self.shifts[b]
            label, offset, cycles = [-1] * size, [0] * size, []
            for start in range(size):
                if label[start] >= 0:
                    continue
                # walk the cycle through start, alternating colours a and b
                v, k, at, length = start, len(cycles), 0, 0
                while label[v] < 0:
                    w = ia[v]
                    label[v] = label[w] = k
                    offset[v], offset[w] = at, at + sa[v]
                    at, length, v = at + sa[v] + sb[w], length + 2, ib[w]
                copies = gcd(n, at)
                cycles.append((copies, length * n // copies))
            table[(a, b)] = (tuple(cycles), sum(c for c, _ in cycles), label, offset)
        return table

    @cached_property
    def _residues(self) -> dict:
        """Missing colour -> number of 3-residues, filled by _residue_count."""
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


def _build(params: LMParams) -> ColouredGraph:
    """The base on the columns Z_2p; colour c moves (i, j) to (i + shifts[c][j], base[c][j])."""
    p, q, width = params.p, params.q, 2 * params.p
    cols, sign = range(width), [-1] + [1] * p + [-1] * (p - 1)  # eta on the columns
    # j + (-1)^j is j ^ 1, and j - (-1)^j is j - 1 + 2 (j mod 2)
    base = (tuple([(1 - j + 2 * q) % width for j in cols]), tuple([(1 - j) % width for j in cols]),
            tuple([j ^ 1 for j in cols]), tuple([(j - 1 + 2 * (j % 2)) % width for j in cols]))
    # colour 0 reads eta at j - q
    shifts = ([params.c * s for s in sign[width - q:] + sign[:width - q]],
              [params.cprime * s for s in sign], (0,) * width, (0,) * width)
    return ColouredGraph(base, params.n, shifts)


def build_lins_mandel(params: LMParams) -> ColouredGraph:
    """G(n, p, q, c) on Z_n x Z_2p with the four standard involutions."""
    return _build(params)


def build_generalized(params: LMParams) -> ColouredGraph:
    """Same as build_lins_mandel; colour 1 shifts columns by c'."""
    return _build(params)


def _components(g: ColouredGraph, pair: tuple, colours) -> int:
    """Number of components of the lift on the colours of pair and colours.

    A union-find over the base cycles of pair carries offsets: (i, v) lies on
    the lift of cycle label[v] at i - offset[v], and cycle k at j in the class
    of parent[k] at j + lift[k].  A class whose loops shift by multiples of g
    lifts to gcd(n, g) components."""
    cycles, _, label, offset = g._cycles[pair]
    orbit, m = [copies for copies, _ in cycles], len(cycles)
    parent, lift, weight = list(range(m)), [0] * m, [1] * m
    for c in colours:
        inv, shift = g.base[c], g.shifts[c]
        for x, y in enumerate(inv):
            if y < x:
                continue
            # (i, x) ~ (i + shift[x], y), read at the two roots
            u, a, v, b = label[x], -offset[x], label[y], shift[x] - offset[y]
            while parent[u] != u:
                a += lift[u]
                u = parent[u]
            while parent[v] != v:
                b += lift[v]
                v = parent[v]
            if u == v:
                orbit[u] = gcd(orbit[u], b - a)
                continue
            if weight[u] > weight[v]:
                u, a, v, b = v, b, u, a
            parent[u], lift[u] = v, b - a
            weight[v] += weight[u]
            orbit[v] = gcd(orbit[v], orbit[u])
    return sum(orbit[k] for k in range(m) if parent[k] == k)


def _residue_count(g: ColouredGraph, missing: int) -> int:
    """Number of components of the lift on the colours other than missing:
    the pair opposite it, and missing ^ 1.  A non-gem stops at its first
    failing colour, so each count is taken on first use."""
    counts = g._residues
    if missing not in counts:
        counts[missing] = _components(g, (2, 3) if missing < 2 else (0, 1), (missing ^ 1,))
    return counts[missing]


def is_gem(g: ColouredGraph) -> bool:
    """True iff every 3-residue is a 2-sphere.

    A component R of the graph on three colours represents a surface of
    Euler characteristic (#bicoloured cycles inside R) - |R|/2, at most 2
    and 2 exactly for the sphere.  So all are spheres iff, per missing
    colour, the cycles less V/2 come to twice the number of residues."""
    return _is_gem(g)


def _is_gem(g: ColouredGraph) -> bool:
    # is_crystallization calls this, not is_gem, so that a wrapped is_gem
    # counts only its callers' own gem tests
    table, half = g._cycles, g.vertex_count // 2
    for missing, (a, b, c) in enumerate(_KEPT):
        cycles = table[(a, b)][1] + table[(a, c)][1] + table[(b, c)][1]
        if cycles - half != 2 * _residue_count(g, missing):
            return False
    return True


def gem_closed_form(params: LMParams) -> bool:
    """Arithmetic gem criterion: p even, a vanishing shift, or c = (-1)^q c'."""
    c, cp = params.c, params.cprime
    return params.p % 2 == 0 or c == 0 or cp == 0 or (c - (-1) ** params.q * cp) % params.n == 0


def is_crystallization(g: ColouredGraph) -> bool:
    """True iff deleting any one colour leaves the graph connected."""
    if not _is_gem(g):
        raise ValueError("graph has a non-spherical 3-residue")
    return all(_residue_count(g, missing) == 1 for missing in range(4))


def represented_covering(params: LMParams):
    """The 2-bridge link and covering spec a gem's manifold realizes: SPHERE
    for the degenerate ranges (p = 1 or a vanishing shift), otherwise
    (b(p, q), spec) with the exponents c' (links only) and -c mod n."""
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
    # pairs holds, per colour, the involution of g1 and its image in g2.
    # The walk is breadth-first (queue read front to back as it grows): a
    # wrong root usually meets a bicoloured cycle through it of another
    # length in g2, and that conflict lies within a few rings of the root
    image = [-1] * len(pairs[0][0])
    image[0] = w0
    queue = [0]
    for v in queue:
        x = image[v]
        for inv1, inv2 in pairs:
            u = inv1[v]
            w = inv2[x]
            if image[u] == -1:
                image[u] = w
                queue.append(u)
            elif image[u] != w:
                return False
    # every vertex is set (g1 is connected), so the map is onto connected g2
    return True


def graph_isomorphic(g1: ColouredGraph, g2: ColouredGraph,
                     allow_colour_permutation: bool = False) -> bool:
    """Exact isomorphism decision by propagating rooted correspondences.

    Vertex 0 of g1 is sent to each vertex of g2 in turn, under each colour
    permutation allowed, and the images it forces are walked breadth-first
    until one conflicts, or until all are set."""
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
    for a, b in zip(pairing, (*pairing[1:], pairing[0])):
        chi += g._cycles[(min(a, b), max(a, b))][1]
    if chi % 2:
        raise ValueError("odd Euler characteristic %d" % chi)
    return 1 - chi // 2

