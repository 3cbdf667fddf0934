"""Face-paired ball schemata for cyclic branched coverings.

The boundary sphere of a ball is cut by n great semicircles from N to S,
each subdivided by p-1 vertices, and each lune is bisected by an arc from
the vertex q steps below N to the vertex q steps above S on the next
semicircle.  Identifying the northern region R_i of a lune with the
southern region R'_{i-k} (orientation reversing, anchored at the marked
vertices P_i -> P_{i-k}) yields a closed 3-manifold exactly when the Euler
characteristic of the quotient complex vanishes.

For p odd the branching set is a knot and all exponents k give the same
covering; the literal i-k matching is degenerate there (chi != 0 unless
k = +-1), so the complex is always built with the shift-1 pairing and the
requested k is only recorded.
"""

from collections import namedtuple
from functools import cached_property
from itertools import chain
from math import gcd

from .words import FreeWord, Presentation


class CellComplexCounts(namedtuple("CellComplexCounts", "t0 t1 t2 t3")):
    __slots__ = ()

    @property
    def chi(self) -> int:
        return self.t0 - self.t1 + self.t2 - self.t3


class MinkusSchema(namedtuple("MinkusSchema", "n p q k pairing_shift")):
    # no __slots__: the cached gluing lives in the instance dict

    @property
    def vertex_count(self) -> int:
        # poles plus p-1 subdivision points per semicircle
        return self.n * (self.p - 1) + 2

    @property
    def edge_count(self) -> int:
        return self.n * self.p + self.n

    @cached_property
    def _gluing(self) -> "_Gluing":
        # glued on first use and kept for the life of this (immutable) schema,
        # so counts and relators both read one gluing
        return _glue(self)


def build_minkus(n: int, k: int, p: int, q: int) -> MinkusSchema:
    if p < 2 or not 0 < q < p or gcd(p, q) != 1:
        raise ValueError("need 0 < q < p coprime, got p=%r q=%r" % (p, q))
    if q % 2 == 0:
        raise ValueError("q must be the odd representative, got %d" % q)
    if n < 2 or k % n == 0:
        raise ValueError("need degree n >= 2 and k nonzero mod n")
    shift = k % n if p % 2 == 0 else 1
    return MinkusSchema(n, p, q, k % n, shift)


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


class _Gluing(namedtuple("_Gluing", "vertex_class relators")):
    """The quotient of a schema under R_i -> R'_{i - shift}: the class of
    each vertex, and one relator per edge class as a tuple of (generator,
    sign) letters."""

    __slots__ = ()


def _glue(s: MinkusSchema) -> _Gluing:
    """Pair the faces orientation-reversingly and read off the quotient.

    Vertex 0 is N, 1 is S, and 1 + i*(p-1) + h is the point at height h on
    semicircle i.  Edge i*p + t runs up semicircle i from height t to t+1;
    edge n*p + i is the arc from height q on semicircle i to height p-q on
    i+1.  A slot holds the directed edge met there, numbered 2e along edge e
    and 2e + 1 against it.  Going from N, R_i meets semicircle i down to the
    arc and semicircle i+1 back up; R'_i meets semicircle i from the arc down
    to S, semicircle i+1 back up, and the arc backwards.

    R_i is glued to R'_l, l = i - shift: its slot at position (q+m) mod (p+1)
    (the marked vertex is position q) to the slot of R'_l at position p - m,
    and its vertex there to the vertex of R'_l at position (p+1-m) mod (p+1).
    Going around an edge class crosses one face pair per step: from the slot
    holding a directed edge to its partner slot, then on along the partner's
    edge reversed.  Each edge lies in exactly two slots, so this cycle covers
    its whole class, and the reversed directed edges form the reverse cycle.
    """
    n, p, q = s.n, s.p, s.q
    r, arc, up = p - q, 2 * n * p, p - 1
    directed = 2 * s.edge_count
    nxt = [-1] * directed
    letter = [None] * directed
    vertex_pairs = []
    for i in range(n):
        j, l = (i + 1) % n, (i - s.pairing_shift) % n
        lj = (l + 1) % n
        ni, nj, nl, nlj = 2 * i * p, 2 * j * p, 2 * l * p, 2 * lj * p
        forward, backward = (i + 1, +1), (i + 1, -1)
        # the north slots from the marked vertex's position q on, against
        # the south slots from position p back
        north = chain((arc + 2 * i,), range(nj + 2 * r - 1, nj, -2), range(ni, ni + 2 * q, 2))
        south = chain((arc + 2 * l + 1,), range(nlj + 2 * r + 1, nlj + 2 * p, 2),
                      range(nl + 2 * p - 2, nl + 2 * q - 2, -2))
        for a, b in zip(north, south):
            nxt[a], nxt[b] = b ^ 1, a ^ 1
            letter[a], letter[b] = forward, backward
        # their vertices: the north ones from position q on (N at m = r+1),
        # the south ones at position 0 and then from p back (S at m = q+1)
        vertex_pairs += zip(
            [1 + i * up + q, *range(1 + j * up + r, 1 + j * up, -1),
             0, *range(2 + i * up, 1 + i * up + q)],
            [1 + l * up + q, *range(1 + lj * up + r, 1 + lj * up + p),
             1, *range(l * up + p, 1 + l * up + q, -1)])
    # each directed edge lies in exactly one of the 2n(p+1) slots
    assert -1 not in nxt and None not in letter
    vertex_class = _classes(s.vertex_count, vertex_pairs)

    # one relator per edge class: walk each cycle from its first directed
    # edge in slot order (R_0, R'_0, R_1, ...), and retire its reverse with it
    relators = []
    seen = [False] * directed
    for i in range(n):
        ni, nj = 2 * i * p, 2 * ((i + 1) % n) * p
        for de0 in chain(range(ni, ni + 2 * q, 2), (arc + 2 * i,),
                         range(nj + 2 * r - 1, nj, -2),
                         range(ni + 2 * q, ni + 2 * p, 2),
                         range(nj + 2 * p - 1, nj + 2 * r, -2), (arc + 2 * i + 1,)):
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
    return _Gluing(vertex_class, relators)


def quotient_counts(s: MinkusSchema) -> CellComplexCounts:
    """Cell counts of the identification space."""
    g = s._gluing
    t0, t1 = len(set(g.vertex_class)), len(g.relators)
    t2, t3 = s.n, 1
    return CellComplexCounts(t0, t1, t2, t3)


def schema_presentation(s: MinkusSchema) -> Presentation:
    """Fundamental-group presentation: one generator per face pair, one
    relator per edge class, read around the edge."""
    counts = quotient_counts(s)
    if counts.chi != 0:
        raise ValueError("chi = %d" % counts.chi)
    return Presentation(s.n, tuple(FreeWord(rel) for rel in s._gluing.relators))

