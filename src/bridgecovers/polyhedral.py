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


def _semicircle(s: MinkusSchema, i: int) -> list:
    """Vertex ids at heights 0..p on semicircle i (mod n): N, v(i,1..p-1), S."""
    first = 2 + (i % s.n) * (s.p - 1)
    return [0, *range(first, first + s.p - 1), 1]


def _faces(s: MinkusSchema) -> list:
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

    Going around an edge class crosses one face pair per step: from the slot
    holding a directed edge to its partner slot, then on along the partner's
    edge reversed.  Each edge lies in exactly two slots, so this cycle covers
    its whole class, and the reversed directed edges form the reverse cycle.
    """
    faces = _faces(s)
    n, q = s.n, s.q
    directed = 2 * s.edge_count
    assert len({de for _, slots in faces for de in slots}) == directed

    nxt = [0] * directed
    letter = [None] * directed
    vertex_pairs = []
    for i in range(n):
        l = (i - s.pairing_shift) % n
        (nverts, nslots), (sverts, sslots) = faces[2 * i], faces[2 * l + 1]
        forward, backward = (i + 1, +1), (i + 1, -1)
        # anchor: north position q (the marked vertex) maps to south position 0;
        # the slots after each run on in opposite directions
        for a, b in zip(nslots[q:] + nslots[:q], sslots[::-1]):
            nxt[a], nxt[b] = b ^ 1, a ^ 1
            letter[a], letter[b] = forward, backward
        vertex_pairs += zip(nverts[q:] + nverts[:q], sverts[:1] + sverts[:0:-1])
    vertex_class = _classes(s.vertex_count, vertex_pairs)

    # one relator per edge class: walk each cycle from its first directed
    # edge in slot order, and retire its reverse with it
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

