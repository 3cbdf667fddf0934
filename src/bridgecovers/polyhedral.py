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

from .words import CyclicPresentation, FreeWord


class CellComplexCounts(namedtuple("CellComplexCounts", "t0 t1 t2 t3")):
    __slots__ = ()

    @property
    def chi(self) -> int:
        return self.t0 - self.t1 + self.t2 - self.t3


class MinkusSchema(namedtuple("MinkusSchema", "n p q k pairing_shift")):
    # no __slots__: the cached gluing lives in the instance dict

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


class _Gluing(namedtuple("_Gluing", "t0 families")):
    """The quotient of a schema under R_i -> R'_{i - shift}, read up to the
    rotation i -> i+1: the number of vertex classes, and for each rotation
    orbit of edge classes a (relator, orbit size) family whose shifts by
    0 .. size-1 are the relators of the orbit's classes."""

    __slots__ = ()


def _glue(s: MinkusSchema) -> _Gluing:
    """Pair the faces orientation-reversingly and read off the quotient.

    The rotation i -> i+1 of the ball maps the face pair R_i <-> R'_{i-shift}
    to the next one, so only R_0 <-> R'_{-shift} is glued.  A directed edge
    is (representative, offset): representative 2t + d is segment t of a
    semicircle, from height t to t+1, run along it (d = 0) or against it
    (d = 1), and 2p + d is the arc from height q on a semicircle to height
    p-q on the next; the offset is the index of the (first) semicircle.  A
    vertex is (height, offset), N at height 0 and S at height p, both fixed
    by the rotation.  Going from N, R_i meets semicircle i down to the arc
    and semicircle i+1 back up; R'_i meets semicircle i from the arc down to
    S, semicircle i+1 back up, and the arc backwards.

    R_i is glued to R'_l, l = i - shift: its slot at position (q+m) mod (p+1)
    (the marked vertex is position q) to the slot of R'_l at position p - m,
    and its vertex there to the vertex of R'_l at position (p+1-m) mod (p+1).
    Going around an edge class crosses one face pair per step: from the slot
    holding a directed edge to its partner slot, then on along the partner's
    edge reversed.  Each directed edge lies in exactly one slot, so the walk
    from (e, 0) covers its whole class, and the reversed directed edges form
    the reverse cycle.  The walk from (e, c) is that walk rotated by c, so
    the class's orbit under the rotation has gcd(n, c) classes, c over the
    offsets at which the walk meets e in either direction.
    """
    n, p, q, shift = s.n, s.p, s.q, s.pairing_shift
    r, arc = p - q, 2 * p
    # the slots of R_0 from the marked vertex's position q on, against those
    # of R'_{-shift} from position p back, as (representative, offset).  From
    # the edge in a slot the walk goes on along the partner's edge reversed,
    # and reads generator i+1 of the pair R_i <-> R'_{i-shift} that holds the
    # slot: i is the edge's offset less the slot's
    north = [(arc, 0), *((2 * t + 1, 1) for t in range(r - 1, -1, -1)),
             *((2 * t, 0) for t in range(q))]
    south = [(arc + 1, -shift), *((2 * t + 1, 1 - shift) for t in range(r, p)),
             *((2 * t, -shift) for t in range(p - 1, q - 1, -1))]
    cross = [None] * (2 * p + 2)
    for (a, oa), (b, ob) in zip(north, south):
        cross[a] = (b ^ 1, ob - oa, oa, 1)
        cross[b] = (a ^ 1, oa - ob, ob, -1)
    # each representative lies in exactly one of the 2(p+1) slots
    assert None not in cross

    # one family per orbit of edge classes, walked from the first
    # representative it has not met, in either direction, at offset 0
    families = []
    seen = [False] * (2 * p + 2)
    for e0 in range(0, 2 * p + 2, 2):
        if seen[e0]:
            continue
        rel, size = [], n
        e, off = e0, 0
        while True:
            seen[e] = seen[e ^ 1] = True
            if e >> 1 == e0 >> 1:
                size = gcd(size, off)
            e, step, base, sign = cross[e]
            rel.append(((off - base) % n + 1, sign))
            off = (off + step) % n
            if e == e0 and off == 0:
                break
        families.append((FreeWord(rel), size))

    # vertex classes: a union-find over the heights that carries offsets,
    # (v, c) ~ (parent[v], c + lift[v]); a cycle of offset c makes its class
    # invariant under rotation by c, and a class with a pole under all of them
    parent, lift = list(range(p + 1)), [0] * (p + 1)
    orbit = [1] + [n] * (p - 1) + [1]
    # the vertices of the pair: the north ones from position q on (N at
    # m = r+1), the south ones at position 0 and then from p back (S at m = q+1)
    north = [(q, 0), *((h, 1) for h in range(r, 0, -1)), (0, 0),
             *((h, 0) for h in range(1, q))]
    south = [(q, -shift), *((h, 1 - shift) for h in range(r, p)), (p, 0),
             *((h, -shift) for h in range(p - 1, q, -1))]
    for (u, a), (v, b) in zip(north, south):
        # to the roots; the finds of a gluing walk fewer than p links in all
        # (every odd q coprime to p <= 400), so the paths are not compressed
        while parent[u] != u:
            a += lift[u]
            u = parent[u]
        while parent[v] != v:
            b += lift[v]
            v = parent[v]
        if u == v:
            orbit[u] = gcd(orbit[u], b - a)
        else:
            parent[u], lift[u] = v, b - a
            orbit[v] = gcd(orbit[v], orbit[u])
    t0 = sum(orbit[v] for v in range(p + 1) if parent[v] == v)
    return _Gluing(t0, tuple(families))


def quotient_counts(s: MinkusSchema) -> CellComplexCounts:
    """Cell counts of the identification space."""
    g = s._gluing
    t1 = sum(count for _, count in g.families)
    return CellComplexCounts(g.t0, t1, s.n, 1)


def schema_presentation(s: MinkusSchema) -> CyclicPresentation:
    """Fundamental-group presentation: one generator per face pair, one
    relator per edge class, read around the edge; the rotation shifts the
    generators and permutes the relators of each orbit of edge classes."""
    counts = quotient_counts(s)
    if counts.chi != 0:
        raise ValueError("chi = %d" % counts.chi)
    return CyclicPresentation(s.n, s._gluing.families)

