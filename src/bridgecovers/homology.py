"""First homology of covering manifolds by several independent routes.

Each route computes H_1 of the same covering from different raw material:
Smith normal form of an abelianized presentation, the arithmetic closed
forms, or the order |Res(Delta, t^n - 1)| of the torsion subgroup.  All
arithmetic is exact; disagreement between routes is reported as data.
"""

from math import gcd

from .covering import CoveringSpec, _check_components, lens_recognize, torus_signs
from .polyhedral import build_minkus, schema_presentation
from .presentations import (
    alexander_polynomial,
    minkus_presentation,
    mu3_presentation,
    takahashi_word,
)
from .two_bridge import TwoBridge, even_cf_expand, is_genus_one, mirror, reorient_component
from .values import checked_namedtuple
from .words import CyclicPresentation, LaurentPolynomial, Presentation


class IntMatrix(checked_namedtuple("IntMatrix", "cols entries")):
    """Sparse integer matrix: rows are dicts from column in range(cols) to nonzero entry."""

    __slots__ = ()

    def __new__(cls, cols: int, entries: list):
        keys = set().union(*entries)
        if not keys <= set(range(cols)) or not all(map(all, map(dict.values, entries))):
            raise ValueError("rows must map columns in range(%d) to nonzero entries" % cols)
        return tuple.__new__(cls, (cols, entries))

    @property
    def rows(self) -> int:
        return len(self.entries)


class AbelianGroup(checked_namedtuple("AbelianGroup", "rank torsion")):
    """rank copies of Z plus cyclic factors in a divisibility chain."""

    __slots__ = ()

    def __new__(cls, rank: int, torsion: tuple):
        if rank < 0:
            raise ValueError("negative rank")
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
            if i and d % torsion[i - 1]:
                raise ValueError("torsion is not a divisibility chain")
        return tuple.__new__(cls, (rank, torsion))

    def order(self):
        """Group order, or None when the rank part makes it infinite."""
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z_%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _chain(xs) -> list:
    """Invariant factors of positive integers: same length and product, each
    dividing the next.  Replacing every pair i < j, in order, by (gcd, lcm)
    keeps each prime's multiset of exponents and leaves entry i dividing
    every later one, so one pass suffices."""
    xs = list(xs)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            x, y = xs[i], xs[j]
            if y % x:
                g = gcd(x, y)
                xs[i], xs[j] = g, x * y // g
    return xs


def smith_normal_form(m: IntMatrix) -> tuple:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    One sparse elimination with Euclidean pivot steps (Cohen, GTM 138,
    2.4) on copies of the sparse rows of ``m``.  A new pivot p is the +-1
    in the lowest column of the first shortest row holding one, or else
    the least entry of the shortest row: short rows limit fill-in.  Every
    pivot reduces its column c by q = f // p on each other row holding f
    in c.  A unit pivot leaves no remainder, so its row leaves at once as
    a diagonal 1; otherwise the least remainder left, on the shortest row,
    is the next pivot.  Once column c is clear but for p, the column
    operations that reduce the pivot row mod p change that row alone: it
    leaves as the diagonal entry |p|, or its least entry left is the next
    pivot.  |p| falls until a row leaves, so the loop ends.  Equal least
    entries go to the lowest column, so every choice follows the order and
    contents of the rows, not the order of their keys.
    The 1s are counted and skip the quadratic ``_chain``.
    """
    rows = [dict(r) for r in m.entries if r]
    ones, diagonal, top = 0, [], None
    while rows or top:
        if top is None:
            piv = size = None
            for i, r in enumerate(rows):
                if (piv is None or len(r) < size) and (1 in r.values() or -1 in r.values()):
                    piv, size = i, len(r)
            if piv is None:
                top = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
                c, p = min(top.items(), key=lambda e: (abs(e[1]), e[0]))
            else:
                top = rows.pop(piv)
                c = min(j for j, x in top.items() if x == 1 or x == -1)
                p = top[c]
        nxt, emptied = None, False
        for r in rows:
            f = r.get(c)
            if f:
                q = f // p
                if q:
                    for j, x in top.items():
                        y = r.get(j, 0) - q * x
                        if y:
                            r[j] = y
                        else:
                            del r[j]
                    emptied = emptied or not r
                f -= q * p
                if f and (nxt is None or (abs(f), len(r)) < low):
                    nxt, low = r, (abs(f), len(r))
        if emptied:
            rows = [r for r in rows if r]
        if p == 1 or p == -1:
            ones += 1
            top = None
        elif nxt:
            i = rows.index(nxt)  # a row equal to nxt serves as well
            rows[i], top = top, rows[i]
            p = top[c]
        else:
            rest = {j: x % p for j, x in top.items() if x % p}
            if rest:
                top = {c: p, **rest}
                c, p = min(rest.items(), key=lambda e: (abs(e[1]), e[0]))
            else:
                diagonal.append(abs(p))
                top = None
    return (1,) * ones + tuple(_chain(diagonal))


def group_from_factors(rank: int, factors) -> AbelianGroup:
    """Canonical AbelianGroup from an arbitrary factor list (0 means Z)."""
    ds = []
    for f in factors:
        f = abs(int(f))
        if f == 0:
            rank += 1
        elif f > 1:
            ds.append(f)
    return AbelianGroup(rank, tuple(d for d in _chain(ds) if d > 1))


# abelianization key -> H_1, for the report that verify_consistency is
# building; None outside it, so h1 called on its own keeps nothing
_groups = None


def _families(p: CyclicPresentation) -> list:
    """(row, count) for each shift family of p that h1 reduces, the row
    being its word's exponent sums, ``FreeWord.abelianized``.

    A family of count 1 < n whose row is c(1, .., 1) is left out when p has
    no fixed generators and some family of count n has a nonzero entry sum
    s that divides c.  That family's n rows are the rotations of its row,
    which sum to s(1, .., 1), so the row left out is c / s times their sum
    and the cokernel does not change."""
    n = p.n
    table = [(w.abelianized(), count) for w, count in p.families]
    if p.fixed:
        return table
    sums = [s for s in (sum(row.values()) for row, count in table if count == n) if s]
    return [(row, count) for row, count in table
            if not (count == 1 < n and len(row) in (0, n)
                    and set(row.values()) <= {row.get(0, 0)}
                    and any(row.get(0, 0) % s == 0 for s in sums))]


def _abelian_key(n: int, families: list):
    """A key that cyclic presentations of degree n without fixed generators
    share when their ``_families`` rows agree up to row sign and order: n
    and one canonical row per family.  None when rotation by a family's
    count maps its row v to neither v nor -v.

    Otherwise the family's rows are the whole rotation orbit of v up to
    sign, and every rotation of +-v is a rotation by i < count of v or of
    -v.  Of those that put an occurrence of that vector's least entry
    (nonzero unless v = 0) at column 0, the least stands for the orbit.  So
    equal keys give the same cokernel."""
    canon = []
    for row, count in families:
        dense = [0] * n
        for c, e in row.items():
            dense[c] = e
        neg = [-x for x in dense]
        if count < n:
            turned = dense[n - count:] + dense[:n - count]
            if turned != dense and turned != neg:
                return None
        least = min(min(dense), min(neg))
        best = []
        for vec in (dense, neg):
            if least in vec:
                # the rotation by i puts column n - i of vec + vec at column 0
                vec = vec + vec
                best += [vec[c:c + n] for c in range(n - count + 1, n + 1) if vec[c] == least]
        canon.append(tuple(min(best)))
    canon.sort()
    return n, tuple(canon)


def h1(p: Presentation | CyclicPresentation) -> AbelianGroup:
    """Cokernel of the abelianized relator matrix; for a CyclicPresentation,
    of the rows of ``_families`` and their shifts.  While verify_consistency
    builds a report, cyclic presentations with one ``_abelian_key`` share
    one Smith normal form."""
    key = None
    if isinstance(p, CyclicPresentation):
        n, families = p.n, _families(p)
        if _groups is not None and not p.fixed:
            key = _abelian_key(n, families)
            if key in _groups:
                return _groups[key]
        # the shift by d rotates columns 0..n-1 by d and fixes the others
        rows = [{(j + d) % n if j < n else j: x for j, x in row.items()}
                for row, count in families for d in range(count)]
    else:
        rows = p.relator_matrix()
    factors = smith_normal_form(IntMatrix(p.generator_count, rows))
    group = AbelianGroup(p.generator_count - len(factors), tuple(d for d in factors if d > 1))
    if key is not None:
        _groups[key] = group
    return group


def even_alpha_params(alpha: int, n: int, k: int) -> tuple:
    """(s, d, h, m, a, b) for the covering M_{n,1,k} of b(alpha, 1)."""
    k %= n
    s = gcd(n, k)
    d = gcd(n, alpha * (k + 1) // 2)
    h = gcd(n, k + 1)
    m = gcd(d, s)
    a, rem = divmod(n * m, s * d)
    if rem:
        raise ValueError("n*m is not divisible by s*d")
    b, rem = divmod(alpha * h, 2 * d)
    if rem:
        raise ValueError("alpha*h is not divisible by 2*d")
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    return s, d, h, m, a, b


def _even_alpha_group(alpha: int, n: int, k: int) -> AbelianGroup:
    _, d, h, m, a, b = even_alpha_params(alpha, n, k)
    if h == 1:
        return group_from_factors(d - m, [a] * m)
    if h < m + 1:
        factors = [a] * (m - h + 1) + [a * b] * (h - 2) + [h * a * b]
        return group_from_factors(d + 1 - h - m, factors)
    factors = [b] * (h - 1 - m) + [a * b] * (m - 1) + [h * a * b]
    return group_from_factors(d + 1 - h - m, factors)


def genus_one_params(alpha: int, n: int) -> tuple:
    """(hg, aprime, asecond): the twist parameter and the two recurrence
    sequences of a genus-one knot, indexed from 1 (slot 0 unused)."""
    hg = (1 - alpha) // 4 if alpha % 4 == 1 else (1 + alpha) // 4
    aprime = [0, 1, 1]
    asecond = [0, 1, 1 - 2 * hg]
    for i in range(3, n + 1):
        aprime.append(aprime[i - 1] - hg * aprime[i - 2])
        asecond.append(asecond[i - 1] - hg * asecond[i - 2])
    return hg, tuple(aprime[:n + 1]), tuple(asecond[:n + 1])


def whitehead_factors(n: int) -> tuple:
    """Raw factor triple of the n-fold meridian-cyclic coverings of b(8,3)."""
    r = n % 6
    if r == 0:
        return (n // 6, n // 2, 12 * n)
    if r in (2, 4):
        return (n // 2, n // 2, 4 * n)
    if r == 3:
        return (n // 3, n, 3 * n)
    return (n, n, n)


def _is_whitehead(t: TwoBridge) -> bool:
    return t.alpha == 8 and t.beta % 8 in (3, 5)


def h1_closed_form(t: TwoBridge, spec: CoveringSpec):
    """The arithmetic value of H_1 when (t, spec) hits a covered case.

    Covered: beta = +-1 mod alpha (both parities of alpha); strictly-cyclic
    coverings of genus-one knots; knots with alpha = 2n*b +- 1 for some
    b = +-beta^(+-1) mod alpha; and the meridian-cyclic coverings of b(8,3)
    for n >= 3.  Returns None otherwise.
    """
    _check_components(t, spec)
    n = spec.n
    signs = torus_signs(t)
    if signs:
        if t.is_knot:
            d = gcd(n, t.alpha)
            if n % 2:
                return group_from_factors(0, [2] * (d - 1))
            return group_from_factors(d - 1, [t.alpha // d])
        k = spec.single
        if k is None:
            return None
        # (n; 1, k) here is (n; 1, s k) of b(alpha, 1)
        return _even_alpha_group(t.alpha, n, signs[0] * k % n)
    if t.is_knot and is_genus_one(t):
        _, aprime, asecond = genus_one_params(t.alpha, n)
        if n % 2 == 0:
            v = abs(aprime[n])
            return group_from_factors(0, [t.alpha * v, v])
        v = abs(asecond[n])
        return group_from_factors(0, [v, v])
    if t.is_knot:
        # b runs over the representatives of the knot and of its mirror
        b, inv = t.beta % t.alpha, pow(t.beta, -1, t.alpha)
        if any(abs(t.alpha - 2 * n * x) == 1 for x in (b, t.alpha - b, inv, t.alpha - inv)):
            if n % 2 == 0:
                return group_from_factors(0, [t.alpha])
            return AbelianGroup(0, ())
    if _is_whitehead(t) and n >= 3:
        if all(gcd(n, k) == 1 for k in spec.exponents):
            return group_from_factors(0, whitehead_factors(n))
    return None


def _trim(coeffs: list) -> list:
    """Drop trailing zero coefficients in place."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b over Z.

    Polynomials are coefficient lists, constant term first, with a nonzero
    last entry.
    """
    d, lead = len(b) - 1, b[-1]
    a = list(a)
    for k in range(len(a) - 1, d - 1, -1):
        top = a.pop()
        a = [lead * x for x in a]
        for i in range(d):
            a[k - d + i] -= top * b[i]
    return _trim(a)


def _abs_resultant(a: list, b: list) -> int:
    """|Res(a, b)| for integer polynomials with deg a > deg b >= 0, by the
    subresultant pseudo-remainder sequence (Cohen, GTM 138, Alg. 3.3.7).
    Every division is exact, and the coefficients stay as small as the
    subresultants."""
    ca, cb = gcd(*a), gcd(*b)
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            return 0
        a, b = b, [x // (g * h ** delta) for x in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1)
    return abs(scale * (b[0] ** (len(a) - 1) // h ** (len(a) - 2)))


def _power_mod(f: list, n: int) -> tuple:
    """(r, e) with lc(f)^e t^n = r mod f over Z, deg r < deg f, for deg f >= 1.

    n steps of r -> t r; a step whose product reaches degree deg f is
    reduced by f after scaling by lc(f), which raises e by one.
    """
    lead = f[-1]
    r, e = [1] + [0] * (len(f) - 2), 0
    for _ in range(n):
        top = r[-1]
        r = [0] + r[:-1]
        if top:
            r = [lead * x - top * y for x, y in zip(r, f)]
            e += 1
    return r, e


def order_via_resultant(delta: LaurentPolynomial, n: int):
    """|Res(Delta, t^n - 1)| exactly; 0 is reported as "infinite".

    Euclid's first step on t^n mod Delta: with a = lc(Delta), d = deg Delta
    and a^e t^n = r mod Delta, every root x of Delta has
    a^e (x^n - 1) = R(x) for R = r - a^e, so
    |Res(Delta, t^n - 1)| = |a|^(n - deg R - e d) |Res(Delta, R)|.
    That costs n steps on d coefficients and one resultant of degree d.
    """
    f = delta.coefficient_list()
    if not f:
        raise ValueError("zero polynomial has no resultant order")
    a = abs(f[-1])
    if len(f) == 1:
        return a ** n
    r, e = _power_mod(f, n)
    r[0] -= f[-1] ** e
    if not _trim(r):
        return "infinite"
    val = _abs_resultant(f, r) * a ** (n - len(r) + 1) // a ** (e * (len(f) - 1))
    return val if val else "infinite"


def _minkus(t, spec):
    # a link's Minkus presentation is its covering with exponents (1, 1)
    if t.is_knot or len(set(spec.exponents)) == 1:
        return {"group": h1(minkus_presentation(t, spec.n)).to_json()}


def _mu3(t, spec):
    k = spec.single
    if t.is_link and k is not None:
        return {"group": h1(mu3_presentation(t, spec.n, k)).to_json()}


def _takahashi(t, spec):
    if t.is_knot:
        return {"group": h1(takahashi_word(even_cf_expand(t), spec.n)).to_json()}


def _polyhedral_presentation(t: TwoBridge, n: int, k: int) -> CyclicPresentation:
    """The schema presentation of the covering (n; 1, k) of t."""
    # the schema wants 0 < q < alpha odd; reorienting a link component negates
    # its exponent, and the coverings of a knot's mirror have the same H_1
    if t.is_link and t.beta > t.alpha:
        t, k = reorient_component(t), -k % n
    if t.beta % t.alpha % 2 == 0:
        t = mirror(t)
    return schema_presentation(build_minkus(n, k, t.alpha, t.beta % t.alpha))


def _polyhedral(t, spec):
    k = spec.single
    if k is not None:
        return {"group": h1(_polyhedral_presentation(t, spec.n, k)).to_json()}


def _closed_form(t, spec):
    closed = h1_closed_form(t, spec)
    if closed is None:
        return None
    rec = {"group": closed.to_json()}
    if _is_whitehead(t) and spec.n >= 3:
        rec["raw_factors"] = list(whitehead_factors(spec.n))
    return rec


def _lens(t, spec):
    lens = lens_recognize(t, spec)
    if lens is not None:
        return {"group": group_from_factors(0, [lens[0]]).to_json()}


def _resultant(t, spec):
    if t.is_knot:
        return {"order": order_via_resultant(alexander_polynomial(t), spec.n)}


# every route verify_consistency can report, in report order; each maps
# (t, spec) to its record, or to None when it does not apply, and calls the
# public functions through this module's globals so that rebinding reaches it
ROUTES = {"minkus": _minkus, "mu3": _mu3, "takahashi": _takahashi,
          "polyhedral": _polyhedral, "closed_form": _closed_form,
          "lens": _lens, "resultant": _resultant}


def verify_consistency(t: TwoBridge, spec: CoveringSpec, names=ROUTES) -> dict:
    """Compute H_1 by each named route that applies, and compare.

    Returns a JSON-ready report with one record per route, in ROUTES order;
    disagreement sets "agree" to False rather than raising, and fewer than
    two routes to compare set it to None.  An unknown name is a ValueError.
    """
    unknown = sorted(set(names) - set(ROUTES))
    if unknown:
        raise ValueError("unknown route %s; valid routes: %s"
                         % (", ".join(map(repr, unknown)), ", ".join(ROUTES)))
    _check_components(t, spec)
    global _groups
    _groups = {}
    routes = []
    try:
        for name, route in ROUTES.items():
            if name in names:
                rec = route(t, spec)
                if rec is not None:
                    routes.append({"route": name, **rec})
    finally:
        _groups = None
    return {
        "link": str(t),
        "alpha": t.alpha,
        "beta": t.beta,
        "degree": spec.n,
        "exponents": list(spec.exponents),
        "routes": routes,
        "agree": routes_agree(routes),
    }


def consensus_group(report):
    """The group that the group routes of a verify_consistency report give,
    as JSON; None when they disagree or none of them applies."""
    groups = [r["group"] for r in report["routes"] if "group" in r]
    return groups[0] if groups and report["agree"] is not False else None


def routes_agree(routes):
    """True iff the group routes give one group and every order route gives
    its order ("infinite" for positive rank); None, for unverified, when
    fewer than two routes give a group or an order to compare."""
    groups = [r["group"] for r in routes if "group" in r]
    orders = [r["order"] for r in routes if "order" in r]
    if len(groups) + len(orders) < 2:
        return None
    if not groups:
        return all(o == orders[0] for o in orders)
    if any(g != groups[0] for g in groups[1:]):
        return False
    expected = AbelianGroup(groups[0]["rank"], tuple(groups[0]["torsion"])).order()
    if expected is None:
        expected = "infinite"
    return all(o == expected for o in orders)
