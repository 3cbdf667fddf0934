"""Cyclic branched coverings M_{n, k_1..k_v} of 2-bridge knots and links.

Covers the covering taxonomy (strictly / almost-strictly / meridian / singly /
monodromy-cyclic), equivalence and homeomorphism predicates, geometric
structure labels and Heegaard genus bounds.
"""

from collections import namedtuple
from enum import Enum
from math import gcd

from .two_bridge import TwoBridge, equivalent, normalize
from .values import checked_namedtuple


class CoveringSpec(checked_namedtuple("CoveringSpec", "n exponents")):
    """Degree n plus branching exponents, one per component of the link.

    Exponents are nonzero residues mod n generating Z_n, stored in [1, n-1].
    """

    __slots__ = ()

    def __new__(cls, n: int, exponents: tuple):
        if n < 2:
            raise ValueError("degree must be at least 2")
        if not exponents:
            raise ValueError("need at least one exponent")
        if any(k % n == 0 for k in exponents):
            raise ValueError("exponents must be nonzero mod n")
        exponents = tuple(k % n for k in exponents)
        if gcd(n, *exponents) != 1:
            raise ValueError("exponents do not generate Z_%d" % n)
        return tuple.__new__(cls, (n, exponents))

    @property
    def nu(self) -> int:
        return len(self.exponents)

    @property
    def single(self):
        """k of the normal form (n; 1, k): a knot's own exponent, or a link's
        other exponent over its first unit mod n; None if neither is a unit."""
        if self.nu == 1:
            return self.exponents[0]
        for a, b in (self.exponents, self.exponents[::-1]):
            if gcd(self.n, a) == 1:
                return pow(a, -1, self.n) * b % self.n
        return None


class CoveringClass(namedtuple("CoveringClass", "strictly almost_strictly meridian singly")):
    __slots__ = ()


class GeometryType(Enum):
    hyperbolic = "hyperbolic"
    euclidean = "euclidean"
    spherical = "spherical"
    nil = "nil"
    sl2r = "sl2r"
    undetermined = "undetermined"


class GenusBounds(namedtuple("GenusBounds", "general braid symmetric", defaults=(None, None))):
    """Upper bounds on the Heegaard genus; braid and symmetric are None
    where the covering has no such bound."""

    __slots__ = ()


def _check_components(t: TwoBridge, spec: CoveringSpec):
    want = 1 if t.is_knot else 2
    if spec.nu != want:
        raise ValueError("%s has %d component(s), spec has %d exponent(s)"
                         % (t, want, spec.nu))


def classify(spec: CoveringSpec) -> CoveringClass:
    """Covering taxonomy flags from the branching exponents."""
    n, ks = spec.n, spec.exponents
    strictly = len(set(ks)) == 1
    almost = len({frozenset((k, (-k) % n)) for k in ks}) == 1
    merid = all(gcd(n, k) == 1 for k in ks)
    singly = any(gcd(n, k) == 1 for k in ks)
    return CoveringClass(strictly, almost, merid, singly)


def torus_signs(t: TwoBridge) -> tuple:
    """Signs s that make (n; k, s k) strictly cyclic on a torus knot or link:
    (1,) for b(alpha, +-1); (-1,) for the link b(alpha, alpha +- 1), which is
    b(alpha, 1) with one component reversed; both for Hopf; () for the rest."""
    a, b = t.alpha, t.beta
    if t.is_knot:
        return (1,) if b % a in (1, a - 1) else ()
    return tuple(s for s, bs in ((1, (1, 2 * a - 1)), (-1, (a - 1, a + 1))) if b in bs)


def covering_equivalent(t: TwoBridge, s1: CoveringSpec, s2: CoveringSpec) -> bool:
    """Sufficient-condition test for equivalence of two coverings of a link.

    Both specs must be in singly-cyclic normal form (n; 1, k).  True means a
    listed condition certifies the equivalence (k' = k, or k k' = 1 mod n, or
    the reorientation move k -> -k when beta^2 = alpha +- 1 mod 2 alpha);
    False means no condition applies, not that the coverings differ.
    """
    if s1.n != s2.n:
        raise ValueError("specs have different degrees")
    for s in (s1, s2):
        if s.nu != 2 or s.exponents[0] != 1:
            raise ValueError("expected normal form (n; 1, k), got %r" % (s.exponents,))
    if not t.is_link:
        raise ValueError("%s is not a link" % (t,))
    n = s1.n
    k, k2 = s1.exponents[1], s2.exponents[1]
    if k2 == k or (k * k2) % n == 1:
        return True
    if (t.beta * t.beta) % (2 * t.alpha) in (t.alpha + 1, t.alpha - 1):
        if k2 == (-k) % n or (k * k2) % n == n - 1:
            return True
    return False


def hyperbolic_homeomorphic(t: TwoBridge, n: int, k: int, k2: int) -> bool:
    """Exact homeomorphism test for meridian-cyclic coverings of a hyperbolic
    2-bridge link: k' = k^{+-1}, widened to k' = +-k^{+-1} when
    beta^2 = alpha +- 1 mod 2 alpha.  On unit exponents these are the
    conditions of covering_equivalent, which here are also necessary.  For a
    knot all exponents give the same covering, so the answer is True.
    """
    if torus_signs(t):
        kind = "knot" if t.is_knot else "link"
        raise ValueError("%s is a torus %s; hyperbolic_homeomorphic needs a hyperbolic %s"
                         % (t, kind, kind))
    if gcd(n, k) != 1 or gcd(n, k2) != 1:
        raise ValueError("exponents %d, %d not coprime to %d" % (k, k2, n))
    if t.is_knot:
        return True
    return covering_equivalent(t, CoveringSpec(n, (1, k)), CoveringSpec(n, (1, k2)))


def geometry(t: TwoBridge, spec: CoveringSpec) -> GeometryType:
    """Geometric structure label, where the classification decides one.

    Coverings that torus_signs makes strictly cyclic on a torus knot or link
    split by the sign of 1/n + 1/alpha - 1/2; non-toroidal meridian-cyclic
    coverings are hyperbolic except for the small degrees, where n = 2 gives
    lens spaces and the figure-eight degree-3 covering is euclidean.
    Returns undetermined rather than raising.
    """
    _check_components(t, spec)
    n = spec.n
    cls = classify(spec)
    signs = torus_signs(t)
    if signs:
        if spec.exponents[-1] not in {s * spec.exponents[0] % n for s in signs}:
            return GeometryType.undetermined
        # 1/n + 1/alpha - 1/2 times 2 n alpha > 0, in integers
        x = 2 * (n + t.alpha) - n * t.alpha
        if x > 0:
            return GeometryType.spherical
        if x == 0:
            return GeometryType.nil
        return GeometryType.sl2r
    if n == 2:
        return GeometryType.spherical
    if not cls.meridian:
        return GeometryType.undetermined
    if t.alpha == 5:
        if n == 3:
            return GeometryType.euclidean if equivalent(t, normalize(5, 2)) \
                else GeometryType.undetermined
        return GeometryType.hyperbolic
    return GeometryType.hyperbolic if n >= 3 else GeometryType.undetermined


def genus_bounds(t: TwoBridge, spec: CoveringSpec) -> GenusBounds:
    """Upper bounds on the Heegaard genus of the covering."""
    _check_components(t, spec)
    n = spec.n
    cls = classify(spec)
    if t.is_link:
        k1, k2 = spec.exponents
        general = n + 1 - gcd(n, k1) - gcd(n, k2)
    else:
        general = n - 1
    braid = None
    if spec.exponents[-1] in {s * spec.exponents[0] % n for s in torus_signs(t)}:
        braid = min(t.alpha - 1, n - 1)
    elif cls.strictly and t.alpha % 3 == 2 and t.alpha > 2:
        # alpha = 3c - 1 and beta equivalent to 3
        inv3 = pow(3, -1, t.alpha)
        if t.beta % t.alpha in {3 % t.alpha, -3 % t.alpha, inv3, -inv3 % t.alpha}:
            braid = min((t.alpha + 1) // 3, n - 1)
    symmetric = n - 1 if cls.strictly else None
    return GenusBounds(general, braid, symmetric)


def lens_recognize(t: TwoBridge, spec: CoveringSpec):
    """Recognize the covering as a lens space where the parameters force one.

    Degree-2 coverings give L(alpha, beta); coverings of the Hopf link
    b(2,1) with coprime exponent give L(n, k).  Returns None otherwise.
    """
    _check_components(t, spec)
    if spec.n == 2:
        return (t.alpha, t.beta % t.alpha)
    if t.alpha == 2:
        k = spec.single
        # k is a unit exactly when both exponents are
        if k is not None and gcd(spec.n, k) == 1:
            return (spec.n, k)
    return None
