"""Two-step factorization of singly-cyclic coverings of 2-bridge links.

A singly-cyclic covering M_{n,k} of b(alpha, beta) factors through an
intermediate orbifold: quotient first by the subgroup of order d = gcd(n, k)
acting with axis the first component, leaving the link L(d, alpha_1/beta)
with alpha_1 = alpha/2, then take the remaining meridian-cyclic covering of
degree n/d.  This module does the arithmetic bookkeeping for that diagram
(degrees, component counts, branching indices).
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .two_bridge import TwoBridge, linking_number


class LinkLDescriptor(namedtuple("LinkLDescriptor", "d alpha1_over_beta l")):
    """The link L(d, alpha_1/beta): d ladder strands closed over one box row.

    Not a diagram, just the parameters.
    """

    __slots__ = ()

    @property
    def components(self) -> int:
        return 1 + gcd(self.d, self.l)


class DecompositionResult(namedtuple("DecompositionResult", "upper_degree intermediate")):
    """Degrees and intermediate data of the covering factorization.

    upper_degree is the meridian-cyclic covering onto the intermediate link
    (branching index upper_degree on every component), lower_degree the
    cyclic covering of the base branched over one trivial component.
    """

    __slots__ = ()

    @property
    def d(self) -> int:
        return self.intermediate.d

    @property
    def lower_degree(self) -> int:
        return self.d

    def to_json(self) -> dict:
        inter = self.intermediate
        return {
            "d": self.d,
            "degrees": [self.upper_degree, self.lower_degree],
            "intermediate": {
                "d": inter.d,
                "alpha1": inter.alpha1_over_beta.numerator,
                "beta": inter.alpha1_over_beta.denominator,
                "l": inter.l,
                "components": inter.components,
                "index": self.upper_degree,
            },
        }


def decompose(t: TwoBridge, n: int, k: int) -> DecompositionResult:
    """Factor the (n; 1, k) covering of a 2-bridge link through L(d, alpha_1/beta).

    d = gcd(n, k); the intermediate link has 1 + gcd(d, l) components where l
    is the linking number of t, every component carrying branching index n/d.
    gcd(n, k) = 1 is allowed and degenerate: the upper covering is the whole
    covering and the intermediate link is t itself in its L(1, .) form.
    """
    if not t.is_link:
        raise ValueError("%s is a knot; decompose needs a 2-component link" % (t,))
    if n < 2:
        raise ValueError("degree must be at least 2, got %d" % n)
    k %= n
    if k == 0:
        raise ValueError("branching exponent must be nonzero mod n")
    d = gcd(n, k)
    inter = LinkLDescriptor(d, Fraction(t.alpha // 2, t.beta), linking_number(t))
    return DecompositionResult(upper_degree=n // d, intermediate=inter)

