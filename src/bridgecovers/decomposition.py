"""Two-step factorization of singly-cyclic coverings of 2-bridge links.

A singly-cyclic covering M_{n,k} of b(alpha, beta) factors through an
intermediate orbifold: quotient first by the subgroup of order d = gcd(n, k)
acting with axis the first component, leaving the link L(d, alpha_1/beta)
with alpha_1 = alpha/2, then take the remaining meridian-cyclic covering of
degree n/d.  This module does the arithmetic bookkeeping for that diagram
(degrees, component counts, branching indices).
"""

from math import gcd

from .covering import CoveringSpec
from .two_bridge import TwoBridge, linking_number


def decompose(t: TwoBridge, n: int, k: int) -> dict:
    """Factor the (n; 1, k) covering of a 2-bridge link through L(d, alpha_1/beta).

    d = gcd(n, k); the intermediate link L(d, alpha_1/beta), d ladder strands
    closed over one box row, has 1 + gcd(d, l) components where l is the
    linking number of t, every component carrying branching index n/d.  The
    degrees are n/d (meridian-cyclic, onto the intermediate link) and d
    (cyclic, branched over one trivial component of the base).
    gcd(n, k) = 1 is allowed and degenerate: the upper covering is the whole
    covering and the intermediate link is t itself in its L(1, .) form.
    """
    if not t.is_link:
        raise ValueError("%s is a knot; decompose needs a 2-component link" % (t,))
    spec = CoveringSpec(n, (1, k))
    d = gcd(n, spec.exponents[1])
    l = linking_number(t)
    return {"link": str(t), "exponents": list(spec.exponents), "d": d,
            "degrees": [n // d, d],
            # gcd(alpha, beta) = 1, so alpha_1/beta is in lowest terms
            "intermediate": {"d": d, "alpha1": t.alpha // 2, "beta": t.beta, "l": l,
                             "components": 1 + gcd(d, l), "index": n // d}}
