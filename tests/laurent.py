"""Laurent polynomials compared up to units, for the tests that check
presentations against the Alexander polynomial."""

from bridgecovers.words import LaurentPolynomial


def unit_multiple(p, j, sign=1):
    """sign * t^j * p."""
    return LaurentPolynomial({e + j: sign * c for e, c in p.coefficients.items()})


def unit_equal(p, q):
    """Equality up to +- t^j in Z[t, t^-1]."""
    return p.normalized() == q.normalized()


def wrap(p, n):
    """Reduce mod t^n - 1."""
    out = {}
    for e, c in p.coefficients.items():
        out[e % n] = out.get(e % n, 0) + c
    return LaurentPolynomial(out)


def unit_equal_mod(p, q, n):
    """Equality up to +- t^j in Z[t]/(t^n - 1)."""
    a, b = wrap(p, n), wrap(q, n)
    return any(wrap(unit_multiple(a, j, sign), n) == b
               for j in range(n) for sign in (1, -1))
