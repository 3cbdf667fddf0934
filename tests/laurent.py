"""Laurent polynomials compared up to units, and the polynomial f_w(t) of
a cyclic presentation, for the tests that check presentations against the
Alexander polynomial."""

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


def word_polynomial(cp):
    """f_w(t): index-wise exponent sums of the defining word, exponents taken
    relative to the first letter's index with representatives in (-n/2, n/2],
    so words spanning less than the index circle get n-independent output."""
    w = cp.w
    if not w.letters:
        return LaurentPolynomial()
    n = cp.n
    base = w.letters[0][0]
    coeffs = {}
    for i, e in w.letters:
        off = (i - base) % n
        if off > n // 2:
            off -= n
        coeffs[off] = coeffs.get(off, 0) + e
    return LaurentPolynomial(coeffs)
