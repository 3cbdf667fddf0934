"""The three fundamental-group presentation families for cyclic branched
coverings of 2-bridge knots and links, plus the Alexander polynomial.

All three run over generators x_1..x_n with index arithmetic mod n
(representatives 1..n; a derived x_0 means x_n).
"""

from math import gcd

from .two_bridge import TwoBridge, EvenConwayForm
from .words import CyclicPresentation, FreeWord, LaurentPolynomial, word


def check_degree(n: int) -> None:
    if n <= 0:
        raise ValueError("covering degree must be positive, got %d" % n)


# ---- Minkus presentation ----

def _minkus_letters(t: TwoBridge) -> list:
    """Letters of R = x_1 x_{1+s_1}^{-1} x_{1+s_2} ... with unwrapped indices,
    s_j the partial sum of (-1)^floor(i beta^{-1} / alpha) over i = 1..j,
    with beta^{-1} taken mod 2*alpha."""
    b = t.beta % (2 * t.alpha)
    if b % 2 == 0:
        # reorientation: the odd representative of the same covering; b is
        # then odd and, as b = beta mod alpha, a unit mod 2*alpha
        b = (b + t.alpha) % (2 * t.alpha)
    binv = pow(b, -1, 2 * t.alpha)
    letters = [(1, 1)]
    sj = 0
    for j in range(1, t.alpha):
        sj += (-1) ** ((j * binv) // t.alpha)
        letters.append((1 + sj, (-1) ** j))
    return letters


def minkus_cyclic(t: TwoBridge, n: int) -> CyclicPresentation:
    """The defining word of the cyclic presentation, indices wrapped mod n."""
    check_degree(n)
    w = FreeWord(tuple(((i - 1) % n + 1, e) for i, e in _minkus_letters(t)))
    return CyclicPresentation(n, ((w, n),))


def minkus_presentation(t: TwoBridge, n: int) -> CyclicPresentation:
    """Fundamental group of the strictly-cyclic n-fold covering.

    Knots give the cyclic presentation G_n(R); links get n+1 generators
    (the extra one is y = x_{n+1}, which the shift fixes) with relators x_n
    and the n shifts R_i y^{-1} of R y^{-1}.
    """
    cp = minkus_cyclic(t, n)
    if t.is_knot:
        return cp
    return CyclicPresentation(n, ((word((n, 1)), 1), (cp.w * word((n + 1, -1)), n)), 1)


# ---- coloured-graph presentation ----

def eta(j: int, p: int) -> int:
    """+1 on residues 1..p mod 2p, -1 on the rest (so eta(0) = -1)."""
    return 1 if 1 <= j % (2 * p) <= p else -1


def _mu3_shifts(alpha: int, beta: int, k: int):
    """Exponents e_j and shifts s_j, the two sums carrying different k-weights.

    mu3_presentation takes links only, so alpha is even and beta is odd.
    With g_m = -eta(m beta), e_j = g_{2j}; as eta(x + alpha) = -eta(x), the
    k-weighted sum to j is g_0 + g_2 + ... + g_{2j-2} and the other
    g_1 + g_3 + ... + g_{2j-1}.
    """
    g = [-eta(m * beta, alpha) for m in range(2 * alpha)]
    e = g[::2]
    s = [0] * alpha
    sa = sb = 0
    for j in range(1, alpha):
        sa += g[2 * j - 2]
        sb += g[2 * j - 1]
        s[j] = -k * sa - sb + (k if e[j] == -1 else 0)
    return e, s


def mu3_presentation(t: TwoBridge, n: int, k: int) -> CyclicPresentation:
    """Presentation of M_{n,1,k} read off the coloured graph: gcd(n,k)
    relators Q_i = prod_j x_{i-jk} and n relators Q'_i = prod_j x_{i+s_j}^{e_j}.
    """
    if not t.is_link:
        raise ValueError("%s is a knot; mu3 needs a 2-component link" % (t,))
    check_degree(n)
    k %= n
    if k == 0:
        raise ValueError("k must be nonzero mod n")
    e, s = _mu3_shifts(t.alpha, t.beta, k)
    d = gcd(n, k)
    # Q_{1+i} and Q'_{1+i} are Q_1 and Q'_1 shifted by i
    q = FreeWord(tuple((-j * k % n + 1, 1) for j in range(n // d)))
    q_prime = FreeWord(tuple((s[j] % n + 1, e[j]) for j in range(t.alpha)))
    return CyclicPresentation(n, ((q, d), (q_prime, n)))


# ---- Takahashi presentation ----

def takahashi_word(form: EvenConwayForm, n: int) -> CyclicPresentation:
    """G_n(w) with w = b_{2,m}^{-s_m} d_{2,m} b_{1,m}^{s_m}, where d_{i,1} = x_i,
    b_{i,1} = x_i^{q_1} x_{i+1}^{-q_1}, and for j > 1 (indices i mod n)
    d_{i,j} = b_{i,j-1}^{-s_{j-1}} d_{i,j-1} b_{i-1,j-1}^{s_{j-1}} and
    b_{i,j} = d_{i,j}^{q_j} b_{i,j-1} d_{i+1,j}^{-q_j}.  The recurrence
    commutes with the index shift, so only i = 1 is built."""
    if len(form.s) != form.m:
        raise ValueError("even form lacks the final twist parameter")
    check_degree(n)
    q, s = form.q, form.s
    d = word((1, 1))
    b = d ** q[0] * d.shift(1, n) ** (-q[0])
    for j in range(1, form.m):
        d = b ** (-s[j - 1]) * d * b.shift(-1, n) ** s[j - 1]
        b = d ** q[j] * b * d.shift(1, n) ** (-q[j])
    sm = s[form.m - 1]
    return CyclicPresentation(n, ((b.shift(1, n) ** (-sm) * d.shift(1, n) * b ** sm, n),))


# ---- Alexander polynomial ----

def alexander_polynomial(t: TwoBridge) -> LaurentPolynomial:
    """Alexander polynomial of a 2-bridge knot, via the exponent sums of the
    defining word with unwrapped indices; normalized to lowest exponent 0 and
    positive leading coefficient."""
    if not t.is_knot:
        raise ValueError("%s is a 2-component link; the Alexander polynomial "
                         "here needs a knot" % (t,))
    coeffs = {}
    for i, e in _minkus_letters(t):
        coeffs[i] = coeffs.get(i, 0) + e
    return LaurentPolynomial(coeffs).normalized()
