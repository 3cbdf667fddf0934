"""Exact arithmetic of 2-bridge knot/link parameters.

A 2-bridge knot or link b(alpha, beta) is classified by alpha > 1 and the
residue class of beta mod 2*alpha (coprime to alpha).  alpha odd gives a
knot, alpha even a 2-component link.
"""

from math import gcd

from .values import checked_namedtuple


class TwoBridge(checked_namedtuple("TwoBridge", "alpha beta")):
    """b(alpha, beta) with beta stored as the representative in [1, 2*alpha-1]."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int):
        if alpha <= 1:
            raise ValueError("alpha must exceed 1, got %r" % (alpha,))
        if not 1 <= beta <= 2 * alpha - 1:
            raise ValueError("beta %r not reduced mod %d" % (beta, 2 * alpha))
        if gcd(alpha, beta) != 1:
            raise ValueError("gcd(%d, %d) != 1" % (alpha, beta))
        return tuple.__new__(cls, (alpha, beta))

    @property
    def is_knot(self) -> bool:
        return self.alpha % 2 == 1

    @property
    def is_link(self) -> bool:
        return self.alpha % 2 == 0

    def __str__(self):
        return "b(%d,%d)" % (self.alpha, self.beta)


class ContinuedFraction(checked_namedtuple("ContinuedFraction", "entries")):
    """Tower c_1 + 1/(c_2 + 1/(... + 1/c_m)) with nonzero integer entries."""

    __slots__ = ()

    def __new__(cls, entries: tuple):
        if not entries or any(c == 0 for c in entries):
            raise ValueError("entries must be a nonempty sequence of nonzero integers")
        return tuple.__new__(cls, (entries,))

    def value(self) -> "Fraction":
        # fractions (and the decimal it imports) load only where a value is taken
        from fractions import Fraction

        # convergents h/k by h_j = c_j h_{j-1} + h_{j-2}, in integers
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for c in self.entries:
            h, h_prev = c * h + h_prev, h
            k, k_prev = c * k + k_prev, k
        return Fraction(h, k)


class EvenConwayForm(checked_namedtuple("EvenConwayForm", "q s")):
    """Parameters (q_j, s_j) of the all-even expansion [-2q_1, 2s_1, ..., -2q_m, 2s_m].

    For a link the trailing 2*s_m entry is absent, so s has length m - 1.
    """

    __slots__ = ()

    def __new__(cls, q: tuple, s: tuple):
        if not q or len(s) not in (len(q), len(q) - 1):
            raise ValueError("inconsistent even form")
        return tuple.__new__(cls, (q, s))

    @property
    def m(self) -> int:
        return len(self.q)

    def entries(self) -> tuple:
        out = []
        for j in range(self.m):
            out.append(-2 * self.q[j])
            if j < len(self.s):
                out.append(2 * self.s[j])
        return tuple(out)

    def value(self) -> "Fraction":
        return ContinuedFraction(self.entries()).value()


def normalize(alpha: int, beta: int) -> TwoBridge:
    """Reduce beta mod 2*alpha into [1, 2*alpha-1] and validate coprimality."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1, got %r" % (alpha,))
    b = beta % (2 * alpha)
    if gcd(alpha, b) != 1:
        raise ValueError("gcd(%d, %d) != 1" % (alpha, beta))
    return TwoBridge(alpha, b)


def equivalent(a: TwoBridge, b: TwoBridge) -> bool:
    """Schubert equivalence: same alpha and beta' congruent to beta^{+-1}
    mod alpha.  Links are compared unoriented."""
    if a.alpha != b.alpha:
        return False
    return b.beta % a.alpha in (a.beta % a.alpha, pow(a.beta, -1, a.alpha))


def mirror(t: TwoBridge) -> TwoBridge:
    """Mirror image b(alpha, -beta)."""
    return normalize(t.alpha, -t.beta)


def reorient_component(t: TwoBridge) -> TwoBridge:
    """Reverse the orientation of one component: b(alpha, beta - alpha)."""
    if not t.is_link:
        raise ValueError("%s is a knot; reorienting one component needs a "
                         "2-component link" % (t,))
    return normalize(t.alpha, t.beta - t.alpha)


def beta_interior(t: TwoBridge) -> int:
    """The representative of beta (or beta - alpha) lying in (0, alpha)."""
    return t.beta if t.beta < t.alpha else t.beta - t.alpha


def cf_expand(t: TwoBridge) -> ContinuedFraction:
    """Plain continued fraction of alpha/beta, beta taken in (0, alpha)."""
    num, den = t.alpha, beta_interior(t)
    entries = []
    while den:
        c = num // den
        entries.append(c)
        num, den = den, num - c * den
    return ContinuedFraction(tuple(entries))


def even_cf_expand(t: TwoBridge) -> EvenConwayForm:
    """All-even continued fraction of alpha over an equivalent representative.

    A knot's denominator is the first even one of beta, beta^{-1} mod alpha
    and beta - alpha (beta or beta - alpha is even); a link's odd beta is
    taken in (-alpha, alpha).  Nearest-even division then yields even
    entries [-2q_1, 2s_1, ...]: num and den keep opposite parities, so the
    even quotient is num // den rounded up to even, and the chain stops at
    an even num, after an even count of entries for knots and an odd count
    for links.
    """
    if t.is_knot:
        b = t.beta % t.alpha
        bp = next(x for x in (b, pow(b, -1, t.alpha), b - t.alpha) if x % 2 == 0)
    else:
        bp = t.beta if t.beta < t.alpha else t.beta - 2 * t.alpha
    num, den = t.alpha, bp
    entries = []
    while den:
        c = num // den
        c += c % 2
        entries.append(c)
        num, den = den, num - c * den
    q = tuple(-entries[i] // 2 for i in range(0, len(entries), 2))
    s = tuple(entries[i] // 2 for i in range(1, len(entries), 2))
    form = EvenConwayForm(q, s)
    if form.value() * bp != t.alpha:
        raise ValueError("re-evaluation failed for %s" % (t,))
    return form


def linking_number(t: TwoBridge) -> int:
    """Linking number of the two components: sum of (-1)^[(2h-1) beta / alpha]."""
    if not t.is_link:
        raise ValueError("%s is a knot; the linking number needs a 2-component link" % (t,))
    return sum((-1) ** (((2 * h - 1) * t.beta) // t.alpha) for h in range(1, t.alpha // 2 + 1))


def is_genus_one(t: TwoBridge) -> bool:
    """Whether a knot has genus one.

    With beta replaced by an even equivalent representative, the test is
    divisibility of (alpha - 1)/4 or (alpha + 1)/4 (by alpha mod 4) by beta/2.
    """
    if not t.is_knot:
        raise ValueError("%s is a 2-component link; the genus-one test needs a knot" % (t,))
    target = (t.alpha - 1) // 4 if t.alpha % 4 == 1 else (t.alpha + 1) // 4
    b = t.beta % t.alpha
    for x in (b, pow(b, -1, t.alpha)):
        even = x if x % 2 == 0 else x - t.alpha
        if target % (abs(even) // 2) == 0:
            return True
    return False
