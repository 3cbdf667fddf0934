"""Free-group words in syllable form, presentations, and Laurent polynomials.

A word is a tuple of syllables (generator_index, exponent).  Construction
merges adjacent syllables with equal index and drops zero exponents, so
stored words are freely reduced.  Products, powers, inverses and shifts of
reduced words merge only where two reduced parts meet.
"""

from collections import namedtuple


class FreeWord(namedtuple("FreeWord", "letters")):
    """Freely reduced word; letters is a tuple of (index, nonzero exponent)."""

    __slots__ = ()

    def __new__(cls, letters: tuple = ()):
        return tuple.__new__(cls, (_merge(letters),))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        # only the syllables where the two reduced words meet cancel or merge
        a, b = self.letters, other.letters
        j = 0
        while j < len(a) and j < len(b) and a[-1 - j][0] == b[j][0]:
            e = a[-1 - j][1] + b[j][1]
            if e:
                return _reduced(a[:len(a) - 1 - j] + ((b[j][0], e),) + b[j + 1:])
            j += 1
        return _reduced(a[:len(a) - j] + b[j:])

    def inverse(self) -> "FreeWord":
        return _reduced(tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        out, square = FreeWord(), self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def shift(self, d: int, n: int) -> "FreeWord":
        """Index shift x_i -> x_{i+d}, residues 1..n.  The shift permutes
        1..n, so a word on those indices stays reduced; others may merge."""
        letters = tuple([((i - 1 + d) % n + 1, e) for i, e in self.letters])
        if all(0 < i <= n for i, _ in self.letters):
            return _reduced(letters)
        return FreeWord(letters)

    def is_empty(self) -> bool:
        return not self.letters


def _reduced(letters) -> FreeWord:
    """The FreeWord of letters that are already freely reduced, unmerged."""
    return tuple.__new__(FreeWord, (letters,))


def _merge(letters):
    out = []
    for i, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == i:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((i, s))
        else:
            out.append((i, e))
    return tuple(out)


def word(*letters) -> FreeWord:
    return FreeWord(tuple(letters))


def format_word(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    return " ".join("x%d" % i if e == 1 else "x%d^%d" % (i, e) for i, e in w.letters)


class Presentation(namedtuple("Presentation", "generator_count relators")):
    __slots__ = ()

    def __new__(cls, generator_count: int, relators: tuple):
        for r in relators:
            for i, _ in r.letters:
                if not 1 <= i <= generator_count:
                    raise ValueError("letter index %d out of range" % i)
        return tuple.__new__(cls, (generator_count, relators))

    def relator_matrix(self) -> list:
        """Abelianized relators: dicts from generator index (from 0) to nonzero exponent sum."""
        rows = []
        for r in self.relators:
            row = {}
            for i, e in r.letters:
                x = row.pop(i - 1, 0) + e
                if x:
                    row[i - 1] = x
            rows.append(row)
        return rows


class CyclicPresentation(namedtuple("CyclicPresentation", "n w")):
    """G_n(w): generators x_1..x_n, relators the shifts of the defining word."""

    __slots__ = ()

    @property
    def generator_count(self) -> int:
        return self.n

    def expand(self) -> Presentation:
        return Presentation(self.n, tuple(self.w.shift(d, self.n) for d in range(self.n)))

    def relator_matrix(self) -> list:
        """The rows of ``expand().relator_matrix()``, read off f_w(t) once:
        the relator shifted by d abelianizes to f_w(t) rotated by d columns
        (the circulant of f_w)."""
        n, letters = self.n, self.w.letters
        base = letters[0][0] - 1 if letters else 0
        row = {(base + off) % n: c for off, c in word_polynomial(self).coefficients.items()}
        return [{(j + d) % n: c for j, c in row.items()} for d in range(n)]


def word_polynomial(cp: CyclicPresentation) -> "LaurentPolynomial":
    """f_w(t): index-wise exponent sums of the defining word, exponents taken
    relative to the first letter's index with representatives in (-n/2, n/2],
    so words spanning less than the index circle get n-independent output."""
    w = cp.w
    if w.is_empty():
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


class LaurentPolynomial:
    """Integer Laurent polynomial as a sparse exponent -> coefficient map."""

    __hash__ = None

    def __init__(self, coefficients: dict | None = None):
        self.coefficients = {e: c for e, c in (coefficients or {}).items() if c}

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.coefficients == other.coefficients

    def __repr__(self):
        return "LaurentPolynomial(coefficients=%r)" % (self.coefficients,)

    def lowest(self) -> int:
        return min(self.coefficients) if self.coefficients else 0

    def degree(self) -> int:
        return max(self.coefficients) if self.coefficients else 0

    def normalized(self) -> "LaurentPolynomial":
        """Unit-normalize: lowest exponent 0, leading coefficient positive."""
        if not self.coefficients:
            return LaurentPolynomial()
        lo = self.lowest()
        sign = 1 if self.coefficients[self.degree()] > 0 else -1
        return LaurentPolynomial({e - lo: sign * c for e, c in self.coefficients.items()})

    def coefficient_list(self) -> list:
        """Coefficients of the normalized polynomial from exponent 0 upward."""
        p = self.normalized()
        return [p.coefficients.get(e, 0) for e in range(p.degree() + 1)]
