"""Free-group words in syllable form, presentations, and Laurent polynomials.

A word is a tuple of syllables (generator_index, exponent).  Construction
merges adjacent syllables with equal index and drops zero exponents, so
stored words are freely reduced.  Products, powers, inverses and shifts of
reduced words merge only where two reduced parts meet.
"""

from .values import checked_namedtuple


class FreeWord(checked_namedtuple("FreeWord", "letters")):
    """Freely reduced word; letters is a tuple of (index, nonzero exponent).
    Its length is its number of syllables; words multiply, never add."""

    __slots__ = ()

    def __new__(cls, letters: tuple = ()):
        return tuple.__new__(cls, (_merge(letters),))

    def __len__(self):
        return len(self.letters)

    def __add__(self, other):
        return NotImplemented

    def __radd__(self, other):
        # tried before tuple.__add__, which would concatenate a subclass
        raise TypeError("unsupported operand type(s) for +: %r and 'FreeWord'"
                        % type(other).__name__)

    def __rmul__(self, other):
        return NotImplemented

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
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

    def shift(self, d: int, n: int, fixed: int = 0) -> "FreeWord":
        """Index shift x_i -> x_{i+d}, residues 1..n, that fixes x_{n+1} ..
        x_{n+fixed}.  The shift permutes 1..n+fixed, so a word on those
        indices stays reduced; others may merge."""
        top = n + fixed
        letters = tuple([(i if n < i <= top else (i - 1 + d) % n + 1, e)
                         for i, e in self.letters])
        if all(0 < i <= top for i, _ in self.letters):
            return _reduced(letters)
        return FreeWord(letters)

    def abelianized(self) -> dict:
        """Exponent sums: a dict from column i - 1 of x_i to each nonzero
        sum, with the columns in the order of their last letters."""
        row = {}
        for i, e in self.letters:
            x = row.pop(i - 1, 0) + e
            if x:
                row[i - 1] = x
        return row


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


class Presentation(checked_namedtuple("Presentation", "generator_count relators")):
    __slots__ = ()

    def __new__(cls, generator_count: int, relators: tuple):
        for r in relators:
            for i, _ in r.letters:
                if not 1 <= i <= generator_count:
                    raise ValueError("letter index %d out of range" % i)
        return tuple.__new__(cls, (generator_count, relators))

    def relator_matrix(self) -> list:
        """Abelianized relators: dicts from generator index (from 0) to nonzero exponent sum."""
        return [r.abelianized() for r in self.relators]


class CyclicPresentation(checked_namedtuple("CyclicPresentation", "n families fixed")):
    """A presentation that the index shift x_i -> x_{i+1} (mod n) maps to
    itself: generators x_1..x_n and x_{n+1}..x_{n+fixed}, which the shift
    fixes; for each (word, count) of families, the relators are the first
    count shifts of the word.  G_n(w) is the one family (w, n)."""

    __slots__ = ()

    def __new__(cls, n: int, families: tuple, fixed: int = 0):
        families = tuple(families)
        for w, count in families:
            if not 1 <= count <= n:
                raise ValueError("family count %d out of range" % count)
            for i, _ in w.letters:
                if not 1 <= i <= n + fixed:
                    raise ValueError("letter index %d out of range" % i)
        return tuple.__new__(cls, (n, families, fixed))

    @property
    def generator_count(self) -> int:
        return self.n + self.fixed

    @property
    def w(self) -> FreeWord:
        """The defining word of G_n(w)."""
        if len(self.families) != 1 or self.families[0][1] != self.n or self.fixed:
            raise ValueError("%r is not of the form G_n(w)" % (self,))
        return self.families[0][0]

    @property
    def relators(self) -> tuple:
        n, fixed = self.n, self.fixed
        return tuple(w.shift(d, n, fixed) for w, count in self.families for d in range(count))

    def expand(self) -> Presentation:
        return Presentation(self.generator_count, self.relators)


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
