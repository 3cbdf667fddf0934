"""Free-group words in syllable form, presentations, and Laurent polynomials.

A word is a tuple of syllables (generator_index, exponent).  Construction
merges adjacent syllables with equal index and drops zero exponents, so
stored words are freely reduced; cyclic reduction is a separate step.
"""

from dataclasses import dataclass, field
import json
import re


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word; letters is a tuple of (index, nonzero exponent)."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _merge(self.letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "FreeWord":
        if k < 0:
            return self.inverse() ** (-k)
        out = FreeWord()
        for _ in range(k):
            out = out * self
        return out

    def shift(self, d: int, n: int) -> "FreeWord":
        """Index shift x_i -> x_{i+d}, residues 1..n."""
        return FreeWord(tuple(((i - 1 + d) % n + 1, e) for i, e in self.letters))

    def exponent_sums(self, n: int) -> list:
        """Index-wise exponent sums, indices wrapped to 1..n; returns n entries."""
        out = [0] * n
        for i, e in self.letters:
            out[(i - 1) % n] += e
        return out

    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> "FreeWord":
        ls = list(self.letters)
        while len(ls) > 1 and ls[0][0] == ls[-1][0]:
            i, e = ls[0]
            _, e2 = ls[-1]
            ls = ls[1:-1]
            if e + e2:
                ls.insert(0, (i, e + e2))
        return FreeWord(tuple(ls))

    def __str__(self):
        return format_word(self)


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


_SYLLABLE = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> FreeWord:
    """Parse `x3^-2 x1 x2^1` syntax."""
    letters = []
    for tok in text.split():
        m = _SYLLABLE.match(tok)
        if not m:
            raise ValueError("bad syllable %r" % tok)
        letters.append((int(m.group(1)), int(m.group(2) or 1)))
    return FreeWord(tuple(letters))


def format_word(w: FreeWord) -> str:
    if not w.letters:
        return "1"
    return " ".join("x%d" % i if e == 1 else "x%d^%d" % (i, e) for i, e in w.letters)


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple

    def __post_init__(self):
        for r in self.relators:
            for i, _ in r.letters:
                if not 1 <= i <= self.generator_count:
                    raise ValueError("letter index %d out of range" % i)

    def relator_matrix(self) -> list:
        """Abelianized relators: one row of exponent sums per relator."""
        return [r.exponent_sums(self.generator_count) for r in self.relators]

    def to_json(self) -> str:
        return json.dumps({"generators": self.generator_count,
                           "relators": [format_word(r) for r in self.relators]})

    @classmethod
    def from_json(cls, text: str) -> "Presentation":
        data = json.loads(text)
        return cls(data["generators"], tuple(parse_word(r) for r in data["relators"]))


@dataclass(frozen=True)
class CyclicPresentation:
    """G_n(w): generators x_1..x_n, relators the shifts of the defining word."""

    n: int
    w: FreeWord

    def expand(self) -> Presentation:
        return Presentation(self.n, tuple(self.w.shift(d, self.n) for d in range(self.n)))


@dataclass
class LaurentPolynomial:
    """Integer Laurent polynomial as a sparse exponent -> coefficient map."""

    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coefficients = {e: c for e, c in self.coefficients.items() if c}

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self.coefficients == other.coefficients

    def is_zero(self) -> bool:
        return not self.coefficients

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

    def unit_multiple(self, j: int, sign: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial({e + j: sign * c for e, c in self.coefficients.items()})

    def unit_equal(self, other: "LaurentPolynomial") -> bool:
        return self.normalized() == other.normalized()

    def wrap(self, n: int) -> "LaurentPolynomial":
        """Reduce mod t^n - 1."""
        out = {}
        for e, c in self.coefficients.items():
            out[e % n] = out.get(e % n, 0) + c
        return LaurentPolynomial(out)

    def unit_equal_mod(self, other: "LaurentPolynomial", n: int) -> bool:
        """Equality up to +- t^j in Z[t]/(t^n - 1)."""
        a = self.wrap(n)
        b = other.wrap(n)
        for j in range(n):
            for sign in (1, -1):
                if a.unit_multiple(j, sign).wrap(n) == b:
                    return True
        return a.is_zero() and b.is_zero()

    def coefficient_list(self) -> list:
        """Coefficients of the normalized polynomial from exponent 0 upward."""
        p = self.normalized()
        return [p.coefficients.get(e, 0) for e in range(p.degree() + 1)]

    def __call__(self, x):
        return sum(c * x ** e for e, c in self.coefficients.items())

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for e in sorted(self.coefficients, reverse=True):
            c = self.coefficients[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else "t^%d" % e
                body = tpow if mag == 1 else "%d%s" % (mag, tpow)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)
