import random
import time
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from bridgecovers import homology
from bridgecovers.covering import CoveringSpec
from bridgecovers.homology import (
    ROUTES,
    AbelianGroup,
    IntMatrix,
    consensus_group,
    even_alpha_params,
    genus_one_params,
    group_from_factors,
    h1,
    h1_closed_form,
    order_via_resultant,
    routes_agree,
    smith_normal_form,
    verify_consistency,
    whitehead_factors,
)
from bridgecovers.polyhedral import quotient_counts
from bridgecovers.presentations import (
    alexander_polynomial,
    minkus_presentation,
    mu3_presentation,
    takahashi_word,
)
from bridgecovers.two_bridge import even_cf_expand, mirror, normalize
from bridgecovers.words import (
    CyclicPresentation,
    FreeWord,
    LaurentPolynomial,
    Presentation,
    word,
)

from h1_rows import reduced_rows


def laplace_det(sub):
    """Independent oracle: determinant by expansion along the first row."""
    if not sub:
        return 1
    out = 0
    for j in range(len(sub)):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        out += (-1) ** j * sub[0][j] * laplace_det(minor)
    return out


def bareiss(entries, cols: int) -> tuple:
    """Rank r and signed last pivot of fraction-free (Bareiss) elimination.

    Each pivot is the first nonzero entry, in row-major order, of the block
    not yet eliminated, moved into place by a row and a column swap.  The
    last pivot is the leading r x r minor of the permuted matrix; times the
    sign of the swaps it is an r x r minor of the input, and for a
    nonsingular square input its determinant.  Every division is exact.
    """
    b = [list(row) for row in entries]
    rows = len(b)
    prev = sign = 1
    r = 0
    while r < min(rows, cols):
        piv = None
        for i in range(r, rows):
            for j in range(r, cols):
                if b[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != r:
            b[r], b[i0] = b[i0], b[r]
            sign = -sign
        if j0 != r:
            for row in b:
                row[r], row[j0] = row[j0], row[r]
            sign = -sign
        top = b[r]
        p = top[r]
        for i in range(r + 1, rows):
            row = b[i]
            x = row[r]
            for j in range(r + 1, cols):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
        r += 1
    return r, sign * prev


def sylvester_order(delta, n):
    """Independent oracle: |det| of the Sylvester matrix of Delta and
    t^n - 1, "infinite" when it vanishes."""
    f = list(reversed(delta.coefficient_list()))
    g = [1] + [0] * (n - 1) + [-1]
    df, dg = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (dg - 1 - i) for i in range(dg)]
    rows += [[0] * i + g + [0] * (df - 1 - i) for i in range(df)]
    rank, pivot = bareiss(rows, len(rows))
    return abs(pivot) if rank == len(rows) else "infinite"


def minors_gcd_factors(entries, rows, cols):
    """Independent oracle: d_k = gcd of all k x k minors; factors d_k/d_{k-1}."""
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ris in combinations(range(rows), k):
            for cis in combinations(range(cols), k):
                g = gcd(g, laplace_det([[entries[i][j] for j in cis] for i in ris]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def matrix(entries, cols=None):
    """IntMatrix of a list of dense rows; cols is needed only when there are none."""
    cols = len(entries[0]) if cols is None else cols
    return IntMatrix(cols, [{j: x for j, x in enumerate(row) if x} for row in entries])


def test_smith_normal_form():
    m = matrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert smith_normal_form(m) == (1, 4, 4)
    m = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(m) == (1, 1, 1)
    m = matrix([[0, 0, 0], [0, 0, 0]], cols=3)
    assert smith_normal_form(m) == ()
    m = matrix([[2, 0], [0, 3]])
    assert smith_normal_form(m) == (1, 6)


def test_int_matrix_rejects_bad_rows():
    assert IntMatrix(3, [{0: 1, 2: -4}, {}]).rows == 2
    for row in ({3: 1}, {-1: 1}, {0: 1, 1: 0}):
        with pytest.raises(ValueError):
            IntMatrix(3, [{0: 2}, row])


def test_relator_rows_stay_sparse():
    # a dense row would hold one key per generator
    pres = minkus_presentation(normalize(29, 12), 5120)
    rows = reduced_rows(pres)
    assert len(rows) == len(pres.relators)
    assert all(len(row) <= len(r.letters) for row, r in zip(rows, pres.relators))


def test_smith_invariance():
    rng = random.Random(6)
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        entries = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        base = smith_normal_form(matrix(entries, cols=cols))
        rng.shuffle(entries)
        assert smith_normal_form(matrix(entries, cols=cols)) == base
        transposed = [list(row) for row in zip(*entries)]
        if transposed:
            assert smith_normal_form(matrix(transposed, cols=rows)) == base


def snf(entries, cols):
    return smith_normal_form(matrix(entries, cols=cols))


dense_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-5, 5), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))

# mostly zeros and units, so that unit pivots meet fill-in and leave a core
# of 2s and 3s for the Euclidean steps on non-unit pivots
sparse_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3)),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@st.composite
def low_rank_matrices(draw):
    """Products of rows x k and k x cols matrices with k < min(rows, cols):
    reductions empty whole rows, which leave the row list, and the
    elimination ends with fewer diagonal entries than rows or columns."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    k = draw(st.integers(1, min(rows, cols) - 1))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=450, deadline=None)
@given(st.one_of(dense_matrices, sparse_matrices, low_rank_matrices()))
# unimodular with no +-1 entry: the first pivot is a 2, and the remainder 1
# it leaves in its column on the other row is the next pivot
@example([[2, 3], [3, 5]])
@example([[2, 5], [3, 7]])
# the column of the pivot 2 is clear, and the pivot row reduced mod 2
# keeps a 1, the next pivot
@example([[2, 3]])
# no +-1 entry: the pivot 2 leaves a 1 in the other row, which it does not
# pivot on, and leaves as the diagonal 2; the 1 is then a fresh unit pivot
@example([[2, 4], [4, 9]])
# rank 2: the unit pivot of the first row empties the second and fourth
# rows at once, and the rows left keep their order
@example([[1, 2, 0], [2, 4, 0], [0, 2, 4], [3, 6, 0], [0, 4, 8]])
def test_smith_vs_minors_oracle(entries):
    rows, cols = len(entries), len(entries[0])
    assert snf(entries, cols) == minors_gcd_factors(entries, rows, cols)


def test_smith_unit_block_splits_off():
    # SNF(diag(+-I_k, M)) = (1,) * k + SNF(M), with the rows and columns of
    # the block shuffled
    rng = random.Random(8)
    for _ in range(100):
        units = [rng.choice((1, -1)) for _ in range(rng.randrange(1, 5))]
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.choice((0, 2, -3, 4, 6, 9)) for _ in range(cols)] for _ in range(rows)]
        size = len(units) + cols
        block = [[u if j == i else 0 for j in range(size)] for i, u in enumerate(units)]
        block += [[0] * len(units) + row for row in m]
        rng.shuffle(block)
        perm = list(range(size))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in block]
        assert snf(shuffled, size) == (1,) * len(units) + snf(m, cols)


@pytest.mark.parametrize("alpha, beta, factors", [
    (29, 12, 4),
    # Delta = 2t^2 - 3t + 2 is not monic: the Minkus matrix holds no +-1
    # entry, so the elimination starts on Euclidean steps
    (7, 3, 2),
])
def test_large_degree_routes_agree(alpha, beta, factors):
    # n = 320: 320 x 320 circulant-like relator matrices
    t, n = normalize(alpha, beta), 320
    minkus = minkus_presentation(t, n)
    takahashi = takahashi_word(even_cf_expand(t), n).expand()
    start = time.monotonic()
    group = h1(minkus)
    assert h1(takahashi) == group
    assert time.monotonic() - start < 1.0
    assert group.rank == 0 and len(group.torsion) == factors
    assert group.order() == order_via_resultant(alexander_polynomial(t), n)


def test_unit_pivots_at_large_degree():
    # Delta of b(29, 12) has a +-1 coefficient: at n = 1280 the Minkus
    # matrix is almost all unit pivots
    t, n = normalize(29, 12), 1280
    pres = minkus_presentation(t, n)
    times = []
    for _ in range(3):
        start = time.monotonic()
        group = h1(pres)
        times.append(time.monotonic() - start)
    assert min(times) < 1.0
    assert group.rank == 0 and len(group.torsion) == 4
    assert group.order() == order_via_resultant(alexander_polynomial(t), n)


square_matrices = st.integers(0, 5).flatmap(
    lambda size: st.lists(st.lists(st.integers(-9, 9), min_size=size, max_size=size),
                          min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_det_against_laplace(entries):
    rank, pivot = bareiss(entries, len(entries))
    assert (pivot if rank == len(entries) else 0) == laplace_det(entries)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_smith_product_is_abs_det(entries):
    det = laplace_det(entries)
    if not entries or det == 0:
        return
    product = 1
    for d in smith_normal_form(matrix(entries)):
        product *= d
    assert product == abs(det)


def prime_powers(x):
    """Prime-power factors of x > 1 by trial division, e.g. 12 -> [3, 4]."""
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            q = 1
            while x % p == 0:
                x //= p
                q *= p
            out.append(q)
        p += 1
    if x > 1:
        out.append(x)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(-400, 400), max_size=8))
def test_group_from_factors_keeps_elementary_divisors(rank, factors):
    g = group_from_factors(rank, factors)
    assert g.rank == rank + factors.count(0)
    want = sorted(q for f in factors if abs(f) > 1 for q in prime_powers(abs(f)))
    assert sorted(q for d in g.torsion for q in prime_powers(d)) == want


def test_routes_agree_verdicts():
    group = {"rank": 0, "torsion": [4, 4]}
    assert routes_agree([]) is None
    assert routes_agree([{"route": "minkus", "group": group}]) is None
    assert routes_agree([{"route": "resultant", "order": 16}]) is None
    assert routes_agree([{"route": "minkus", "group": group},
                         {"route": "resultant", "order": 16}]) is True
    assert routes_agree([{"route": "minkus", "group": group},
                         {"route": "resultant", "order": 15}]) is False
    # no route applies to this covering: unverified, not agreeing
    report = verify_consistency(normalize(8, 3), CoveringSpec(6, (2, 3)))
    assert report["routes"] == [] and report["agree"] is None


def test_abelian_group():
    g = AbelianGroup(1, (2, 4))
    assert g.order() is None
    assert str(g) == "Z + Z_2 + Z_4"
    assert AbelianGroup(0, (4, 4)).order() == 16
    assert str(AbelianGroup(0, ())) == "0"
    assert AbelianGroup(0, (5,)).to_json() == {"rank": 0, "torsion": [5]}
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_group_from_factors():
    assert group_from_factors(0, [2, 3]) == AbelianGroup(0, (6,))
    assert group_from_factors(0, [2, 4, 3]) == AbelianGroup(0, (2, 12))
    assert group_from_factors(1, [0, 1, 5]) == AbelianGroup(2, (5,))
    assert group_from_factors(0, [1, 1]) == AbelianGroup(0, ())


def test_h1_examples():
    assert h1(minkus_presentation(normalize(5, 3), 3)) == AbelianGroup(0, (4, 4))
    assert h1(minkus_presentation(normalize(3, 1), 5)) == AbelianGroup(0, ())
    for alpha in range(2, 31):
        for beta in (1, alpha - 1):
            if gcd(alpha, beta) != 1:
                continue
            g = h1(minkus_presentation(normalize(alpha, beta), 2))
            assert g == AbelianGroup(0, (alpha,))


def test_closed_form_examples():
    g = h1_closed_form(normalize(9, 1), CoveringSpec(3, (1,)))
    assert g == AbelianGroup(0, (2, 2))
    g = h1_closed_form(normalize(8, 3), CoveringSpec(6, (1, 1)))
    assert g == AbelianGroup(0, (3, 72))
    g = h1_closed_form(normalize(5, 2), CoveringSpec(3, (1,)))
    assert g == AbelianGroup(0, (4, 4))
    assert h1_closed_form(normalize(29, 12), CoveringSpec(3, (1,))) is None


def test_closed_form_reads_mirror_knots():
    # alpha = 2n beta +- 1, and the mirror has alpha - beta mod alpha instead
    for alpha, beta, n in ((11, 3, 2), (13, 3, 2), (17, 3, 3), (19, 5, 2)):
        for t in (normalize(alpha, beta), mirror(normalize(alpha, beta))):
            closed = h1_closed_form(t, CoveringSpec(n, (1,)))
            assert closed is not None and closed == h1(minkus_presentation(t, n)), t


def test_consensus_group():
    report = verify_consistency(normalize(5, 3), CoveringSpec(3, (1,)))
    assert consensus_group(report) == {"rank": 0, "torsion": [4, 4]}
    report["routes"][0]["group"] = {"rank": 0, "torsion": [7]}
    report["agree"] = routes_agree(report["routes"])
    assert report["agree"] is False and consensus_group(report) is None


def test_even_alpha_params():
    s, d, h, m, a, b = even_alpha_params(8, 6, 1)
    assert (s, d, h, m) == (1, 2, 2, 1)
    assert (a, b) == (3, 4)


def test_genus_one_params():
    hg, _, asecond = genus_one_params(5, 3)
    assert hg == -1
    assert asecond[3] == 1 - 2 * hg - hg  # A''(3) = A''(2) - h A''(1)
    assert abs(asecond[3]) == 4


def test_closed_form_matches_snf():
    # every covered case agrees with the presentation route
    for alpha in range(2, 13):
        for beta in range(1, 2 * alpha):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            for n in range(2, 9):
                if t.is_knot:
                    specs = [CoveringSpec(n, (1,))]
                else:
                    specs = [CoveringSpec(n, (1, k)) for k in range(1, n)]
                for spec in specs:
                    closed = h1_closed_form(t, spec)
                    if closed is None:
                        continue
                    if t.is_knot:
                        direct = h1(minkus_presentation(t, n))
                    else:
                        direct = h1(mu3_presentation(t, n, spec.exponents[1]))
                    assert closed == direct, (t, spec)


def test_closed_form_inverse_exponent():
    t = normalize(8, 1)
    for n in range(2, 11):
        for k in range(1, n):
            if gcd(n, k) != 1:
                continue
            a = h1_closed_form(t, CoveringSpec(n, (1, k)))
            b = h1_closed_form(t, CoveringSpec(n, (1, pow(k, -1, n))))
            assert a == b


def test_whitehead_factors():
    assert whitehead_factors(6) == (1, 3, 72)
    assert whitehead_factors(5) == (5, 5, 5)
    assert whitehead_factors(8) == (4, 4, 32)
    assert whitehead_factors(9) == (3, 9, 27)


def test_order_via_resultant():
    delta = LaurentPolynomial({0: 1, 1: -3, 2: 1})
    assert order_via_resultant(delta, 3) == 16
    delta = LaurentPolynomial({0: 1, 1: -1, 2: 1})
    assert order_via_resultant(delta, 5) == 1
    assert order_via_resultant(delta, 1) == 1
    assert order_via_resultant(alexander_polynomial(normalize(5, 3)), 3) == 16


def test_verify_consistency():
    report = verify_consistency(normalize(5, 3), CoveringSpec(3, (1,)))
    assert report["agree"]
    names = [r["route"] for r in report["routes"]]
    assert names == ["minkus", "takahashi", "polyhedral", "closed_form", "resultant"]
    for rec in report["routes"][:-1]:
        assert rec["group"] == {"rank": 0, "torsion": [4, 4]}
    assert report["routes"][-1]["order"] == 16

    report = verify_consistency(normalize(8, 3), CoveringSpec(5, (1, 2)))
    assert report["agree"]
    names = [r["route"] for r in report["routes"]]
    assert "mu3" in names and "closed_form" in names
    for rec in report["routes"]:
        assert rec["group"] == {"rank": 0, "torsion": [5, 5, 5]}

    report = verify_consistency(normalize(2, 1), CoveringSpec(7, (1, 3)))
    assert report["agree"]
    names = [r["route"] for r in report["routes"]]
    assert "mu3" in names and "lens" in names
    for rec in report["routes"]:
        assert rec["group"] == {"rank": 0, "torsion": [7]}


def test_verify_consistency_runs_named_routes():
    t, spec = normalize(5, 3), CoveringSpec(3, (1,))
    report = verify_consistency(t, spec, ["resultant", "minkus"])
    assert [r["route"] for r in report["routes"]] == ["minkus", "resultant"]
    assert report["agree"] is True
    assert verify_consistency(t, spec, [])["agree"] is None
    assert list(ROUTES) == ["minkus", "mu3", "takahashi", "polyhedral",
                            "closed_form", "lens", "resultant"]
    with pytest.raises(ValueError, match="unknown route 'bogus'; valid routes: minkus, mu3"):
        verify_consistency(t, spec, ["minkus", "bogus"])


def key(p):
    """The abelianization key h1 gives p inside a report."""
    return homology._abelian_key(p.n, homology._families(p))


def test_abelian_key_needs_whole_rotation_orbits(monkeypatch):
    # the link Minkus presentation has the fixed generator y: h1 gives it
    # no key, and a report keeps nothing for it
    monkeypatch.setattr(homology, "_groups", {})
    h1(minkus_presentation(normalize(8, 3), 4))
    assert homology._groups == {}
    monkeypatch.undo()
    # rotating x_1 x_2 by its count 2 gives x_3 x_4, so its two rows are
    # not its orbit: H_1 is Z^2, where the whole orbit gives Z
    w = word((1, 1), (2, 1))
    half, whole = CyclicPresentation(4, ((w, 2),)), CyclicPresentation(4, ((w, 4),))
    assert key(half) is None
    assert key(whole) is not None
    assert (h1(half), h1(whole)) == (AbelianGroup(2, ()), AbelianGroup(1, ()))
    # rotating x_1 x_2^-1 x_3 x_4^-1 by 1 negates its row, so one row is
    # the whole orbit up to sign, as is the one row of its shift by 1
    w = word((1, 1), (2, -1), (3, 1), (4, -1))
    assert key(CyclicPresentation(4, ((w, 1),))) == (4, ((-1, 1, -1, 1),))
    assert key(CyclicPresentation(4, ((w.shift(1, 4), 2),))) == (4, ((-1, 1, -1, 1),))


@st.composite
def invariant_presentations(draw):
    """A CyclicPresentation of degree n <= 9 whose families have rows that
    rotation by their count maps to +-themselves: the product of the shifts
    of a word by 0, c, 2c, .. for a divisor c of n, with count c, and when
    n / c is even, possibly with every other shift inverted."""
    n = draw(st.integers(1, 9))
    letters = st.tuples(st.integers(1, n), st.integers(-3, 3))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from([c for c in range(1, n + 1) if n % c == 0]))
        w0 = FreeWord(tuple(draw(st.lists(letters, max_size=6))))
        sign = -1 if n // c % 2 == 0 and draw(st.booleans()) else 1
        w = FreeWord()
        for j in range(0, n, c):
            w = w * w0.shift(j, n) ** (sign ** (j // c))
        families.append((w, c))
    return CyclicPresentation(n, tuple(families))


@settings(max_examples=200, deadline=None)
@given(invariant_presentations(), st.randoms(use_true_random=False))
def test_abelian_key_ignores_shifts_and_inverses(p, rnd):
    # the key reads each family's rows up to rotation and sign, so shifting
    # or inverting a family's word, or reordering the families, keeps it;
    # and equal keys give equal H_1
    moved = []
    for w, count in p.families:
        w = w.shift(rnd.randrange(p.n), p.n)
        moved.append((w.inverse() if rnd.random() < 0.5 else w, count))
    rnd.shuffle(moved)
    q = CyclicPresentation(p.n, tuple(moved))
    assert key(p) is not None and key(q) == key(p)
    assert h1(q) == h1(p)


def test_knot_polyhedral_key_is_the_minkus_key():
    # the schema adds the row x_1 .. x_n to the Minkus circulant; the Minkus
    # word has alpha letters of alternating sign, so its entries sum to 1,
    # the n rows sum to that row, and the key leaves it out
    count = 0
    for alpha in range(3, 26, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            t = normalize(alpha, beta)
            for n in range(2, 13):
                assert (key(homology._polyhedral_presentation(t, n, 1))
                        == key(minkus_presentation(t, n))), (t, n)
                count += 1
    assert count == 1496


def test_h1_reduces_the_rows_the_key_reads(monkeypatch):
    # h1 leaves the spanned row out of the matrix it reduces, as the key does
    shapes = []
    real = homology.smith_normal_form

    def recording(m):
        shapes.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    t = normalize(7, 3)
    assert h1(homology._polyhedral_presentation(t, 6, 1)) == h1(minkus_presentation(t, 6))
    assert shapes == [(6, 6), (6, 6)]


def without(p, family):
    return CyclicPresentation(p.n, tuple(f for f in p.families if f != family), p.fixed)


def test_unspanned_rows_are_kept_when_the_sum_is_zero():
    # mu3's Q' word sums to 0 on every link with even alpha <= 26, so its
    # rows sum to 0 and do not span Q = x_1 .. x_n at gcd(n, k) = 1
    count = 0
    for alpha in range(2, 27, 2):
        for beta in range(1, 2 * alpha, 2):
            if gcd(alpha, beta) == 1:
                (_, _), (q_prime, _) = mu3_presentation(normalize(alpha, beta), 5, 1).families
                assert sum(e for _, e in q_prime.letters) == 0, (alpha, beta)
                count += 1
    assert count == 150
    p = mu3_presentation(normalize(8, 3), 4, 1)
    q = p.families[0]
    assert q == (word((1, 1), (4, 1), (3, 1), (2, 1)), 1)
    assert len(homology._families(p)) == 2
    assert len(key(p)[1]) == 2
    # leaving Q out would change H_1 from Z_2 + Z_2 + Z_16 to one with a Z
    assert h1(p) == group_from_factors(0, [2, 2, 16])
    assert h1(without(p, q)).rank == 1


def test_unspanned_rows_are_kept_unless_the_sum_divides_them():
    # the rows x_1 x_2, x_2 x_3, x_3 x_1 sum to 2(1, 1, 1), which does not
    # span (1, 1, 1) over Z: with that row H_1 is 0, without it Z_2
    ones = (word((1, 1), (2, 1), (3, 1)), 1)
    p = CyclicPresentation(3, ((word((1, 1), (2, 1)), 3), ones))
    assert len(homology._families(p)) == 2
    assert (h1(p), h1(without(p, ones))) == (AbelianGroup(0, ()), AbelianGroup(0, (2,)))
    # twice that row is spanned, and left out
    twice = (word((1, 2), (2, 2), (3, 2)), 1)
    spanned = CyclicPresentation(3, ((word((1, 1), (2, 1)), 3), twice))
    assert homology._families(spanned) == homology._families(without(spanned, twice))
    assert len(homology._families(spanned)) == 1
    assert h1(spanned) == AbelianGroup(0, (2,))
    # at n = 1 a family of count 1 is the family of count n: it spans itself
    # but is kept, as H_1 = Z_2 shows
    single = CyclicPresentation(1, ((word((1, 2)), 1),))
    assert len(homology._families(single)) == 1
    assert h1(single) == AbelianGroup(0, (2,))
    # the shift fixes y = x_3, so the rotations of x_1 y sum to (1, 1, 2):
    # they do not span 2(1, 1, 0), and the group is Z_4, not Z
    fixed = CyclicPresentation(2, ((word((1, 1), (3, 1)), 2), (word((1, 2), (2, 2)), 1)), 1)
    assert len(homology._families(fixed)) == 2
    assert h1(fixed) == AbelianGroup(0, (4,))


@settings(max_examples=200, deadline=None)
@given(invariant_presentations().filter(lambda p: p.n > 1),
       st.lists(st.tuples(st.integers(1, 9), st.integers(-3, 3)), max_size=6),
       st.integers(-2, 2), st.randoms(use_true_random=False))
def test_spanned_constant_family_keeps_key_and_h1(p, letters, m, rnd):
    # a full family u, whose n rows sum to s(1, .., 1), s the entry sum of
    # u, spans any constant row m s (1, .., 1), in any letter order
    n = p.n
    u = FreeWord(tuple(((i - 1) % n + 1, e) for i, e in letters))
    s = sum(e for _, e in u.letters)
    if s == 0:
        u, s = u * word((1, 1)), 1
    spanning = CyclicPresentation(n, p.families + ((u, n),))
    constant = [(i, m * s) for i in range(1, n + 1)]
    rnd.shuffle(constant)
    families = list(spanning.families)
    families.insert(rnd.randrange(len(families) + 1), (FreeWord(tuple(constant)), 1))
    q = CyclicPresentation(n, tuple(families))
    assert key(q) == key(spanning) is not None
    factors = smith_normal_form(IntMatrix(n, q.expand().relator_matrix()))
    assert h1(q) == h1(spanning) == AbelianGroup(n - len(factors),
                                                 tuple(d for d in factors if d > 1))


def test_groups_are_kept_only_while_a_report_is_built(monkeypatch):
    t, spec = normalize(5, 3), CoveringSpec(3, (1,))
    seen = []

    def failing_lens(t, spec):
        seen.append(dict(homology._groups))
        raise RuntimeError("planted")

    assert homology._groups is None
    verify_consistency(t, spec)
    assert homology._groups is None
    # a route called on its own keeps nothing either
    ROUTES["takahashi"](t, spec)
    assert homology._groups is None
    monkeypatch.setitem(ROUTES, "lens", failing_lens)
    with pytest.raises(RuntimeError, match="planted"):
        verify_consistency(t, spec)
    # minkus, takahashi and polyhedral share one key
    assert len(seen) == 1 and len(seen[0]) == 1
    assert homology._groups is None


def test_a_report_abelianizes_each_presentation_once(monkeypatch):
    # every h1 call of a report reads its presentation's family words into
    # one table, and the key reads that table; nothing expands a
    # presentation or abelianizes its relators one by one
    presented, tables, keyed = [], [], []
    real_h1, real_families, real_key = homology.h1, homology._families, homology._abelian_key

    def counting_h1(p):
        presented.append(p)
        return real_h1(p)

    def reading(p):
        tables.append((p, real_families(p)))
        return tables[-1][1]

    def keying(n, families):
        keyed.append(families)
        return real_key(n, families)

    def never(*args):
        raise AssertionError("a presentation was abelianized again")

    monkeypatch.setattr(homology, "h1", counting_h1)
    monkeypatch.setattr(homology, "_families", reading)
    monkeypatch.setattr(homology, "_abelian_key", keying)
    monkeypatch.setattr(Presentation, "relator_matrix", never)
    monkeypatch.setattr(CyclicPresentation, "expand", never)
    # a knot, a link at k = 1 (its Minkus presentation has no key) and a
    # link at k = 3: 3 + 3 + 2 presentations, 7 of them keyed
    for t, spec in ((normalize(5, 3), CoveringSpec(3, (1,))),
                    (normalize(10, 3), CoveringSpec(5, (1, 1))),
                    (normalize(8, 3), CoveringSpec(4, (1, 3)))):
        assert verify_consistency(t, spec)["agree"] is True
    assert [p for p, _ in tables] == presented and len(presented) == 8
    assert len(keyed) == 7
    assert all(any(families is table for _, table in tables) for families in keyed)


@st.composite
def coverings(draw):
    """A 2-bridge knot or link with alpha <= 40 and a covering of degree
    n <= 12; a link gets any two exponents that generate Z_n."""
    alpha = draw(st.integers(2, 40))
    beta = draw(st.integers(1, 2 * alpha - 1).filter(lambda b: gcd(alpha, b) == 1))
    t = normalize(alpha, beta)
    n = draw(st.integers(2, 12))
    k = st.integers(1, n - 1)
    exponents = draw((st.tuples(k) if t.is_knot else st.tuples(k, k))
                     .filter(lambda ks: gcd(n, *ks) == 1))
    return t, CoveringSpec(n, exponents)


@settings(max_examples=150, deadline=None)
@given(coverings())
def test_routes_never_disagree(case):
    t, spec = case
    assert verify_consistency(t, spec)["agree"] is not False


@st.composite
def knot_degrees(draw):
    """A 2-bridge knot with alpha < 40 and a degree n <= 12."""
    alpha = draw(st.integers(1, 19).map(lambda h: 2 * h + 1))
    beta = draw(st.integers(1, 2 * alpha - 1).filter(lambda b: gcd(alpha, b) == 1))
    return normalize(alpha, beta), draw(st.integers(1, 12))


@st.composite
def resultant_inputs(draw):
    """An Alexander polynomial with odd alpha < 40 (alpha = 1 is the
    unknot, Delta = 1) or any integer polynomial of degree <= 8, with a
    degree n <= 12."""
    if draw(st.booleans()):
        alpha = draw(st.integers(0, 19).map(lambda h: 2 * h + 1))
        if alpha == 1:
            delta = LaurentPolynomial({0: 1})
        else:
            beta = draw(st.integers(1, 2 * alpha - 1).filter(lambda b: gcd(alpha, b) == 1))
            delta = alexander_polynomial(normalize(alpha, beta))
    else:
        coeffs = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=9)
                      .filter(any))
        delta = LaurentPolynomial(dict(enumerate(coeffs)))
    return delta, draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(resultant_inputs())
@example((LaurentPolynomial({0: 1}), 5))
def test_resultant_against_sylvester(case):
    delta, n = case
    assert order_via_resultant(delta, n) == sylvester_order(delta, n)


def test_resultant_at_large_degree():
    delta = alexander_polynomial(normalize(29, 12))
    start = time.monotonic()
    order = order_via_resultant(delta, 1280)
    assert time.monotonic() - start < 1.0
    assert order == h1(minkus_presentation(normalize(29, 12), 1280)).order()


@settings(max_examples=150, deadline=None)
@given(knot_degrees())
def test_h1_order_is_resultant(case):
    t, n = case
    g = h1(minkus_presentation(t, n))
    want = order_via_resultant(alexander_polynomial(t), n)
    assert (g.order() if g.rank == 0 else "infinite") == want


@settings(max_examples=150, deadline=None)
@given(coverings())
def test_polyhedral_route_schemas_have_chi_zero(case):
    t, spec = case
    built = []
    real = homology.build_minkus

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    homology.build_minkus = recording
    try:
        ROUTES["polyhedral"](t, spec)
    finally:
        homology.build_minkus = real
    assert len(built) == (spec.single is not None)
    for schema in built:
        assert quotient_counts(schema).chi == 0
