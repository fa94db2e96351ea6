"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own linear algebra and use
``fractions.Fraction`` with naive elimination, so frozen expected values
were produced by a second, independent code path.
"""

import random
from fractions import Fraction

import pytest

from mahlerlift import corpus_path, load_system
from mahlerlift.polyring import Poly, RatFunc, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import MahlerSystem, certify_regular


@pytest.fixture(scope="session")
def half():
    return QQ(1, 2)


@pytest.fixture(scope="session")
def trivial():
    """m = 1, A = [1]: every iterate value is (1, alpha^{q^k})."""
    return MahlerSystem(q=2, m=1, A=((RatFunc.one(),),), f0=(QQ(1),),
                        coeff_bound=(QQ(1), QQ(1)), name="trivial")


@pytest.fixture(scope="session")
def thue_morse():
    return load_system(str(corpus_path("thue_morse")))


@pytest.fixture(scope="session")
def cantor2():
    return load_system(str(corpus_path("cantor2")))


@pytest.fixture(scope="session")
def cantor3():
    return load_system(str(corpus_path("cantor3")))


@pytest.fixture(scope="session")
def shrinking16():
    """A = [1 - 16 z], q = 2: singular exactly at z = 1/16."""
    return MahlerSystem(q=2, m=1, A=((RatFunc(Poly([1, -16])),),), f0=(QQ(1),),
                        name="shrinking16")


@pytest.fixture(scope="session")
def random_system():
    """A seeded m = 2, q = 3 system whose entries have negative, non-integer
    coefficients and non-constant denominators, with a point where it is regular."""
    rng = random.Random(2210)

    def rat():
        return QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 7))

    A = tuple(tuple(RatFunc(Poly([rat(), rat()]), Poly([1, rat()])) for _ in range(2))
              for _ in range(2))
    sys_ = MahlerSystem(q=3, m=2, A=A, name="random")
    alpha = QQ(-2, 7)
    assert certify_regular(sys_, alpha).regular
    return sys_, alpha


def frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _oracle_rref(rows):
    """Naive Fraction Gauss-Jordan: (pivot columns, reduced nonzero rows, column count)."""
    work = [[frac(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        piv = None
        for r in range(rank, len(work)):
            if work[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][c]
        work[rank] = [v / inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c] != 0:
                f = work[r][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        pivots.append(c)
    return pivots, work[:len(pivots)], ncols


def oracle_rank_nullity(rows):
    """Naive Fraction-based Gaussian elimination, independent of the library."""
    pivots, _, ncols = _oracle_rref(rows)
    return len(pivots), ncols - len(pivots)


def oracle_kernel(rows, ncols):
    """Reduced-echelon kernel basis as dense Fraction vectors, one per free column.

    The vector of free column f has a 1 at f and minus the reduced entry of
    column f at each pivot column.
    """
    pivots, red, _ = _oracle_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def oracle_box_value(mat, x, nu, lam):
    """mat^nu x^lam by Fraction products, one factor at a time.

    nu is the exponent matrix flattened row by row, as in the library's
    monomial basis.
    """
    v = Fraction(1)
    for a, e in zip((frac(a) for row in mat for a in row), nu):
        for _ in range(e):
            v *= a
    for _ in range(lam):
        v *= frac(x)
    return v


def oracle_box_row(entries, mat, x):
    """The evaluation row at (mat, x) over the (nu, lam) columns of ``entries``."""
    return [oracle_box_value(mat, x, nu, lam) for nu, lam in entries]


def oracle_det(mat):
    """Determinant by Laplace expansion; fine for n <= 4."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * oracle_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def series_times_poly(s, p):
    """Schoolbook product of a truncated series and a polynomial, at the series' order."""
    out = [QQ(0)] * s.order
    for i, a in enumerate(p.coeffs):
        for j in range(s.order - i):
            out[i + j] += a * s[j]
    return TruncSeries(out)


# Reference arithmetic over Q(z), written with the RatFunc constructor only:
# every product and sum is reduced by a gcd, as the library did before it
# computed cocycles and Kronecker powers on cleared polynomials.

def ratfunc_mul(a, b):
    return RatFunc(a.num * b.num, a.den * b.den)


def ratfunc_add(a, b):
    return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)


def ratfunc_mat_mul(A, B):
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = RatFunc.zero()
            for a, brow in zip(row, B):
                acc = ratfunc_add(acc, ratfunc_mul(a, brow[j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def ratfunc_substitute_power(A, power):
    """Entrywise z -> z^power."""
    if power == 1:
        return A
    return tuple(tuple(RatFunc(e.num.substitute_power(power), e.den.substitute_power(power))
                       for e in row) for row in A)


def euclid_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over Q, one rational operation at a time."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def reference_cocycle(sys_, k):
    """A(z) A(z^q) ... A(z^{q^{k-1}}) by products over Q(z), one gcd per operation."""
    m = sys_.m
    out = tuple(tuple(RatFunc.one() if i == j else RatFunc.zero() for j in range(m))
                for i in range(m))
    for t in range(k):
        out = ratfunc_mat_mul(out, ratfunc_substitute_power(sys_.A, sys_.q ** t))
    return out


def reference_det(mat):
    """Determinant over Q(z) by elimination with division, one gcd per operation."""
    n = len(mat)
    work = [list(row) for row in mat]
    result = RatFunc.one()
    for c in range(n):
        sel = next((i for i in range(c, n) if work[i][c].num), None)
        if sel is None:
            return RatFunc.zero()
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            result = RatFunc(-result.num, result.den)
        piv = work[c][c]
        result = ratfunc_mul(result, piv)
        for i in range(c + 1, n):
            a = work[i][c]
            if a.num:
                f = RatFunc(-(a.num * piv.den), a.den * piv.num)  # -a / piv
                work[i] = [ratfunc_add(x, ratfunc_mul(f, y)) for x, y in zip(work[i], work[c])]
    return result
