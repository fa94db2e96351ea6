"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own linear algebra and use
``fractions.Fraction`` with naive elimination, so frozen expected values
were produced by a second, independent code path.
"""

from fractions import Fraction

import pytest

from mahlerlift import corpus_path, load_system
from mahlerlift.polyring import Poly, RatFunc, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import MahlerSystem


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


def frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def oracle_rank_nullity(rows):
    """Naive Fraction-based Gaussian elimination, independent of the library."""
    work = [[frac(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for c in range(ncols):
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
        rank += 1
    return rank, ncols - rank


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
