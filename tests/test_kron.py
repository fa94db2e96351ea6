import random

import pytest

from mahlerlift import linalg
from mahlerlift.errors import NonHomogeneousPolynomial, SizeBudgetExceeded
from mahlerlift.kron import (HomogeneousPoly, MonomialIndexMap, kron, kron_power,
                             kron_system, lift_algebraic_relation, parse_homogeneous)
from mahlerlift.polyring import Poly, RatFunc, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import MahlerSystem, certify_regular, solve_series

from conftest import oracle_det, ratfunc_mul, series_times_poly


def _eye(n):
    return tuple(tuple(QQ(1) if i == j else QQ(0) for j in range(n)) for i in range(n))


def test_kron_examples():
    assert kron(_eye(2), _eye(2)) == _eye(4)
    A = ((QQ(1), QQ(2)), (QQ(3), QQ(4)))
    B = ((QQ(0), QQ(1)), (QQ(1), QQ(0)))
    assert kron(A, B) == ((QQ(0), QQ(1), QQ(0), QQ(2)),
                          (QQ(1), QQ(0), QQ(2), QQ(0)),
                          (QQ(0), QQ(3), QQ(0), QQ(4)),
                          (QQ(3), QQ(0), QQ(4), QQ(0)))
    C = ((QQ(5),),)
    assert kron(A, C) == ((QQ(5), QQ(10)), (QQ(15), QQ(20)))


def test_kron_power_examples(cantor2):
    A = ((QQ(1), QQ(2)), (QQ(3), QQ(4)))
    assert kron_power(A, 1) == A
    got = kron_system(cantor2, 2).A
    z = RatFunc(Poly([0, 1]))
    z2 = RatFunc(Poly([0, 0, 1]))
    one, zero = RatFunc.one(), RatFunc.zero()
    assert got == ((one, z, z, z2),
                   (zero, one, zero, z),
                   (zero, zero, one, z),
                   (zero, zero, zero, one))
    assert linalg.det(kron_power(A, 2)) == QQ(16)  # (det A)^{2*2} = (-2)^4
    with pytest.raises(SizeBudgetExceeded):
        kron_power(A, 9)


def test_kron_system_matches_entrywise_products(cantor2, cantor3, thue_morse):
    """Entry (r, c) of A^(x)d is the product over the base-m digits of r and c
    of the entries of A, here multiplied over Q(z) one gcd at a time."""
    rng = random.Random(77)

    def rat():
        return QQ(rng.randint(-5, 5), rng.randint(1, 4))

    def entry():
        den = Poly([rat() or 1, rat(), 1]) if rng.random() < 0.6 else Poly.one()
        return RatFunc(Poly([rat() for _ in range(rng.randint(1, 3))]), den)

    randoms = []
    while len(randoms) < 3:
        m = len(randoms) + 1
        try:
            randoms.append(MahlerSystem(q=2, m=m, A=tuple(tuple(entry() for _ in range(m))
                                                          for _ in range(m))))
        except ValueError:
            pass  # det A vanished identically
    for sys_ in (cantor2, cantor3, thue_morse, *randoms):
        m = sys_.m
        for d in (1, 2, 3):
            if m ** d > (27 if sys_.name else 4):  # det over Q[z] of a rational 8 x 8 is slow
                continue
            got = kron_system(sys_, d).A
            for r in range(m ** d):
                for c in range(m ** d):
                    expect, rr, cc = RatFunc.one(), r, c
                    for _ in range(d):  # digits from the last factor of the left fold
                        expect = ratfunc_mul(sys_.A[rr % m][cc % m], expect)
                        rr, cc = rr // m, cc // m
                    assert got[r][c] == expect and hash(got[r][c]) == hash(expect)


def _rand_mat(rng, n):
    return tuple(tuple(QQ(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n))


def test_mixed_product_and_det_identities_random():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.choice([2, 3])
        A, B, C, D = (_rand_mat(rng, n) for _ in range(4))
        lhs = kron(linalg.mat_mul(A, B), linalg.mat_mul(C, D))
        rhs = linalg.mat_mul(kron(A, C), kron(B, D))
        assert lhs == rhs
        dAB = oracle_det(kron(A, B)) if n == 2 else None
        if dAB is not None:
            assert dAB == oracle_det(A) ** n * oracle_det(B) ** n
        assert linalg.det(kron(A, B)) == linalg.det(A) ** n * linalg.det(B) ** n


def test_index_map_partition():
    imap = MonomialIndexMap(3, 2)
    assert sum(len(c) for c in imap.classes) == 9
    flat = sorted(i for c in imap.classes for i in c)
    assert flat == list(range(9))
    assert all(rep == min(cls) for rep, cls in zip(imap.reps, imap.classes))
    assert all(sum(lam) == 2 for lam in imap.lambdas)


def test_kron_system_solution_is_products(cantor2):
    ks = kron_system(cantor2, 2)
    base = solve_series(cantor2, 32)
    f = solve_series(ks, 32)
    imap = MonomialIndexMap(2, 2)
    expect = imap.coordinate_series(base, 32)
    assert f == expect
    # duplicate coordinates inside one class carry the same series
    for cls in imap.classes:
        for i in cls[1:]:
            assert f[i] == f[cls[0]]
    # the (1,1) coordinate is g^2: check the functional identity at low order
    g = base[0]
    gsq = g * g
    assert f[0] == gsq


def test_kron_system_certificate_transfer(cantor3, half):
    base = certify_regular(cantor3, half)
    lifted = certify_regular(kron_system(cantor3, 2), half)
    assert base.regular and lifted.regular


def test_kron_coeff_bound_is_sound(cantor2):
    ks = kron_system(cantor2, 2)
    C, rho = ks.coeff_bound
    f = solve_series(ks, 200)
    for s in f:
        for n, c in enumerate(s.coeffs):
            assert abs(c) <= C * rho ** n


def test_parse_homogeneous():
    P = parse_homogeneous("X1*X3 - X2*X3 + 1/2*X3^2", 3)
    assert P.degree == 2
    assert P.terms == {(1, 0, 1): QQ(1), (0, 1, 1): QQ(-1), (0, 0, 2): QQ(1, 2)}
    sq = parse_homogeneous("(X1 - X2 + 1/2*X3)^2", 3)
    assert sq.degree == 2 and sq.terms[(2, 0, 0)] == QQ(1)
    assert sq.terms[(1, 1, 0)] == QQ(-2)
    with pytest.raises(NonHomogeneousPolynomial):
        parse_homogeneous("X1 + X2^2", 2)
    with pytest.raises(ValueError):
        parse_homogeneous("X9", 3)
    with pytest.raises(ValueError):
        parse_homogeneous("X1 $ X2", 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_homogeneous("1/0*X1^2", 2)
    assert parse_homogeneous("3/0002*X1", 1).terms == {(1,): QQ(3, 2)}


def test_lift_algebraic_main_example(cantor3, half):
    P = parse_homogeneous("X1*X3 - X2*X3 + 1/2*X3^2", 3)
    out = lift_algebraic_relation(cantor3, half, P, 1, 48)
    coeffs = dict(out.coeffs)
    assert coeffs[(1, 0, 1)] == Poly([1])
    assert coeffs[(0, 1, 1)] == Poly([-1])
    assert coeffs[(0, 0, 2)] == Poly([0, 1])
    assert out.residual_order >= 48
    assert out.specialize(half) == P


def test_lift_algebraic_degree_one_consistency(cantor3, half):
    from mahlerlift.lifting import lift_linear_relation

    P = parse_homogeneous("X1 - X2 + 1/2*X3", 3)
    out = lift_algebraic_relation(cantor3, half, P, 1, 64)
    linear = lift_linear_relation(cantor3, half, (QQ(1), QQ(-1), QQ(1, 2)), 1, 64)
    got = dict(out.coeffs)
    expect = {}
    for i, p in enumerate(linear.coefficients):
        if not p.is_zero():
            lam = [0, 0, 0]
            lam[i] = 1
            expect[tuple(lam)] = p
    assert got == expect


def test_lift_algebraic_square(cantor3, half):
    P = parse_homogeneous("(X1 - X2 + 1/2*X3)^2", 3)
    out = lift_algebraic_relation(cantor3, half, P, 1, 48)
    # some valid lift: exact specialization and high-order vanishing
    assert out.specialize(half) == P
    assert out.residual_order >= 48
    f = solve_series(cantor3, 49)
    comb = TruncSeries.zero(49)
    for lam, p in out.coeffs:  # sum_lambda p_lambda(z) prod_i f_i^lambda_i
        mono = TruncSeries.from_poly(Poly.one(), 49)
        for fi, e in zip(f, lam):
            for _ in range(e):
                mono = mono * fi
        comb = comb + series_times_poly(mono, p)
    assert comb.first_nonzero() is None


def test_homogeneous_poly_evaluate():
    P = HomogeneousPoly(2, {(2, 0): QQ(1), (0, 2): QQ(-1)})
    assert P.evaluate((QQ(3), QQ(2))) == QQ(5)
