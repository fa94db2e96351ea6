import random

import pytest

from mahlerlift.errors import PoleAtOrigin
from mahlerlift.polyring import Poly, RatFunc, TruncSeries, series_of_ratfunc
from mahlerlift.scalars import QQ

from conftest import euclid_gcd, series_times_poly


def test_substitute_power_examples():
    assert Poly([1, 1]).substitute_power(2) == Poly([1, 0, 1])
    assert Poly([0, 0, 0, 1]).substitute_power(3) == Poly.monomial(9)


def test_series_of_ratfunc_examples():
    geo = series_of_ratfunc(RatFunc(Poly([1]), Poly([1, -1])), 4)
    assert geo == TruncSeries([1, 1, 1, 1])
    assert series_of_ratfunc(RatFunc(Poly([1, -1])), 4) == TruncSeries([1, -1, 0, 0])
    with pytest.raises(PoleAtOrigin):
        series_of_ratfunc(RatFunc(Poly([1]), Poly([0, 1])), 4)


def test_series_division_postcondition():
    rng = random.Random(1)
    for _ in range(25):
        num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        den = Poly([rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(3)])
        r = RatFunc(num, den)
        N = 24
        s = series_of_ratfunc(r, N)
        lhs = series_times_poly(s, r.den)
        assert all(lhs[i] == r.num[i] for i in range(N))


def _rand_poly(rng, deg=5):
    return Poly([QQ(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(0, deg))])


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = _rand_poly(rng), _rand_poly(rng), _rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_substitute_power_is_morphism():
    rng = random.Random(4)
    for _ in range(20):
        a, b = _rand_poly(rng), _rand_poly(rng)
        q = rng.choice([2, 3, 5])
        assert (a * b).substitute_power(q) == a.substitute_power(q) * b.substitute_power(q)
        assert (a + b).substitute_power(q) == a.substitute_power(q) + b.substitute_power(q)


def test_ratfunc_normalization_structural_equality():
    r1 = RatFunc(Poly([2]), Poly([2, 2]))
    r2 = RatFunc(Poly([1]), Poly([1, 1]))
    assert r1 == r2
    assert r1.den.leading() == 1
    r3 = RatFunc(Poly([0, 2, 2]), Poly([0, 0, 4]))  # (2z + 2z^2) / 4z^2
    assert r3.num == Poly([QQ(1, 2), QQ(1, 2)]) and r3.den == Poly([0, 1])
    assert hash(r1) == hash(r2)


def test_ratfunc_constant_denominator_skips_gcd_same_normal_form():
    """A constant denominator takes no gcd; the result equals, in value and in hash,
    the same function built with a common non-constant factor, which does."""
    rng = random.Random(5)
    for _ in range(20):
        num = _rand_poly(rng)
        c = QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        g = Poly([QQ(rng.randint(-9, 9), rng.randint(1, 9)), 0, QQ(rng.randint(1, 9), 2)])
        fast = RatFunc(num, Poly([c]))
        slow = RatFunc(num * g, Poly([c]) * g)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.den == Poly.one() and fast.num == num.scale(1 / c)
        assert fast.to_json() == slow.to_json()


def test_gcd_matches_euclid_over_q():
    """The integer remainder sequence gives the monic gcd of the Euclidean
    algorithm over Q: planted common factors, zero and constant sides,
    negative leading coefficients and coefficients with large denominators."""
    rng = random.Random(6)
    planted = 0
    for _ in range(300):
        a, b = _rand_poly(rng, 6), _rand_poly(rng, 6)
        h = _rand_poly(rng, 4) if rng.random() < 0.7 else Poly.one()
        if rng.random() < 0.2:
            h = h * Poly([QQ(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)), 1])
        a, b = a * h, b * h
        got = a.gcd(b)
        assert got == euclid_gcd(a, b) == b.gcd(a)
        assert got.is_zero() or got.leading() == 1
        planted += got.degree > 0
    assert planted > 100
    assert Poly().gcd(Poly()) == Poly()
    assert Poly().gcd(Poly([0, -2])) == Poly([0, 1])
    assert Poly([QQ(3, 7)]).gcd(Poly([1, 1])) == Poly.one()


def test_constructors_convert_non_rationals():
    for make in (Poly, TruncSeries):
        got = make([1, "3/4", True, False, QQ(-2, 6)]).coeffs
        assert got[:4] == (QQ(1), QQ(3, 4), QQ(1), QQ(0))
        assert all(type(c) is QQ for c in got)
    assert Poly([QQ(0), 2, "0"]).coeffs == (QQ(0), QQ(2))
    kept = QQ(5, 7)
    assert TruncSeries([kept]).coeffs[0] is kept


def test_series_truncation_rules():
    a = TruncSeries([1, 2, 3, 4])
    b = TruncSeries([1, 1])
    assert (a + b).order == 2
    assert (a * b) == TruncSeries([1, 3])
    assert a.truncate(2).coeffs == (1, 2)


def test_poly_division_and_gcd():
    a = Poly([1, 0, -1])      # 1 - z^2
    b = Poly([1, 1])          # 1 + z
    q, r = a.divmod(b)
    assert q * b + r == a and r.is_zero()
    assert a.gcd(b) == Poly([1, 1])
    assert Poly([0, 1]).lcm(Poly([0, 0, 1])) == Poly([0, 0, 1])
