import random

import pytest

from mahlerlift.errors import (InsufficientOrder, MissingCoeffBound, NoLiftAtDegree,
                               RhoAlphaNotContracting, ValueRelationRefuted)
from mahlerlift import linalg
from mahlerlift.lifting import (ValueRelation, guess_function_relations,
                                lift_linear_relation, relation_residual_order,
                                verify_value_relation)
from mahlerlift.polyring import Poly, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import MahlerSystem, solve_series

from conftest import series_times_poly


def test_guess_cantor3_line(cantor3):
    f = solve_series(cantor3, 64)
    basis = guess_function_relations(f, 1, 64)
    assert basis.dimension == 1
    assert basis.basis[0] == (Poly([1]), Poly([-1]), Poly([0, 1]))


def test_guess_no_relation(cantor2):
    f = solve_series(cantor2, 64)
    basis = guess_function_relations(f, 3, 64)
    assert basis.dimension == 0


def test_guess_duplicate_coordinates(cantor2):
    f = solve_series(cantor2, 64)
    g = (f[0], f[0], f[1])
    basis = guess_function_relations(g, 0, 64)
    assert (Poly([1]), Poly([-1]), Poly([])) in basis.basis


def test_guess_insufficient_order(cantor3):
    f = solve_series(cantor3, 20)
    with pytest.raises(InsufficientOrder):
        guess_function_relations(f, 1, 20)


def test_guess_basis_invariant_under_order_increase(cantor3):
    f = solve_series(cantor3, 96)
    b64 = guess_function_relations(f, 1, 64)
    b96 = guess_function_relations(f, 1, 96)
    assert b64.basis == b96.basis


def _oracle_guess_basis(f, D, N):
    """Reference: the component-major convolution matrix, unknown i * (D + 1) + t."""
    m = len(f)
    rows = [[fi[n - t] if n >= t else QQ(0) for fi in f for t in range(D + 1)]
            for n in range(N)]
    _, dense = linalg.nullspace_dense(rows, m * (D + 1))
    _, reduced = linalg.rref(dense)
    return tuple(tuple(Poly(vec[i * (D + 1):(i + 1) * (D + 1)]) for i in range(m))
                 for vec in reduced)


def test_guess_matches_component_major_oracle(cantor2, cantor3):
    rng = random.Random(9001)
    base = solve_series(cantor2, 64) + solve_series(cantor3, 64)
    for _ in range(40):
        m = rng.randint(1, 4)
        f = [rng.choice(base) for _ in range(m)]  # repeats are likely
        if rng.random() < 0.5:  # a planted relation with polynomial coefficients
            i, j = rng.randrange(m), rng.randrange(m)
            p = Poly([QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
            f[i] = f[i] + series_times_poly(f[j], p)
        D = rng.randint(0, 3)
        N = m * (D + 1) + 16 + rng.randint(0, 8)
        got = guess_function_relations(tuple(f), D, N)
        assert got.basis == _oracle_guess_basis(f, D, N)


def test_verify_examples(cantor3, half):
    f = solve_series(cantor3, 33)
    ok = verify_value_relation(cantor3, f,
                               ValueRelation((QQ(1), QQ(-1), QQ(1, 2)), half), 32)
    assert ok.verified and ok.partial_sum == 0
    bad = verify_value_relation(cantor3, f,
                                ValueRelation((QQ(1), QQ(-1), QQ(0)), half), 32)
    assert bad.status == "refuted"
    assert bad.partial_sum == QQ(-1, 2)
    assert bad.tail_bound <= QQ(3, 2 ** 31)
    zero = verify_value_relation(cantor3, f, ValueRelation((QQ(0),) * 3, half), 32)
    assert zero.verified and zero.partial_sum == 0


def test_verify_preconditions(cantor3, half):
    f = solve_series(cantor3, 33)
    nobound = MahlerSystem(q=2, m=3, A=cantor3.A, f0=cantor3.f0, name="nb")
    with pytest.raises(MissingCoeffBound):
        verify_value_relation(nobound, f, ValueRelation((QQ(1),) * 3, half), 16)
    with pytest.raises(RhoAlphaNotContracting):
        verify_value_relation(cantor3, f, ValueRelation((QQ(1),) * 3, QQ(1)), 16)


def test_lift_examples(cantor3, half):
    tau = (QQ(1), QQ(-1), QQ(1, 2))
    lift = lift_linear_relation(cantor3, half, tau, 1, 64)
    assert lift.coefficients == (Poly([1]), Poly([-1]), Poly([0, 1]))
    assert lift.residual_order >= 63
    zero = lift_linear_relation(cantor3, half, (QQ(0),) * 3, 1, 64)
    assert all(p.is_zero() for p in zero.coefficients)
    with pytest.raises(NoLiftAtDegree):
        lift_linear_relation(cantor3, half, (QQ(1), QQ(-1), QQ(0)), 1, 64,
                             override=True)
    with pytest.raises(ValueRelationRefuted):
        lift_linear_relation(cantor3, half, (QQ(1), QQ(-1), QQ(0)), 1, 64)


def test_lift_roundtrip_on_span(cantor3, half):
    # lifting tau = sum c_j B_j(alpha) recovers a lift specializing to tau
    f = solve_series(cantor3, 65)
    basis = guess_function_relations(f, 1, 64)
    rng = random.Random(11)
    for _ in range(5):
        cs = [QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in basis.basis]
        tau = [QQ(0)] * 3
        for c, vec in zip(cs, basis.basis):
            for i in range(3):
                tau[i] += c * vec[i](half)
        lift = lift_linear_relation(cantor3, half, tuple(tau), 1, 64)
        assert tuple(p(half) for p in lift.coefficients) == tuple(tau)
        assert lift.residual_order >= 64


def test_basis_specializations_never_refuted(cantor3, half):
    f = solve_series(cantor3, 65)
    basis = guess_function_relations(f, 1, 64)
    for vec in basis.basis:
        tau = tuple(p(half) for p in vec)
        out = verify_value_relation(cantor3, f, ValueRelation(tau, half), 48)
        assert out.status != "refuted"


def test_lift_zero_partial_sum_never_refuted(cantor3, half):
    f = solve_series(cantor3, 33)
    out = verify_value_relation(cantor3, f, ValueRelation((QQ(0),) * 3, half), 32)
    assert out.status == "verified"


def _dense_residual_order(coefficients, f):
    """Reference: first nonzero coefficient of sum_i L_i f_i over dense truncated products."""
    order = min(s.order for s in f)
    acc = TruncSeries.zero(order)
    for Li, fi in zip(coefficients, f):
        acc = acc + series_times_poly(fi.truncate(order), Li)
    idx = acc.first_nonzero()
    return order if idx is None else idx


def test_relation_residual_order_matches_dense(cantor3):
    f = solve_series(cantor3, 64)
    line = (Poly([1]), Poly([-1]), Poly([0, 1]))
    assert relation_residual_order(line, f) == _dense_residual_order(line, f) == 64
    rng = random.Random(17)
    for _ in range(60):
        m = rng.randint(1, 3)
        g = tuple(TruncSeries([QQ(rng.randint(-2, 2)) for _ in range(rng.randint(1, 40))])
                  for _ in range(m))
        L = tuple(Poly([QQ(rng.randint(-3, 3), rng.randint(1, 2)) * rng.randint(0, 1)
                        for _ in range(rng.randint(0, 6))]) for _ in range(m))
        assert relation_residual_order(L, g) == _dense_residual_order(L, g)
    # multiples R * line of the relation, each with one corrupted coefficient
    for _ in range(20):
        R = Poly([QQ(rng.randint(-3, 3)) for _ in range(rng.randint(1, 9))]) or Poly([1])
        L = tuple(R * p for p in line)
        i, n = rng.randrange(3), rng.randrange(64)
        bad = list(f[i].coeffs)
        bad[n] += 1
        g = f[:i] + (TruncSeries(bad),) + f[i + 1:]
        assert relation_residual_order(L, f) == 64
        got = relation_residual_order(L, g)
        assert got == _dense_residual_order(L, g) == min(64, n + L[i].strip_origin_root()[0])


def test_lift_contract_raises_on_wrong_solve(cantor3, half, monkeypatch):
    monkeypatch.setattr(linalg, "solve_particular", lambda A, b: (QQ(0),) * len(A[0]))
    with pytest.raises(AssertionError, match="specialize"):
        lift_linear_relation(cantor3, half, (QQ(1), QQ(-1), QQ(1, 2)), 1, 64)
