import json

import pytest

from mahlerlift import (augment_with_unit, certify_regular, cocycle, eval_cocycle,
                        solve_series, system_from_json, system_to_json,
                        verify_solution)
from mahlerlift.errors import (AlphaOutOfRange, AmbiguousInitialVector,
                               DegreeBudgetExceeded, InconsistentInitialVector,
                               NotRegularAt, PoleAtOrigin)
from mahlerlift.polyring import Poly, RatFunc, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import EvalChain, MahlerSystem


def test_cocycle_examples(cantor2, thue_morse):
    mats = cocycle(cantor2, 2)
    assert mats[0][1] == RatFunc(Poly([0, 1, 1]))  # z + z^2
    assert mats[0][0] == RatFunc.one() and mats[1][0] == RatFunc.zero()
    ident = cocycle(cantor2, 0)
    assert ident[0][0] == RatFunc.one() and ident[0][1] == RatFunc.zero()
    tm3 = cocycle(thue_morse, 3)
    expect = Poly([1, -1]) * Poly([1, 0, -1]) * Poly([1, 0, 0, 0, -1])
    assert tm3[0][0] == RatFunc(expect)


def test_cocycle_budget(thue_morse):
    with pytest.raises(DegreeBudgetExceeded):
        cocycle(thue_morse, 40)


def test_eval_cocycle_examples(cantor2, thue_morse, half):
    vals = eval_cocycle(cantor2, half, 2)
    assert vals == ((QQ(1), QQ(3, 4)), (QQ(0), QQ(1)))
    assert eval_cocycle(cantor2, half, 0) == ((QQ(1), QQ(0)), (QQ(0), QQ(1)))
    assert eval_cocycle(thue_morse, half, 2) == ((QQ(3, 8),),)


def test_eval_matches_symbolic(cantor2, cantor3, thue_morse, half):
    for sys_ in (cantor2, cantor3, thue_morse):
        for k in range(5):
            sym = cocycle(sys_, k)
            num = eval_cocycle(sys_, half, k)
            for i in range(sys_.m):
                for j in range(sys_.m):
                    assert sym[i][j](half) == num[i][j]


def test_cocycle_identity(cantor2, cantor3, thue_morse, half):
    for sys_ in (cantor2, cantor3, thue_morse):
        for k in range(4):
            for ell in range(4 - k):
                lhs = cocycle(sys_, k + ell)
                a = cocycle(sys_, k)
                b = cocycle(sys_, ell)
                power = sys_.q ** k
                if power > 1:
                    b = tuple(tuple(e.substitute_power(power) for e in row) for row in b)
                rhs = [[sum((a[i][t] * b[t][j] for t in range(sys_.m)),
                            RatFunc.zero()) for j in range(sys_.m)]
                       for i in range(sys_.m)]
                assert all(lhs[i][j] == rhs[i][j]
                           for i in range(sys_.m) for j in range(sys_.m))


def test_solve_thue_morse_vs_product_oracle(thue_morse):
    f = solve_series(thue_morse, 8)
    assert f[0].coeffs == (1, -1, -1, 1, -1, 1, 1, -1)
    # independent oracle: multiply the finite product directly
    prod = Poly([1])
    for n in range(7):
        prod = prod * Poly([1] + [0] * (2 ** n - 1) + [-1])
    f64 = solve_series(thue_morse, 64)
    assert f64[0].coeffs == tuple(prod[i] for i in range(64))


def test_solve_cantor2(cantor2):
    f = solve_series(cantor2, 9)
    assert f[0].coeffs == (0, 1, 1, 0, 1, 0, 0, 0, 1)
    assert f[1].coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    # oracle recursion: c_n = c_{n/2} + [n = 1]
    c = [QQ(0)] * 40
    for n in range(1, 40):
        c[n] = (c[n // 2] if n % 2 == 0 else QQ(0)) + (QQ(1) if n == 1 else QQ(0))
    f40 = solve_series(cantor2, 40)
    assert f40[0].coeffs == tuple(c)


def test_solve_forced_zero():
    sys_ = MahlerSystem(q=2, m=1, A=((RatFunc.constant(QQ(2)),),), name="double")
    f = solve_series(sys_, 12)
    assert all(c == 0 for c in f[0].coeffs)


def test_solve_initial_vector_handling(cantor2):
    bare = MahlerSystem(q=2, m=2, A=cantor2.A, f0=None, name="bare")
    with pytest.raises(AmbiguousInitialVector):  # A(0) = I has a 2-dim fixed space
        solve_series(bare, 8)
    bad = MahlerSystem(q=2, m=1, A=((RatFunc.constant(QQ(2)),),), f0=(QQ(1),))
    with pytest.raises(InconsistentInitialVector):
        solve_series(bad, 8)
    pole = MahlerSystem(q=2, m=1, A=((RatFunc(Poly([1]), Poly([0, 1])),),),
                        f0=(QQ(1),))
    with pytest.raises(PoleAtOrigin):
        solve_series(pole, 8)


def test_verify_solution(cantor2):
    f = solve_series(cantor2, 64)
    assert verify_solution(cantor2, f) == 64
    # perturb f1 at z^3
    bad = list(f[0].coeffs)
    bad[3] += 1
    assert verify_solution(cantor2, (TruncSeries(bad), f[1])) == 3
    zero = (TruncSeries.zero(32), TruncSeries.zero(32))
    assert verify_solution(cantor2, zero) == 32


def test_solver_postcondition_all_corpus(cantor2, cantor3, thue_morse):
    for sys_ in (cantor2, cantor3, thue_morse):
        N = 48
        f = solve_series(sys_, N)
        assert verify_solution(sys_, f) >= N - sys_.q * sys_.max_entry_degree() - 1


def test_certificates(cantor2, cantor3, thue_morse, shrinking16, half):
    cert = certify_regular(cantor3, half)
    assert cert.regular and cert.checked_upto == 0
    cert = certify_regular(thue_morse, QQ(1, 3))
    assert cert.regular and cert.tail_bound_radius == QQ(1, 2)
    cert = certify_regular(shrinking16, QQ(1, 4))
    assert not cert.regular
    assert cert.failing_k == 1 and cert.failure_kind == "singular"
    with pytest.raises(AlphaOutOfRange):
        certify_regular(cantor2, QQ(3, 2))
    with pytest.raises(NotRegularAt):
        eval_cocycle(shrinking16, QQ(1, 4), 3)


def test_evalchain_raises_on_singular_step(shrinking16):
    alpha = QQ(1, 4)
    failing_k = certify_regular(shrinking16, alpha).failing_k
    chain = EvalChain(shrinking16, alpha)
    assert chain.mat(1) == ((QQ(-3),),)  # A(1/4) = -3 is still regular
    with pytest.raises(NotRegularAt) as err:
        chain.mat(3)
    assert err.value.k == failing_k == 1 and err.value.kind == "singular"


def test_certificate_pole_detection():
    sys_ = MahlerSystem(q=2, m=1, A=((RatFunc(Poly([1]), Poly([QQ(-1, 16), 1])),),),
                        name="pole16")
    cert = certify_regular(sys_, QQ(1, 4))
    assert not cert.regular and cert.failure_kind == "pole"


def test_regular_iterates_invertible(cantor2, cantor3, thue_morse, half):
    from mahlerlift import linalg

    for sys_ in (cantor2, cantor3, thue_morse):
        assert certify_regular(sys_, half).regular
        chain = EvalChain(sys_, half)
        for k in range(8):
            assert linalg.det(chain.mat(k)) != 0


def test_augment_with_unit(thue_morse, cantor2, half):
    aug = augment_with_unit(thue_morse)
    assert aug.m == 2
    assert aug.A[0][0] == RatFunc.one() and aug.A[0][1] == RatFunc.zero()
    assert aug.A[1][1] == RatFunc(Poly([1, -1])) and aug.A[1][0] == RatFunc.zero()
    f = solve_series(augment_with_unit(cantor2), 16)
    base = solve_series(cantor2, 16)
    assert f[0].coeffs == (1,) + (0,) * 15
    assert f[1] == base[0] and f[2] == base[1]
    twice = augment_with_unit(augment_with_unit(cantor2))
    g = solve_series(twice, 8)
    assert g[0] == g[1] == TruncSeries([1] + [0] * 7)
    # certificates agree with the base system
    assert certify_regular(aug, half).regular == certify_regular(thue_morse, half).regular


def test_system_json_roundtrip(cantor3):
    doc = system_to_json(cantor3)
    again = system_from_json(json.loads(json.dumps(doc)))
    assert again == cantor3
    with pytest.raises(ValueError):
        system_from_json({"q": 2, "m": 1, "A": [[["1"]]], "bogus": 1})
