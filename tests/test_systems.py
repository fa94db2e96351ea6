import json
import random
from functools import reduce

import pytest

from mahlerlift import (augment_with_unit, certify_regular, cocycle, eval_cocycle,
                        solve_series, system_from_json, system_to_json,
                        verify_solution)
from mahlerlift.errors import (AlphaOutOfRange, AmbiguousInitialVector,
                               DegreeBudgetExceeded, InconsistentInitialVector,
                               NotRegularAt, PoleAtOrigin)
from mahlerlift.polyring import Poly, RatFunc, TruncSeries, series_of_ratfunc
from mahlerlift.scalars import QQ
from mahlerlift.kron import kron_system
from mahlerlift.systems import EvalChain, MahlerSystem

from conftest import (ratfunc_mat_mul, ratfunc_substitute_power, reference_cocycle,
                      reference_det, series_times_poly)


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
                b = ratfunc_substitute_power(cocycle(sys_, ell), sys_.q ** k)
                assert lhs == ratfunc_mat_mul(a, b)


def test_cocycle_matches_reference(cantor2, cantor3, thue_morse):
    """The cleared-polynomial cocycle equals products over Q(z), entry by entry,
    in the reduced form (so also in hash and JSON)."""
    cases = [(sys_, 4) for sys_ in (cantor2, cantor3, thue_morse, augment_with_unit(cantor2))]
    rng = random.Random(4242)
    for q in (2, 3):
        for m in (1, 2, 3):
            for _ in range(2):
                base, _ = _random_system(rng, q, m, True)
                cases.append((base, 3 if q ** m < 27 else 2))
                cases.append((_gauge(base, [rng.randint(0, 2) for _ in range(m)]), 2))
    nonpoly = 0
    for sys_, kmax in cases:
        for k in range(kmax + 1):
            got, expect = cocycle(sys_, k), reference_cocycle(sys_, k)
            assert got == expect
            assert [[hash(e) for e in row] for row in got] == \
                [[hash(e) for e in row] for row in expect]
            assert [[e.to_json() for e in row] for row in got] == \
                [[e.to_json() for e in row] for row in expect]
            nonpoly += sum(not e.is_polynomial() for row in got for e in row)
    assert nonpoly > 0


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


def test_solve_rejects_empty_order_and_pole(cantor2):
    for order in (0, -3):
        with pytest.raises(ValueError, match="at least one coefficient"):
            solve_series(cantor2, order)
    # the pole sits in one off-diagonal entry only
    pole = MahlerSystem(q=3, m=2, A=((RatFunc.one(), RatFunc(Poly([1]), Poly([0, 2, 1]))),
                                     (RatFunc.zero(), RatFunc(Poly([1, 1])))), name="pole")
    with pytest.raises(PoleAtOrigin):
        solve_series(pole, 8)


def test_solve_thue_morse_large_order(thue_morse):
    # f = prod_k (1 - z^{2^k}), so c_n = (-1)^popcount(n)
    f = solve_series(thue_morse, 20000)
    assert f[0].coeffs == tuple((-1) ** bin(n).count("1") for n in range(20000))


def _oracle_solve(sys_, f0, order):
    """Reference: the quadratic recursion over the full expansions of A's entries.

    c_i[n] = sum_j sum_{u + q v = n} B_ij[u] c_j[v], with B_ij the series of A_ij.
    """
    m, q = sys_.m, sys_.q
    B = [[series_of_ratfunc(e, order) for e in row] for row in sys_.A]
    coeffs = [[QQ(0)] * order for _ in range(m)]
    for i in range(m):
        coeffs[i][0] = f0[i]
    for n in range(1, order):
        for i in range(m):
            coeffs[i][n] = sum((B[i][j][n - q * v] * coeffs[j][v]
                                for v in range(n // q + 1) for j in range(m)), QQ(0))
    return tuple(TruncSeries(c) for c in coeffs)


def _random_system(rng, q, m, given_f0):
    """Rational entries with den(0) not in {0, 1}, and A(0) w = w for a random w.

    w has first nonzero entry 1, so it is also the vector solve_series derives
    whenever ker(A(0) - I) is one-dimensional.
    """
    def small():
        return QQ(rng.randint(-6, 6), rng.randint(1, 4))

    w = [QQ(0)] * m
    lead = rng.randrange(m)
    w[lead] = QQ(1)
    for j in range(lead + 1, m):
        w[j] = small()
    rows = []
    for i in range(m):
        nums, dens = [], []
        for _ in range(m):
            d0 = QQ(0)
            while d0 in (0, 1):
                d0 = small()
            dens.append(Poly([d0] + [small() for _ in range(rng.randint(0, 1))] + [1]))
            nums.append([small() for _ in range(rng.randint(1, 2))] + [QQ(rng.randint(1, 5))])
        # fix num_{i,lead}(0) so that row i of A(0) w equals w_i
        rest = sum((nums[j][0] / dens[j][0] * w[j] for j in range(m) if j != lead), QQ(0))
        nums[lead][0] = dens[lead][0] * (w[i] - rest)
        rows.append(tuple(RatFunc(Poly(n), d) for n, d in zip(nums, dens)))
    return MahlerSystem(q=q, m=m, A=tuple(rows), f0=tuple(w) if given_f0 else None,
                        name="random"), tuple(w)


def test_solve_matches_quadratic_recursion():
    rng = random.Random(5)
    derived = 0
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            for given_f0 in (True, False):
                for _ in range(3):
                    sys_, w = _random_system(rng, q, m, given_f0)
                    if any(e.den[0] in (0, 1) for row in sys_.A for e in row):
                        continue  # reduction by a common factor moved den(0)
                    order = rng.randint(20, 45)
                    f = solve_series(sys_, order)
                    derived += not given_f0
                    assert tuple(s[0] for s in f) == w
                    assert f == _oracle_solve(sys_, w, order)
                    assert verify_solution(sys_, f) == order
    assert derived >= 20


def test_verify_solution(cantor2):
    f = solve_series(cantor2, 64)
    assert verify_solution(cantor2, f) == 64
    # perturb f1 at z^3
    bad = list(f[0].coeffs)
    bad[3] += 1
    assert verify_solution(cantor2, (TruncSeries(bad), f[1])) == 3
    zero = (TruncSeries.zero(32), TruncSeries.zero(32))
    assert verify_solution(cantor2, zero) == 32


def _lcm_of(polys):
    return reduce(Poly.lcm, polys, Poly.one())


def _oracle_verify(sys_, f):
    """Reference: the dense residual D f(z) - (D A)(z) f(z^q) mod z^order, D the global lcm.

    Every product is a full convolution of dense truncations, independent of
    the cleared form that the system stores.
    """
    order = min(s.order for s in f)
    D = _lcm_of(e.den for row in sys_.A for e in row)
    first = order
    for i in range(sys_.m):
        lhs = series_times_poly(f[i].truncate(order), D)
        rhs = TruncSeries.zero(order)
        for j in range(sys_.m):
            entry = sys_.A[i][j]
            Bij = (D // entry.den) * entry.num  # exact: den | D
            if Bij.is_zero():
                continue
            sub = [QQ(0)] * order
            for v in range((order - 1) // sys_.q + 1):
                sub[sys_.q * v] = f[j][v]
            rhs = rhs + series_times_poly(TruncSeries(sub), Bij)
        idx = (lhs - rhs).first_nonzero()
        if idx is not None:
            first = min(first, idx)
    return first


def _gauge(sys_, ks):
    """A'_ij = z^{k_i - q k_j} A_ij, so g_i = z^{k_i} f_i solves g(z) = A'(z) g(z^q).

    With some k_j > 0 the rows of A' get poles at 0 of different orders.
    """
    q = sys_.q
    A = tuple(tuple(RatFunc(e.num * Poly.monomial(max(0, ki - q * kj)),
                            e.den * Poly.monomial(max(0, q * kj - ki)))
                    for e, kj in zip(row, ks))
              for row, ki in zip(sys_.A, ks))
    return MahlerSystem(q=q, m=sys_.m, A=A, name="gauged")


def _random_pole_entry(rng):
    """A rational function whose denominator vanishes at 0 to order 1 or 2."""
    num = Poly([QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])
    den = Poly([0] * rng.randint(1, 2) + [QQ(rng.randint(-6, 6), rng.randint(1, 4)), 1])
    return RatFunc(num if num else Poly.one(), den)


def test_verify_solution_matches_dense_oracle():
    rng = random.Random(29)
    cases = shifted = 0
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            for _ in range(3):
                base, _ = _random_system(rng, q, m, True)
                if any(e.den[0] == 0 for row in base.A for e in row):
                    continue  # reduction by a common factor put a pole at 0
                f = solve_series(base, rng.randint(16, 32))
                ks = [rng.randint(0, 2) for _ in range(m)]
                sys_ = _gauge(base, ks)
                g = tuple(TruncSeries((QQ(0),) * k + s.coeffs) for s, k in zip(f, ks))
                # entries with den(0) = 0 drawn directly, on a copy of the system
                A = [list(row) for row in sys_.A]
                A[rng.randrange(m)][rng.randrange(m)] = _random_pole_entry(rng)
                try:
                    poled = MahlerSystem(q=q, m=m, A=tuple(map(tuple, A)), name="poled")
                except ValueError:
                    poled = sys_  # det vanished identically
                shifted += any(row.shift > 0 for row in sys_.cleared_rows)
                # unequal truncation orders
                g_cut = tuple(s.truncate(rng.randint(s.order // 2, s.order)) for s in g)
                rand = tuple(TruncSeries([QQ(rng.randint(-3, 3)) for _ in range(rng.randint(5, 24))])
                             for _ in range(m))
                for target, series in ((sys_, g), (sys_, g_cut), (poled, g), (sys_, rand),
                                       (poled, rand)):
                    assert verify_solution(target, series) == _oracle_verify(target, series)
                    # one coefficient corrupted at a random n
                    i = rng.randrange(m)
                    n = rng.randrange(series[i].order)
                    bad = list(series[i].coeffs)
                    bad[n] += QQ(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                    broken = series[:i] + (TruncSeries(bad),) + series[i + 1:]
                    assert verify_solution(target, broken) == _oracle_verify(target, broken)
                    cases += 1
                assert verify_solution(sys_, g) == min(s.order for s in g)
    assert cases >= 120 and shifted >= 8


def _check_cleared_form(sys_):
    q = sys_.q
    D = _lcm_of(e.den for row in sys_.A for e in row)
    assert sys_.den_lcm() == D
    for i, row in enumerate(sys_.cleared_rows):
        assert row.D == _lcm_of(e.den for e in sys_.A[i])
        assert row.shift == (D // row.D).strip_origin_root()[0]
        assert row.d_terms == tuple((t, c) for t, c in enumerate(row.D.coeffs) if t and c)
        P = [[QQ(0)] * (1 + max((u for terms in row.by_residue for u, _, _ in terms), default=0))
             for _ in range(sys_.m)]
        for r, terms in enumerate(row.by_residue):
            assert [u for u, _, _ in terms] == sorted(u for u, _, _ in terms)
            for u, j, p in terms:
                assert u % q == r and p != 0
                P[j][u] = p
        for j, e in enumerate(sys_.A[i]):
            assert row.D * e.num == Poly(P[j]) * e.den
    assert sys_.det() == reference_det(sys_.A)


def test_cleared_form_and_det_match_generic(cantor2, cantor3, thue_morse):
    rng = random.Random(31)
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            for _ in range(2):
                base, _ = _random_system(rng, q, m, True)
                _check_cleared_form(base)
                _check_cleared_form(_gauge(base, [rng.randint(0, 2) for _ in range(m)]))
    for sys_ in (cantor2, cantor3, thue_morse, augment_with_unit(cantor2)):
        for d in (1, 2):
            _check_cleared_form(kron_system(sys_, d))
    base, _ = _random_system(random.Random(3), 2, 2, True)
    _check_cleared_form(kron_system(base, 2))


def test_permutation_system_zero_pivot(half):
    one, zero = RatFunc.one(), RatFunc.zero()
    sys_ = MahlerSystem(q=2, m=2, A=((zero, one), (one, zero)), f0=(QQ(1), QQ(1)), name="swap")
    assert sys_.det() == RatFunc.constant(QQ(-1))
    assert certify_regular(sys_, half).regular
    assert verify_solution(sys_, solve_series(sys_, 8)) == 8


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
