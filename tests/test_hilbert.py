import random
from itertools import product

import pytest

from mahlerlift import linalg
from mahlerlift.errors import InsufficientOrder, RankNotStabilized
from mahlerlift.hilbert import (PhiProfile, bounds_check, estimate_trdeg,
                                monomial_family, phi_function, phi_profile)
from mahlerlift.polyring import Poly, TruncSeries
from mahlerlift.scalars import QQ
from mahlerlift.systems import solve_series

from conftest import oracle_rank_nullity, series_times_poly

GUARD = 16


def _oracle_kernel_dim(series, D, N):
    """Q-dimension of {p : deg p_i <= D, sum p_i g_i == 0 mod z^N}, one dense rank."""
    if D < 0:
        return 0
    unknowns = len(series) * (D + 1)
    if N < unknowns + GUARD:
        raise InsufficientOrder(
            f"order {N} < {unknowns + GUARD} needed for degree {D}")
    rows = [[g[n - t] if n >= t else QQ(0) for g in series for t in range(D + 1)]
            for n in range(N)]
    return unknowns - oracle_rank_nullity(rows)[0]


def _oracle_phi(f, d, D, N):
    """Reference phi: six separate kernel dimensions, at D-1, D, D+1 and two orders."""
    if min(s.order for s in f) < N:
        raise InsufficientOrder("series shorter than the requested order")
    exps = [e for e in product(range(d + 1), repeat=len(f)) if sum(e) <= d]
    series = []
    for e in exps:
        acc = TruncSeries.from_poly(Poly.one(), N)
        for fi, ei in zip(f, e):
            for _ in range(ei):
                acc = acc * fi.truncate(N)
        series.append(acc)
    M = len(series)

    def increments(order):
        ks = [_oracle_kernel_dim(series, dd, order) for dd in (D - 1, D, D + 1)]
        return ks[1] - ks[0], ks[2] - ks[1]

    r_lo, r_hi = increments(N)
    if r_lo != r_hi:
        raise RankNotStabilized(
            f"relation-module increments differ at degree {D}: {r_lo} vs {r_hi}")
    n_low = max(M * (D + 2) + GUARD, N - GUARD)
    if n_low < N and increments(n_low) != (r_lo, r_hi):
        raise RankNotStabilized("relation kernel moved when the order was lowered")
    return M - r_hi


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientOrder, RankNotStabilized) as e:
        return type(e).__name__, str(e)


def test_phi_cantor2_d2(cantor2):
    f = solve_series(cantor2, 128)
    assert phi_function(f, 2, 3, 128) == 3
    # cross-check: {1, g, g^2} truncations have full rank over Q
    one = TruncSeries.from_poly(Poly.one(), 128)
    g = f[0]
    fam = [one, g, g * g]
    rows = [[s[i] for s in fam] for i in range(128)]
    assert len(linalg.pivot_columns(rows)) == 3


def test_phi_constants_only():
    one = TruncSeries.from_poly(Poly.one(), 96)
    for d in (1, 2, 3):
        assert phi_function((one,), d, 2, 96) == 1


def test_phi_cantor3_d1(cantor3):
    f = solve_series(cantor3, 128)
    assert phi_function(f, 1, 3, 128) == 2


def test_phi_profile_cantor2(cantor2):
    f = solve_series(cantor2, 128)
    prof = phi_profile(f, 5, 3, 128)
    assert prof.phi == (1, 2, 3, 4, 5, 6)
    est = estimate_trdeg(prof)
    assert est.t_hat == 1 and est.confidence == "stable"
    rep = bounds_check(prof, 1)
    assert rep.lower_all_ok and rep.gamma2 == QQ(2)


def test_phi_monotone_and_bounded(cantor2):
    f = solve_series(cantor2, 128)
    prof = phi_profile(f, 4, 2, 128)
    m = len(f)
    for d, phi in zip(prof.d_values, prof.phi):
        count = len(monomial_family(f, d, 4)[0])
        assert phi <= count
    assert all(a <= b for a, b in zip(prof.phi, prof.phi[1:]))
    # constants present and g transcendental: each degree adds a new power
    assert all(b >= a + 1 for a, b in zip(prof.phi, prof.phi[1:]))


def test_phi_stable_under_reldeg(cantor3):
    f = solve_series(cantor3, 128)
    assert phi_function(f, 1, 2, 128) == phi_function(f, 1, 4, 128) == 2


def test_phi_not_stabilized_detection(cantor2):
    # family with relation generators in degrees 1 and 3: the module rank
    # appears too small at relation degree 1 and settles from degree 2 on
    f = solve_series(cantor2, 160)
    g = f[0]
    fam = (g, series_times_poly(g, Poly([1, 1])), series_times_poly(g, Poly([0, 0, 0, 1])))
    with pytest.raises(RankNotStabilized):
        phi_function(fam, 1, 1, 160)
    # degree-<=1 monomials span {1, g} over Q(z) once the rank settles
    assert phi_function(fam, 1, 3, 160) == 2
    assert phi_function(fam, 1, 4, 160) == 2


def _rand_series(rng, N):
    return TruncSeries([QQ(rng.randint(-3, 3)) for _ in range(N)])


def _rand_poly(rng, deg):
    return Poly([QQ(rng.randint(-3, 3)) for _ in range(deg)] + [QQ(rng.randint(1, 3))])


def test_phi_matches_six_rank_oracle(cantor2, cantor3):
    rng = random.Random(7070)
    N = 48
    g = solve_series(cantor2, N)[0]
    families = [
        (g, series_times_poly(g, Poly([1, 1])), series_times_poly(g, Poly([0, 0, 0, 1]))),
        solve_series(cantor3, N),
        (g, g),
    ]
    for r in (0, 1, 2, 3):  # a relation generator of degree r
        a, b = _rand_series(rng, N), _rand_series(rng, N)
        c = series_times_poly(a, _rand_poly(rng, r)) + series_times_poly(b, _rand_poly(rng, r))
        families.append((a, b, c))
        late = list(c.coeffs)
        late[40] += 1  # the relation holds below the lowered order only
        families.append((a, b, TruncSeries(late)))
    families.append((_rand_series(rng, N), _rand_series(rng, N)))
    seen = set()
    for fam in families:
        for d, D in ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (1, 9)):
            got = _outcome(phi_function, fam, d, D, N)
            assert got == _outcome(_oracle_phi, fam, d, D, N)
            seen.add(got[0] if isinstance(got, tuple) else "value")
    assert seen == {"value", "InsufficientOrder", "RankNotStabilized"}
    short = (g.truncate(N - 1),)
    assert _outcome(phi_function, short, 1, 1, N) == _outcome(_oracle_phi, short, 1, 1, N)


def test_phi_insufficient_order(cantor2):
    f = solve_series(cantor2, 32)
    with pytest.raises(InsufficientOrder):
        phi_function(f, 3, 3, 32)


def test_estimate_examples():
    lin = PhiProfile((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), 3, 128)
    est = estimate_trdeg(lin)
    assert est.t_hat == 1 and est.confidence == "stable"
    quad = PhiProfile((0, 1, 2, 3, 4), (1, 3, 6, 10, 15), 3, 128)
    est = estimate_trdeg(quad)
    assert est.t_hat == 2 and est.confidence == "stable"
    flat = PhiProfile((0, 1, 2, 3), (1, 1, 1, 1), 3, 128)
    assert estimate_trdeg(flat).t_hat == 0
    with pytest.raises(ValueError):
        estimate_trdeg(PhiProfile((0, 1), (1, 2), 3, 128))


def test_bounds_examples():
    lin = PhiProfile((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), 3, 128)
    rep = bounds_check(lin, 1)
    assert rep.lower_all_ok
    assert all(r.phi == r.lower for r in rep.rows)  # equality case
    assert rep.gamma2 == QQ(2)
    flat = PhiProfile((0, 1, 2, 3), (1, 1, 1, 1), 3, 128)
    rep0 = bounds_check(flat, 0)
    assert rep0.lower_all_ok and rep0.gamma2 == QQ(1)
