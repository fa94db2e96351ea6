import math

import pytest

from mahlerlift.engine import (AuxFunction, build_aux, decay_report,
                               formal_identity_order, height_growth)
from mahlerlift.errors import PreconditionTauNotARelation
from mahlerlift.ideal import MonomialBasis, cell_rref
from mahlerlift.scalars import QQ
from mahlerlift.systems import solve_series

LOG2 = math.log(2)
TAU = (QQ(1), QQ(-1), QQ(1, 2))


@pytest.fixture(scope="module")
def cantor3_aux(cantor3, half):
    f = solve_series(cantor3, 40)
    aux = build_aux(cantor3, f, half, TAU, 1, 8, range(2, 7))
    return f, aux


def test_build_aux_instance(cantor3_aux):
    f, aux = cantor3_aux
    assert aux.p == 2 and aux.p_asymptotic == 0
    assert any(aux.P)  # not all P_j are zero
    assert aux.kset_constraints == (2, 3, 4, 5, 6)
    assert aux.kset_heldout == (7, 8, 9, 10)
    assert len(aux.kset_heldout) >= 4
    assert aux.v0 == min(j for j, pj in enumerate(aux.P) if pj)
    # every P_j is supported on the pivot complement only
    pivots = set(aux.pivot_monomials)
    for pj in aux.P:
        assert set(pj) <= pivots


def test_build_aux_pivots_are_cell_rref_pivots(cantor3, cantor3_aux, half):
    _, aux = cantor3_aux
    _, pivots, _ = cell_rref(cantor3, half, 1, 8, range(1, 11))  # the default complement
    assert aux.pivot_monomials == pivots


def test_build_aux_heldout_vanishes_exactly(cantor3, cantor3_aux, half):
    from mahlerlift.engine import _constraint_row
    from mahlerlift.systems import EvalChain

    f, aux = cantor3_aux
    chain = EvalChain(cantor3, half)
    flat = []
    for j in range(aux.delta1 + 1):
        for idx in aux.pivot_monomials:
            flat.append(aux.P[j].get(idx, QQ(0)))
    for k in list(aux.kset_constraints) + list(aux.kset_heldout):
        row = _constraint_row(cantor3, chain, aux.mb, aux.pivot_monomials, aux.tau,
                              f, aux.p, aux.delta1, k)
        acc = QQ(0)
        for c, v in zip(flat, row):
            acc += c * v
        assert acc == 0


def test_build_aux_dimension_precondition(cantor3, half):
    f = solve_series(cantor3, 40)
    with pytest.raises(ValueError):
        build_aux(cantor3, f, half, TAU, 1, 8, range(1, 40))


def test_build_aux_zero_tau(trivial, half):
    f = solve_series(trivial, 24)
    aux = build_aux(trivial, f, half, (QQ(0),), 1, 3, range(2, 5))
    assert any(aux.P)
    assert aux.v0 in (0, 1)


def test_formal_identity(cantor3, cantor3_aux):
    f, aux = cantor3_aux
    assert formal_identity_order(cantor3, f, aux) == aux.p


def test_formal_identity_with_shifted_leading_index(cantor3, half):
    # handcrafted auxiliary data with P_0 = 0 exercises the nontrivial
    # factorization EE * F = E
    f = solve_series(cantor3, 24)
    mb = MonomialBasis(3, 1, 4)
    P1 = {mb.index((0,) * 9, 2): QQ(3, 2), mb.index((0, 0, 1, 0, 0, 0, 0, 0, 0), 0): QQ(-1)}
    aux = AuxFunction(1, 4, 3, 0, half, TAU, mb, tuple(sorted(P1)), (1, 2),
                      ({}, P1), 1, (2, 3), (4, 5))
    assert formal_identity_order(cantor3, f, aux) == 3


def test_decay_report_instance(cantor3, cantor3_aux):
    f, aux = cantor3_aux
    rep = decay_report(cantor3, f, aux, 10)
    assert len(rep.rows) == 11
    nonzero = [r for r in rep.rows if not r.is_zero]
    assert nonzero, "the decay table must carry nonzero values"
    for r in rep.rows:
        assert r.liouville_ok
        if not r.is_zero:
            # exact Liouville floor: log|v| >= -h(v) with certified logs
            assert r.log_abs.value >= r.liouville_floor.value - 1e-9
    # the first value is the alternating tail sum of powers of alpha
    assert rep.rows[0].value == QQ(127, 256)


def test_decay_c3_stable_across_kmax(cantor3, cantor3_aux):
    f, aux = cantor3_aux
    fits = [decay_report(cantor3, f, aux, kmax).c3_hat for kmax in (8, 10, 12)]
    assert all(abs(c - LOG2) <= 1e-12 for c in fits)
    rep = decay_report(cantor3, f, aux, 10)
    assert 0 < rep.c2_hat <= LOG2 / 4 + 1e-12


def test_decay_requires_verified_relation(cantor3, half):
    f = solve_series(cantor3, 40)
    aux = build_aux(cantor3, f, half, TAU, 1, 8, range(2, 7))
    bogus = AuxFunction(aux.delta1, aux.delta2, aux.p, aux.p_asymptotic, half,
                        (QQ(1), QQ(-1), QQ(0)), aux.mb, aux.pivot_monomials,
                        aux.complement_kset, aux.P, aux.v0,
                        aux.kset_constraints, aux.kset_heldout)
    with pytest.raises(PreconditionTauNotARelation):
        decay_report(cantor3, f, bogus, 6)


def test_decay_zero_rows_flagged(trivial, half):
    # P = y - 1 vanishes at every iterate of the trivial system
    f = solve_series(trivial, 24)
    mb = MonomialBasis(1, 1, 2)
    P0 = {mb.index((1,), 0): QQ(1), mb.index((0,), 0): QQ(-1)}
    aux = AuxFunction(1, 2, 1, 0, half, (QQ(0),), mb, tuple(sorted(P0)), (1, 2),
                      (P0, {}), 0, (1, 2), (3, 4, 5, 6))
    rep = decay_report(trivial, f, aux, 6)
    assert all(r.is_zero for r in rep.rows)
    assert rep.c2_hat == 0.0 and rep.c3_hat == 0.0


def test_height_growth_cantor2(cantor2, half):
    rep = height_growth(cantor2, half, 10)
    # off-diagonal entry height is 2^{k-1} log 2 for k >= 1
    for k, hmat, _ratio in rep.rows:
        if k == 0:
            assert all(h.value == 0.0 for row in hmat for h in row)
        else:
            expect = 2 ** (k - 1) * LOG2
            assert abs(hmat[0][1].value - expect) <= 1e-9 * max(1.0, expect)
    assert abs(rep.gamma_hat - LOG2 / 2) <= 1e-12
    assert rep.stabilized


def test_height_growth_thue_morse(thue_morse, half):
    rep = height_growth(thue_morse, half, 10)
    assert rep.gamma_hat <= LOG2 + 1
    assert rep.stabilized
    # the exact ratio at each k is (1 - 2^{-k}) log 2
    for k, hmat, ratio in rep.rows:
        if k >= 1:
            expect = (1 - 2.0 ** (-k)) * LOG2
            assert abs(ratio - expect) <= 1e-9
