import random

import pytest

from mahlerlift import linalg
from mahlerlift.errors import StabilizationFailed
from mahlerlift.ideal import (MonomialBasis, _GramPair, cell_rref, dim_profile, doubling_check,
                              eval_matrix, is_member, kernel_basis, shift_check,
                              vector_str)
from mahlerlift.scalars import QQ
from mahlerlift.systems import EvalChain

from conftest import oracle_rank_nullity


def test_monomial_order_is_graded_lex():
    mb = MonomialBasis(1, 1, 1)
    assert mb.entries == (((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1))
    mb2 = MonomialBasis(2, 1, 0)
    degrees = [sum(nu) for nu, _ in mb2.entries]
    assert degrees == sorted(degrees)
    assert len(mb2.entries) == 2 ** 4


def test_eval_matrix_trivial_example(trivial, half):
    mb, rows = eval_matrix(trivial, half, 1, 1, [1, 2])
    assert rows[0] == [1, QQ(1, 4), 1, QQ(1, 4)]
    assert rows[1] == [1, QQ(1, 16), 1, QQ(1, 16)]
    # first column is the constant monomial
    assert all(r[0] == 1 for r in rows)


def test_eval_matrix_cantor_offdiagonal(cantor2, half):
    mb, rows = eval_matrix(cantor2, half, 1, 0, [2])
    idx = mb.index((0, 1, 0, 0), 0)  # the single power of the (1,2) entry
    assert rows[0][idx] == QQ(3, 4)


def test_integer_rows_and_gram_pairs(cantor2, cantor3):
    """Integer rows are constant multiples of the evaluation rows, and the
    closed-form Gram pairs are their exact inner products."""
    for sys_, alpha, boxes in ((cantor2, QQ(-5, 7), ((1, 0), (1, 2), (2, 1))),
                               (cantor3, QQ(3, 4), ((1, 1),))):
        chain = EvalChain(sys_, alpha)
        for delta1, delta2 in boxes:
            mb = MonomialBasis(sys_.m, delta1, delta2)
            rows = {k: mb.integer_row(chain.mat(k), chain.x(k)) for k in range(1, 5)}
            for k, row in rows.items():
                ref = mb.row_of_values(chain.mat(k), chain.x(k))
                scale = QQ(row[0]) / ref[0]
                assert all(v.denominator == 1 for v in row)
                assert [v * scale for v in ref] == row
            pair = _GramPair(chain, delta1).pair_fn(delta2)
            for k in rows:
                for l in rows:
                    assert pair(k, l) == sum(a * b for a, b in zip(rows[k], rows[l]))


def test_kernel_trivial_box(trivial, half):
    kb = kernel_basis(trivial, half, 1, 3)
    assert kb.dimension == 4 and kb.rank == 4
    assert len(kb.held_out_verified) == 4
    # vectors are exactly (y - 1) z^lam
    rendered = sorted(vector_str(kb.mb, v) for v in kb.basis)
    assert rendered == ["-1 + y11", "-z + y11*z", "-z^2 + y11*z^2", "-z^3 + y11*z^3"]
    # independent oracle agreement on a fixed iterate window
    _, rows = eval_matrix(trivial, half, 1, 3, range(1, 9))
    rank, nullity = oracle_rank_nullity(rows)
    assert (rank, nullity) == (kb.rank, kb.dimension)


def test_kernel_thue_morse_empty(thue_morse, half):
    kb = kernel_basis(thue_morse, half, 1, 1)
    assert kb.dimension == 0 and kb.rank == 4


def test_kernel_cantor2_frozen(cantor2, half):
    kb = kernel_basis(cantor2, half, 1, 2)
    # regression value fixed by the independent elimination oracle
    _, rows = eval_matrix(cantor2, half, 1, 2, range(1, 11))
    rank, nullity = oracle_rank_nullity(rows)
    assert (kb.rank, kb.dimension) == (rank, nullity) == (6, 42)


def test_kernel_row_space_invariant_under_permutation(cantor2, half):
    _, rows = eval_matrix(cantor2, half, 1, 2, range(1, 9))
    rng = random.Random(9)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert linalg.rref(rows) == linalg.rref(shuffled)


def test_is_member_examples(trivial, half):
    mb = MonomialBasis(1, 1, 1)
    zero = {}
    assert is_member(mb, zero, trivial, half, range(1, 6))
    y_minus_1 = {mb.index((1,), 0): QQ(1), mb.index((0,), 0): QQ(-1)}
    assert is_member(mb, y_minus_1, trivial, half, range(1, 9))
    one = {mb.index((0,), 0): QQ(1)}
    assert not is_member(mb, one, trivial, half, [1])


def test_radicality_surrogate(trivial, cantor2, half):
    # squaring a vector lands in the doubled box; membership of the square
    # forces membership of the vector because rational squares vanish only at 0
    mb = MonomialBasis(1, 1, 3)
    big = MonomialBasis(1, 2, 6)
    kb = kernel_basis(trivial, half, 1, 3)
    kset = range(1, 9)
    for vec in kb.basis:
        sq = {}
        for i1, c1 in vec.items():
            nu1, l1 = mb.entries[i1]
            for i2, c2 in vec.items():
                nu2, l2 = mb.entries[i2]
                key = big.index(tuple(a + b for a, b in zip(nu1, nu2)), l1 + l2)
                sq[key] = sq.get(key, QQ(0)) + c1 * c2
        assert is_member(big, sq, trivial, half, kset)
        assert is_member(mb, vec, trivial, half, kset)
    # a non-member whose square is also a non-member: no violation of the rule
    y = {mb.index((1,), 0): QQ(1)}
    ysq = {big.index((2,), 0): QQ(1)}
    assert not is_member(big, ysq, trivial, half, kset)


def test_dim_profile_trivial(trivial, half):
    prof = dim_profile(trivial, half, 1, range(1, 9))
    assert [r.rank for r in prof.rows] == [2, 3, 4, 5, 6, 7, 8, 9]
    assert all(r.increment == 1 for r in prof.rows[1:])
    assert prof.c1_estimate == 1
    # extra y-degree is absorbed by the kernel: same ranks at delta1 = 2
    prof2 = dim_profile(trivial, half, 2, range(1, 9))
    assert [r.rank for r in prof2.rows] == [2, 3, 4, 5, 6, 7, 8, 9]


def test_dim_profile_matches_explicit_rank(cantor2, half):
    prof = dim_profile(cantor2, half, 1, [1, 2, 3])
    for row in prof.rows:
        _, rows = eval_matrix(cantor2, half, 1, row.delta2, range(1, row.k_top + 1))
        assert len(linalg.pivot_columns(rows)) == row.rank
        rank, _ = oracle_rank_nullity(rows)
        assert rank == row.rank


def test_dim_profile_increment_bounds(cantor2, cantor3, thue_morse, half):
    for sys_, d2s in ((cantor2, range(1, 5)), (cantor3, range(1, 4)),
                      (thue_morse, range(1, 5))):
        prof = dim_profile(sys_, half, 1, d2s)
        h = 2 ** (sys_.m * sys_.m)
        incs = [r.increment for r in prof.rows[1:]]
        assert all(1 <= i <= h for i in incs)
        assert incs[-1] == incs[-2]  # eventually constant on the computed tail


def test_dim_profile_rejects_unordered(cantor2, half):
    with pytest.raises(ValueError):
        dim_profile(cantor2, half, 1, [3, 1])


def test_stabilization_budget_failure(cantor2, half):
    with pytest.raises(StabilizationFailed):
        dim_profile(cantor2, half, 1, [8], max_k=10)


def test_doubling_examples(trivial, cantor2, half):
    rep = doubling_check(trivial, half, 1, 3)
    assert (rep.rank_base, rep.rank_doubled, rep.factor) == (4, 4, 2)
    assert rep.passed
    rep0 = doubling_check(trivial, half, 0, 3)
    assert rep0.passed and rep0.rank_base == rep0.rank_doubled
    repc = doubling_check(cantor2, half, 1, 4)
    assert repc.passed
    assert (repc.rank_base, repc.rank_doubled) == (10, 15)


def test_shift_checks(trivial, cantor2, half):
    mb = MonomialBasis(1, 1, 1)
    y_minus_1 = {mb.index((1,), 0): QQ(1), mb.index((0,), 0): QQ(-1)}
    assert shift_check(mb, y_minus_1, trivial, half, 1, [1, 2, 3])
    assert shift_check(mb, y_minus_1, trivial, half, 3, [5, 6])
    kb = kernel_basis(cantor2, half, 1, 2)
    chain = EvalChain(cantor2, half)
    assert all(shift_check(kb.mb, v, cantor2, half, 1, range(3, 9), chain=chain)
               for v in kb.basis)
    one = {mb.index((0,), 0): QQ(1)}
    assert not shift_check(mb, one, trivial, half, 0, [1])


def test_cell_rref_pivots_are_prefix_independent(cantor3, half):
    mb, pivots, _ = cell_rref(cantor3, half, 1, 8, range(1, 11))
    # nine z-power pivots plus one matrix-entry monomial
    assert len(pivots) == 10
    lams = [mb.entries[p] for p in pivots]
    assert [(nu, lam) for nu, lam in lams[:9]] == [((0,) * 9, lam) for lam in range(9)]
