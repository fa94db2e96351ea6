import random
from fractions import Fraction

from mahlerlift import linalg
from mahlerlift.linalg import GramRank
from mahlerlift.scalars import QQ

from conftest import frac, oracle_det, oracle_rank_nullity


def naive_rref(rows):
    """Textbook Fraction Gauss-Jordan, kept apart from the library's kernel."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return [], []
    pivots, r = [], 0
    for c in range(len(work[0])):
        sel = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, [tuple(row) for row in work[:r]]


def _rand_rational(rng, bits):
    num = rng.randint(-(1 << bits), 1 << bits)
    return QQ(num, rng.randint(1, 1 << rng.randint(0, bits)))


def _random_matrix(rng):
    n, m = rng.randint(1, 7), rng.randint(1, 7)
    bits = rng.choice((2, 8, 64, 300))  # mixed heights across matrices
    rows = [[_rand_rational(rng, rng.choice((2, bits))) if rng.random() < 0.7 else QQ(0)
             for _ in range(m)] for _ in range(n)]
    for _ in range(rng.randint(0, 2)):  # planted combinations of earlier rows
        a, b = rng.randrange(n), rng.randrange(n)
        s, t = _rand_rational(rng, 4), _rand_rational(rng, 4)
        rows.append([s * x + t * y for x, y in zip(rows[a], rows[b])])
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [QQ(0)] * m)
    if rng.random() < 0.3:
        zc = rng.randrange(m)
        for row in rows:
            row[zc] = QQ(0)
    if rng.random() < 0.5:
        for row in rows:  # negative pivots
            row[:] = [-x for x in row]
    rng.shuffle(rows)
    return rows


def test_rref_matches_naive_gauss_jordan():
    rng = random.Random(4104)
    for _ in range(600):
        rows = _random_matrix(rng)
        pivots, red = linalg.rref(rows)
        ref_pivots, ref_red = naive_rref([[frac(x) for x in row] for row in rows])
        assert pivots == ref_pivots
        assert [[frac(x) for x in row] for row in red] == [list(row) for row in ref_red]
        assert linalg.pivot_columns(rows) == pivots


def test_pivot_prefix_counts_are_prefix_ranks():
    rng = random.Random(3011)
    for _ in range(300):
        rows = _random_matrix(rng)
        pivots = linalg.pivot_columns(rows)
        for c in range(len(rows[0]) + 1):
            expect = oracle_rank_nullity([row[:c] for row in rows])[0]
            assert sum(p < c for p in pivots) == expect
    assert linalg.pivot_columns([]) == []


def test_rref_edge_cases():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[QQ(0), QQ(0)], [QQ(0), QQ(0)]]) == ([], [])
    pivots, red = linalg.rref([[0, -3, 6], [0, 1, QQ(-1, 2)]])
    assert pivots == [1, 2]
    assert red == [(0, 1, 0), (0, 0, 1)]
    # integer input gives rational output, never floats
    pivots, red = linalg.rref([[2, 3], [4, 5]])
    assert red == [(1, 0), (0, 1)] and all(isinstance(x, type(QQ(1))) for x in red[0])
    pivots, red = linalg.rref([[3, 1]])
    assert red == [(1, QQ(1, 3))]


def test_kernel_from_rref_vectors_vanish():
    rng = random.Random(77)
    for _ in range(100):
        rows = _random_matrix(rng)
        ncols = len(rows[0])
        pivots, red = linalg.rref(rows)
        basis = linalg.kernel_from_rref(pivots, red, ncols)
        assert linalg.nullspace_sparse(rows, ncols) == (pivots, basis)
        assert len(basis) == ncols - len(pivots)
        for vec in basis:
            for row in rows:
                assert sum(c * row[j] for j, c in vec.items()) == 0


def test_solve_particular_negative_pivots():
    A = [[QQ(-2), QQ(1)], [QQ(4), QQ(-2)], [QQ(0), QQ(-5)]]
    x = linalg.solve_particular(A, [QQ(1), QQ(-2), QQ(10)])
    assert x == (QQ(-3, 2), QQ(-2))
    assert linalg.solve_particular(A, [QQ(1), QQ(1), QQ(0)]) is None


def test_det_fraction_free_matches_laplace():
    rng = random.Random(1968)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a planted dependent row
            M[-1] = [-3 * a for a in M[0]]
        expect = oracle_det([[Fraction(x) for x in row] for row in M])
        assert linalg.det_fraction_free(M) == expect
        assert linalg.det([[QQ(x) for x in row] for row in M]) == expect


def _integer_family(rng):
    dim = rng.randint(1, 8)
    base = [[rng.randint(-(1 << 40), 1 << 40) if rng.random() < 0.8 else 0
             for _ in range(dim)] for _ in range(rng.randint(1, dim))]
    family = list(base)
    for _ in range(rng.randint(1, 6)):
        pick = rng.random()
        if pick < 0.4:  # planted integer combination of earlier vectors
            coeffs = [rng.randint(-9, 9) for _ in family]
            family.append([sum(c * v[j] for c, v in zip(coeffs, family))
                           for j in range(dim)])
        elif pick < 0.7:  # repeated vector
            family.append(list(rng.choice(family)))
        elif pick < 0.8:
            family.append([0] * dim)
        else:
            family.append([rng.randint(-50, 50) for _ in range(dim)])
    rng.shuffle(family)
    return family


def test_gramrank_matches_oracle_rank():
    rng = random.Random(2210)
    for _ in range(300):
        family = _integer_family(rng)

        def pair(i, j):
            return sum(a * b for a, b in zip(family[i], family[j]))

        gr = GramRank(pair)
        for n in range(len(family)):
            before = gr.rank
            added = gr.add(n)
            assert added is True or added is False
            expect = oracle_rank_nullity(family[:n + 1])[0]
            assert gr.rank == expect and added == (expect > before)
        assert gr.rank == oracle_rank_nullity(family)[0]
        assert all(d > 0 for d in gr._d)
