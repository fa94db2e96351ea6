"""Exact linear algebra over the rationals; no floating point ever decides a rank.

``rref``, ``pivot_columns``, ``nullspace_sparse``, ``nullspace_dense``
and ``solve_particular`` take rational entries only (ints, ``Fraction``
or the ``scalars.QQ`` backend; anything with ``.numerator`` and
``.denominator``).  Both ``rref`` and ``pivot_columns`` clear each row of
denominators and run fraction-free (Bareiss) Gauss-Jordan on integers,
so no step pays for a gcd; only ``rref``'s final division by the last
pivot builds rationals, and ``pivot_columns`` skips it.

``det`` and ``mat_mul`` stay generic over the entry type (anything with
+, -, *, / and a truth value that is False for zero); ``det`` serves the
rational matrices A(x) of an evaluation chain.  A system's determinant
over Q(z) does not come from ``det``: ``det_fraction_free`` runs Bareiss
elimination on the system's denominator-cleared polynomial matrix, where
every division is exact.

``GramRank`` maintains the rank of a growing family of integer vectors
through an incremental fraction-free LDL^T factorization of their Gram
matrix.  Over Q rank(G) = rank of the family, and positive
semidefiniteness makes pivot skipping safe: a zero leading minor
certifies a dependent vector.
"""

from .scalars import QQ, ZERO, ONE, clear_denominators

__all__ = [
    "mat_mul",
    "identity_like",
    "rref",
    "pivot_columns",
    "kernel_from_rref",
    "nullspace_sparse",
    "nullspace_dense",
    "solve_particular",
    "det",
    "det_fraction_free",
    "GramRank",
]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k, "inner dimensions must agree"
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = Ai[0] * B[0][j]
            for t in range(1, k):
                acc = acc + Ai[t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def identity_like(n, one, zero):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan: (pivot columns, nonzero rows, last pivot).

    Each row is cleared of denominators, then elimination runs on
    integers: with pivot p and previous pivot prev, every other row
    becomes (p * row - f * pivot_row) // prev.  Every entry stays an
    integer minor of the cleared matrix, so each division is exact, and
    afterwards every pivot entry equals the last pivot.
    """
    work = [clear_denominators(r) for r in rows]
    if not work:
        return [], [], 1
    ncols = len(work[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        wr = work[r]
        p = wr[c]
        for i in range(len(work)):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            if f:
                work[i] = [(p * a - f * b) // prev for a, b in zip(row, wr)]
            elif p != prev:
                work[i] = [p * a // prev if a else a for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, work[:r], prev


def pivot_columns(rows):
    """Pivot columns of the reduced row echelon form, without building it.

    Columns are searched in order, so the pivots below c are those of the
    first c columns alone: their count is the rank of that column prefix.
    """
    return _gauss_jordan(rows)[0]


def rref(rows):
    """Reduced row echelon form.  Returns (pivot column list, reduced rows).

    Zero rows are dropped; the reduced rows are a canonical basis of the
    row space, so two row sets span the same space iff their rref output
    is equal.  The rows of the fraction-free elimination are divided by
    the last pivot, the only step that builds rationals.
    """
    pivots, work, prev = _gauss_jordan(rows)
    return pivots, [tuple(QQ(x, prev) if x else ZERO for x in row) for row in work]


def kernel_from_rref(pivots, red, ncols):
    """Kernel basis as sparse dicts {column: coefficient}, one per free column.

    Takes the output of ``rref``.  The basis is the reduced-echelon one:
    the vector for free column f has a 1 at f and -red[r][f] at each pivot
    column, zeros elsewhere.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for r, p in enumerate(pivots):
            c = red[r][f]
            if c != 0:
                vec[p] = -c
        basis.append(vec)
    return basis


def nullspace_sparse(rows, ncols):
    """Pivot columns and the kernel basis of ``kernel_from_rref``."""
    pivots, red = rref(rows)
    return pivots, kernel_from_rref(pivots, red, ncols)


def nullspace_dense(rows, ncols):
    pivots, basis = nullspace_sparse(rows, ncols)
    dense = []
    for vec in basis:
        dense.append(tuple(vec.get(j, ZERO) for j in range(ncols)))
    return pivots, dense


def solve_particular(A, b):
    """One exact solution of A x = b with free variables set to 0, or None."""
    if not A:
        return None
    ncols = len(A[0])
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    pivots, red = rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the constant column
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def det(A):
    """Determinant by exact elimination with division; generic over fields.

    Pivots are tested by truth value, not by ``!= 0``: a ``RatFunc`` never
    compares equal to the integer 0, yet the zero function is falsy.
    """
    n = len(A)
    work = [list(row) for row in A]
    sign = 1
    result = None
    for c in range(n):
        sel = None
        for i in range(c, n):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            return work[0][0] - work[0][0]  # a zero of the right type
        if sel != c:
            work[c], work[sel] = work[sel], work[c]
            sign = -sign
        piv = work[c][c]
        result = piv if result is None else result * piv
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] / piv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    if sign < 0:
        result = -result
    return result


def det_fraction_free(A):
    """Determinant by fraction-free (Bareiss) elimination over an integral domain.

    The entries need +, -, * and a ``//`` that is exact division, as on
    integers or on ``Poly`` over Q.  With pivot p and previous pivot prev,
    every later entry becomes (p * a - f * b) // prev; each is a minor of
    A (Sylvester's identity), so each division is exact and no entry ever
    leaves the domain.  The last pivot is then the determinant.
    """
    n = len(A)
    work = [list(row) for row in A]
    sign = 1
    prev = None
    for k in range(n - 1):
        sel = next((i for i in range(k, n) if work[i][k]), None)
        if sel is None:
            return work[0][0] - work[0][0]  # a zero of the right type
        if sel != k:
            work[k], work[sel] = work[sel], work[k]
            sign = -sign
        wk = work[k]
        p = wk[k]
        for i in range(k + 1, n):
            wi = work[i]
            f = wi[k]
            if not f and p == prev:
                continue  # (p * a) // prev = a
            for j in range(k + 1, n):
                x = p * wi[j] - f * wk[j] if f else p * wi[j]
                wi[j] = x if prev is None else x // prev
        prev = p
    d = work[n - 1][n - 1]
    return -d if sign < 0 else d


class GramRank:
    """Rank of a growing integer vector family via incremental Bareiss LDL^T.

    ``pair(a, b)`` must return the exact inner product of the vectors
    labeled a and b, as an integer.  ``add(label)`` reports whether the new
    vector is independent of those already accepted; dependent vectors are
    discarded.

    With d_k the k-th leading principal minor of the accepted Gram block
    (d_{-1} = 1), a new row a = [pair(label, l_j)] runs through the
    accepted pivots k in order: a[c] = (d_k a[c] - a[k] L_c[k]) // d_{k-1}
    for the later columns c, and the diagonal a_nn = (d_k a_nn - a[k]^2)
    // d_{k-1}, where L_c is the row a that pivot c ended with.  Every
    value is an integer minor (Sylvester's identity), so each division is
    exact; the final a_nn is the next leading minor, positive if the
    vector is independent and zero if it is not, because the Gram matrix
    is positive semidefinite and its accepted block positive definite.
    """

    def __init__(self, pair):
        self.pair = pair
        self.labels = []       # labels of independent vectors, in order
        self._rows = []        # per pivot: its eliminated Gram row L
        self._d = [1]          # leading principal minors d_{-1}, d_0, d_1, ...

    @property
    def rank(self):
        return len(self.labels)

    def add(self, label):
        pair = self.pair
        a = [pair(label, lj) for lj in self.labels]
        ann = pair(label, label)
        d, rows = self._d, self._rows
        n = len(a)
        for k in range(n):
            dk, dprev, ak = d[k + 1], d[k], a[k]
            for c in range(k + 1, n):
                a[c] = (dk * a[c] - ak * rows[c][k]) // dprev
            ann = (dk * ann - ak * ak) // dprev
        if ann == 0:
            return False
        self.labels.append(label)
        self._rows.append(a)
        self._d.append(ann)
        return True
