"""Degree-bounded relation ideals of a system's iterated matrix values.

Fix a regular rational point alpha.  For each iterate k the pair
(A_k(alpha), alpha^{q^k}) is a point in m^2 + 1 coordinates; the
polynomials (in matrix indeterminates y_{i,j} and z, with per-variable
y-degree <= delta1 and z-degree <= delta2) that vanish at *all* late
iterates form a vector space, computed here as the exact nullspace of an
evaluation matrix over a growing set of iterates.

A finite computation can only over-approximate a "for all k large"
condition, so kernels are accepted only once they survive two
consecutive enlargements of the iterate set and an exact re-check on
held-out larger iterates; results are labeled stabilized, not proved.

Rank bookkeeping never materializes the full evaluation matrix: each row
is a Kronecker product u_k (x) v_k of a y-monomial value vector and a
z-power vector, so Gram inner products collapse to closed-form products
of geometric sums, and rank(M) = rank(M M^T) holds over Q because a sum
of rational squares vanishes only term by term.  This keeps dimension
profiles exact at box sizes whose column count (delta1+1)^{m^2} (delta2+1)
would be far out of reach.

All of this runs on integers: row k is first multiplied by the constant
prod_ij D_k[ij]^delta1 * Q_k^delta2, where D_k[ij] is the denominator of
the entry (i, j) of A_k(alpha) and Q_k that of alpha^{q^k}.  Scaling a row
by a nonzero constant moves neither its span nor any rank, and it turns
every entry into an integer and every geometric sum into a homogeneous
integer one, H(a, b, n) = sum_e a^e b^{n-e}, so ``GramRank`` and ``rref``
run fraction-free.

``MonomialBasis.integer_values`` is the one evaluator of the box at a
point: the dense integer rows, the rational rows of ``eval_matrix``, the
exact value of a sparse vector (``evaluate``, behind ``is_member`` and
``shift_check``) and the constraint rows of ``engine.build_aux`` all read
it, each dividing by the scale only where a rational value is wanted.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from . import linalg
from .errors import StabilizationFailed
from .linalg import GramRank
from .scalars import QQ, ZERO, clear_denominators, qq_str
from .systems import EvalChain, require_regular

__all__ = [
    "MonomialBasis",
    "KernelBasis",
    "DimProfile",
    "DimRow",
    "DoublingReport",
    "eval_matrix",
    "cell_rref",
    "kernel_basis",
    "is_member",
    "dim_profile",
    "doubling_check",
    "shift_check",
    "vector_str",
]


def _homogeneous_powers(a, b, n):
    """[a^e b^{n-e} for e = 0..n]."""
    out = [1] * (n + 1)
    acc = 1
    for e in range(1, n + 1):
        acc *= a
        out[e] = acc
    acc = 1
    for e in range(n - 1, -1, -1):
        acc *= b
        out[e] *= acc
    return out


class MonomialBasis:
    """Ordered monomials y^nu z^lam with nu in the delta1 box, lam <= delta2.

    The order is graded lexicographic on the flattened exponent matrix
    nu (total degree first, then tuple order), with lam as the secondary
    key; tests pin this order, and kernel vectors are indexed by it.

    The box is evaluated in one way, on integers, by ``integer_values``:
    per-entry power tables once per point, then the y-part of only the
    y-monomials a caller asks for.  ``integer_row`` takes every one of
    them, ``evaluate`` only those in a vector's support.
    """

    def __init__(self, m, delta1, delta2):
        self.m = m
        self.delta1 = delta1
        self.delta2 = delta2
        nus = sorted(iproduct(range(delta1 + 1), repeat=m * m),
                     key=lambda t: (sum(t), t))
        self.nus = tuple(nus)
        self.entries = tuple((nu, lam) for nu in nus for lam in range(delta2 + 1))
        self._index = {e: i for i, e in enumerate(self.entries)}

    def __len__(self):
        return len(self.entries)

    def index(self, nu, lam):
        return self._index[(tuple(nu), lam)]

    def integer_values(self, mat, x, nus=None):
        """The box at the point (mat, x), cleared of denominators: (u, w).

        With mat[i][j] = N_ij / D_ij and x = P / Q in lowest terms, u lists
        prod_ij N_ij^nu_ij D_ij^{delta1 - nu_ij} for each nu of ``nus`` (every
        y-monomial by default) and w[lam] = P^lam Q^{delta2 - lam}, so
        mat^nu x^lam = u * w[lam] / scale with scale = prod_ij D_ij^delta1 *
        Q^delta2, the u * w[0] of the constant monomial.  The per-entry power
        tables are built once per call, and a y-part is computed only for the
        monomials asked for.
        """
        d1 = self.delta1
        tables = [_homogeneous_powers(v.numerator, v.denominator, d1)
                  for row in mat for v in row]
        w = _homogeneous_powers(x.numerator, x.denominator, self.delta2)
        u = []
        for nu in self.nus if nus is None else nus:
            val = 1
            for tbl, e in zip(tables, nu):
                t = tbl[e]
                if t != 1:
                    val *= t
            u.append(val)
        return u, w

    def integer_row(self, mat, x):
        """The evaluation row at (mat, x) times its scale, in integers.

        Entry (nu, lam) is u(nu) * w[lam] of ``integer_values``; scaling a
        row by a nonzero constant leaves row spaces, hence every rref,
        unchanged.  Column 0 is the constant monomial, whose entry is the
        scale itself.
        """
        u, w = self.integer_values(mat, x)
        out = []
        for val in u:
            out.extend([val * z for z in w])
        return out

    def evaluate(self, coeffs, mat, x):
        """Exact value of a coefficient vector (sparse dict) at (mat, x).

        A dot product of the coefficients with the integer values over the
        support, each y-part computed once, divided by the scale (the value
        of the constant monomial, ``nus[0]``).
        """
        entries, one = self.entries, self.nus[0]
        nus = list(dict.fromkeys([one] + [entries[idx][0] for idx in coeffs]))
        u, w = self.integer_values(mat, x, nus)
        u_of = dict(zip(nus, u))
        acc = ZERO
        for idx, c in coeffs.items():
            nu, lam = entries[idx]
            acc += c * (u_of[nu] * w[lam])
        return acc / (u_of[one] * w[0])


def eval_matrix(sys, alpha, delta1, delta2, kset, chain=None):
    """Evaluation rows (one per k in kset) over the monomial basis, exact."""
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    mb = MonomialBasis(sys.m, delta1, delta2)
    rows = []
    for k in sorted(kset):
        row = mb.integer_row(chain.mat(k), chain.x(k))
        scale = row[0]  # the constant monomial's entry
        rows.append([QQ(v, scale) for v in row])
    return mb, rows


def cell_rref(sys, alpha, delta1, delta2, kset, chain=None):
    """RREF of the evaluation matrix: (basis, pivot columns, reduced rows)."""
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    mb = MonomialBasis(sys.m, delta1, delta2)
    pivots, red = linalg.rref([mb.integer_row(chain.mat(k), chain.x(k))
                               for k in sorted(kset)])
    return mb, tuple(pivots), tuple(red)


@dataclass(frozen=True)
class KernelBasis:
    mb: MonomialBasis
    basis: tuple                 # sparse dicts index -> rational, reduced echelon
    pivots: tuple                # pivot columns of the evaluation matrix
    k_used: tuple
    held_out_verified: tuple

    @property
    def dimension(self):
        return len(self.basis)

    @property
    def rank(self):
        return len(self.pivots)


def kernel_basis(sys, alpha, delta1, delta2, k_min=1, max_k=24, heldout_count=4,
                 chain=None):
    """Stabilized kernel of the evaluation map on the (delta1, delta2) box.

    The iterate set starts as {k_min, k_min+1} and grows, doubling while
    every row still adds rank and creeping by 2 afterwards (iterate bit
    sizes grow like q^k, so overshooting is expensive).  The kernel is
    accepted once it is unchanged across two consecutive enlargements and
    every basis vector evaluates to exactly zero on heldout_count larger
    iterates; a held-out failure resumes growth, and running past max_k
    raises StabilizationFailed.
    """
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    mb = MonomialBasis(sys.m, delta1, delta2)
    cap = max_k - heldout_count - k_min + 1  # largest usable iterate-set size
    size = 2
    history = []
    rows = []  # evaluation rows for k_min, k_min+1, ... (grown on demand)
    while True:
        if size > cap:
            raise StabilizationFailed(max_k, f"kernel of box ({delta1},{delta2})")
        while len(rows) < size:
            k = k_min + len(rows)
            rows.append(mb.integer_row(chain.mat(k), chain.x(k)))
        kset = tuple(range(k_min, k_min + size))
        pivots, red = linalg.rref(rows[:size])
        history.append((tuple(pivots), tuple(red)))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            vectors = linalg.kernel_from_rref(pivots, red, len(mb))
            # each vector times its denominator lcm, as (column, integer) pairs
            scaled = [tuple(zip(vec, clear_denominators(vec.values()))) for vec in vectors]
            held = tuple(range(kset[-1] + 1, kset[-1] + 1 + heldout_count))
            # an empty kernel holds vacuously: skip the largest iterates yet
            ok = not scaled or all(sum(c * row[idx] for idx, c in vec) == 0
                                   for row in (mb.integer_row(chain.mat(k), chain.x(k))
                                               for k in held)
                                   for vec in scaled)
            if ok:
                return KernelBasis(mb, tuple(vectors), tuple(pivots), kset, held)
        size = size * 2 if len(pivots) == size else size + 2


def is_member(mb, coeffs, sys, alpha, kset, chain=None):
    """True iff the coefficient vector vanishes exactly at every k in kset."""
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    if isinstance(coeffs, (list, tuple)):
        coeffs = {i: QQ(c) for i, c in enumerate(coeffs) if c != 0}
    return all(mb.evaluate(coeffs, chain.mat(k), chain.x(k)) == 0 for k in kset)


# ---------------------------------------------------------------------------
# ranks through Gram inner products

class _GramPair:
    """Integer Gram inner products of row-scaled evaluation rows, cached by iterate pair.

    Row k is ``MonomialBasis.integer_row`` at iterate k: with
    A_k(alpha)[i][j] = N_k[ij] / D_k[ij] and x_k = P_k / Q_k in lowest
    terms, the evaluation row times prod_ij D_k[ij]^delta1 * Q_k^delta2.
    <row_k, row_l> then splits as a y-part
    prod_ij H(N_k[ij] N_l[ij], D_k[ij] D_l[ij], delta1) and a z-part
    H(P_k P_l, Q_k Q_l, delta2); the y-part is independent of delta2 and
    cached separately.
    """

    def __init__(self, chain, delta1):
        self.chain = chain
        self.delta1 = delta1
        self._ucache = {}

    def u_inner(self, k, l):
        key = (min(k, l), max(k, l))
        val = self._ucache.get(key)
        if val is None:
            a, b = self.chain.mat(k), self.chain.mat(l)
            val = 1
            for ra, rb in zip(a, b):
                for x, y in zip(ra, rb):
                    val *= sum(_homogeneous_powers(x.numerator * y.numerator,
                                                   x.denominator * y.denominator, self.delta1))
            self._ucache[key] = val
        return val

    def pair_fn(self, delta2):
        chain = self.chain

        def pair(k, l):
            xk, xl = chain.x(k), chain.x(l)
            return self.u_inner(k, l) * sum(_homogeneous_powers(
                xk.numerator * xl.numerator, xk.denominator * xl.denominator, delta2))

        return pair


@dataclass(frozen=True)
class DimRow:
    delta2: int
    rank: int
    increment: Optional[int]
    k_top: int  # largest iterate the stabilized rank consumed

    def to_json(self):
        return {"delta2": self.delta2, "rank": self.rank,
                "increment": self.increment, "k_top": self.k_top}


@dataclass(frozen=True)
class DimProfile:
    delta1: int
    rows: tuple
    c1_estimate: Optional[int]

    def to_json(self):
        return {"delta1": self.delta1, "rows": [r.to_json() for r in self.rows],
                "c1_estimate": self.c1_estimate}


def _stabilized_rank(pair, k_min, max_k, window=3):
    """Exact rank of the row family, grown one iterate at a time.

    Accepts once `window` consecutive iterates add nothing; the larger
    iterates double in bit size, so growth is gentle by construction.
    """
    gr = GramRank(pair)
    quiet = 0
    k = k_min
    while True:
        if k > max_k:
            raise StabilizationFailed(max_k, "rank growth did not settle")
        if gr.add(k):
            quiet = 0
        else:
            quiet += 1
            if quiet >= window:
                return gr.rank, k
        k += 1


def dim_profile(sys, alpha, delta1, delta2_values, k_min=1, max_k=24, window=3,
                chain=None):
    """Stabilized ranks d(delta1, delta2) over an ascending delta2 range."""
    require_regular(sys, alpha)
    delta2_values = list(delta2_values)
    if delta2_values != sorted(delta2_values):
        raise ValueError("delta2 range must be ascending")
    chain = chain or EvalChain(sys, alpha)
    gp = _GramPair(chain, delta1)
    rows = []
    prev = None
    for d2 in delta2_values:
        r, k_top = _stabilized_rank(gp.pair_fn(d2), k_min, max_k, window)
        inc = None if prev is None else r - prev
        rows.append(DimRow(d2, r, inc, k_top))
        prev = r
    c1 = rows[-1].increment if len(rows) > 1 else None
    return DimProfile(delta1, tuple(rows), c1)


@dataclass(frozen=True)
class DoublingReport:
    delta1: int
    delta2: int
    rank_base: int
    rank_doubled: int
    factor: int
    passed: bool

    def to_json(self):
        return {"delta1": self.delta1, "delta2": self.delta2,
                "rank_base": self.rank_base, "rank_doubled": self.rank_doubled,
                "factor": self.factor, "passed": self.passed}


def doubling_check(sys, alpha, delta1, delta2, k_min=1, max_k=24, chain=None):
    """Exact check rank(2 delta1, delta2) <= 2^{m^2} rank(delta1, delta2)."""
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    r1, _ = _stabilized_rank(_GramPair(chain, delta1).pair_fn(delta2), k_min, max_k)
    r2, _ = _stabilized_rank(_GramPair(chain, 2 * delta1).pair_fn(delta2), k_min, max_k)
    factor = 2 ** (sys.m * sys.m)
    return DoublingReport(delta1, delta2, r1, r2, factor, r2 <= factor * r1)


# ---------------------------------------------------------------------------
# shift invariance

def shift_check(mb, coeffs, sys, alpha, k, ell_set, chain=None):
    """Exact shift test of a kernel vector through the cocycle identity.

    For each l the product A_l(alpha) A_k(alpha^{q^l}) is formed
    explicitly, asserted equal to A_{k+l}(alpha), and the vector is
    evaluated there; True iff every evaluation is exactly zero.
    """
    require_regular(sys, alpha)
    chain = chain or EvalChain(sys, alpha)
    if isinstance(coeffs, (list, tuple)):
        coeffs = {i: QQ(c) for i, c in enumerate(coeffs) if c != 0}
    for ell in ell_set:
        lhs = linalg.mat_mul(chain.mat(ell), chain.partial_product(ell, k))
        rhs = chain.mat(k + ell)
        if lhs != rhs:
            raise AssertionError("cocycle identity failed; exact arithmetic bug")
        if mb.evaluate(coeffs, rhs, chain.x(k + ell)) != 0:
            return False
    return True


def vector_str(mb, coeffs):
    """Render a kernel vector as a polynomial in y_{i,j} and z."""
    if isinstance(coeffs, (list, tuple)):
        coeffs = {i: QQ(c) for i, c in enumerate(coeffs) if c != 0}
    parts = []
    for idx in sorted(coeffs):
        c = coeffs[idx]
        if c == 0:
            continue
        nu, lam = mb.entries[idx]
        factors = []
        for pos, e in enumerate(nu):
            if e:
                i, j = divmod(pos, mb.m)
                base = f"y{i + 1}{j + 1}"
                factors.append(base if e == 1 else f"{base}^{e}")
        if lam == 1:
            factors.append("z")
        elif lam > 1:
            factors.append(f"z^{lam}")
        mono = "*".join(factors) if factors else "1"
        cs = qq_str(c)
        if cs == "1" and factors:
            parts.append(mono)
        elif cs == "-1" and factors:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}" if factors else cs)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
