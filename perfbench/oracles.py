"""Reference computations for the benchmark, written apart from mahlerlift.

Nothing here imports the library.  Exact arithmetic uses
``fractions.Fraction`` with naive algorithms; ranks are taken modulo large
primes first (a rank modulo p never exceeds the rank over Q) and are
recomputed exactly by plain Gaussian elimination whenever the modular value
disagrees with the program's, so every verdict is exact.
"""

import math
from fractions import Fraction as Fr
from itertools import product

PRIMES = (2 ** 61 - 1, 2 ** 31 - 1)


class Mismatch(Exception):
    """A program output disagrees with the reference computation."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def fr(x):
    """Any rational (Fraction, gmpy2.mpq, int) as a Fraction."""
    return Fr(int(x.numerator), int(x.denominator))


def fr_str(x):
    x = Fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# dense polynomials: lists of Fractions, index = exponent, no trailing zeros

def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pmul(a, b, limit=None):
    """Product of two coefficient lists, optionally truncated mod z^limit."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if limit is not None:
        n = min(n, limit)
    out = [Fr(0)] * n
    for i, x in enumerate(a):
        if x == 0 or i >= n:
            continue
        for j, y in enumerate(b[:n - i]):
            if y != 0:
                out[i + j] += x * y
    return ptrim(out)


def peval(p, x):
    acc = Fr(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pcompose_power(p, e):
    """p(z^e)."""
    if not p:
        return []
    out = [Fr(0)] * ((len(p) - 1) * e + 1)
    for i, c in enumerate(p):
        out[i * e] = c
    return out


def parse_poly(doc):
    """A polynomial entry of a system file: a list of rational strings."""
    if isinstance(doc, dict):
        if ptrim(Fr(c) for c in doc["den"]) != [Fr(1)]:
            raise ValueError("the reference code handles polynomial entries only")
        doc = doc["num"]
    return ptrim(Fr(str(c)) for c in doc)


# ---------------------------------------------------------------------------
# systems f(z) = A(z) f(z^q) with polynomial entries

class OSystem:
    def __init__(self, name, q, A, f0=None, coeff_bound=None):
        self.name = name
        self.q = q
        self.A = [[ptrim(e) for e in row] for row in A]
        self.m = len(A)
        self.f0 = None if f0 is None else [Fr(c) for c in f0]
        self.coeff_bound = coeff_bound

    @classmethod
    def from_doc(cls, doc):
        cb = doc.get("coeff_bound")
        return cls(doc.get("name", ""), int(doc["q"]),
                   [[parse_poly(e) for e in row] for row in doc["A"]],
                   [Fr(str(c)) for c in doc["f0"]] if "f0" in doc else None,
                   (cb["C"], cb["rho"]) if cb else None)

    def doc(self):
        d = {"name": self.name, "q": self.q, "m": self.m,
             "A": [[[fr_str(c) for c in e] for e in row] for row in self.A]}
        if self.f0 is not None:
            d["f0"] = [fr_str(c) for c in self.f0]
        if self.coeff_bound is not None:
            d["coeff_bound"] = {"C": self.coeff_bound[0], "rho": self.coeff_bound[1]}
        return d

    def at(self, x):
        return [[peval(e, x) for e in row] for row in self.A]

    def det_poly(self):
        return det_laplace(self.A, padd, pmul, lambda p: [-c for c in p])


def det_laplace(M, add, mul, neg):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = mul(M[0][j], det_laplace(minor, add, mul, neg))
        if j % 2:
            term = neg(term)
        total = term if total is None else add(total, term)
    return total


def matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)), Fr(0)) for j in range(m)]
            for i in range(n)]


def identity(m):
    return [[Fr(int(i == j)) for j in range(m)] for i in range(m)]


class Iterates:
    """Exact x_k = alpha^(q^k) and A_k(alpha) = A(x_0) ... A(x_{k-1})."""

    def __init__(self, sys, alpha):
        self.sys = sys
        self.xs = [Fr(alpha)]
        self.mats = [identity(sys.m)]

    def x(self, k):
        while len(self.xs) <= k:
            self.xs.append(self.xs[-1] ** self.sys.q)
        return self.xs[k]

    def mat(self, k):
        while len(self.mats) <= k:
            j = len(self.mats) - 1
            self.mats.append(matmul(self.mats[-1], self.sys.at(self.x(j))))
        return self.mats[k]


def mod(x, p):
    d = x.denominator % p
    if d == 0:
        raise ZeroDivisionError("denominator divisible by the modulus")
    return x.numerator % p * pow(d, -1, p) % p


class ModIterates:
    """The same iterates reduced modulo a prime, computed modulo p throughout."""

    def __init__(self, sys, alpha, p):
        self.sys, self.p = sys, p
        self.A = [[[mod(c, p) for c in e] for e in row] for row in sys.A]
        self.xs = [mod(Fr(alpha), p)]
        self.mats = [[[int(i == j) for j in range(sys.m)] for i in range(sys.m)]]

    def x(self, k):
        while len(self.xs) <= k:
            self.xs.append(pow(self.xs[-1], self.sys.q, self.p))
        return self.xs[k]

    def mat(self, k):
        p, m = self.p, self.sys.m
        while len(self.mats) <= k:
            x = self.x(len(self.mats) - 1)
            step = [[_eval_mod(e, x, p) for e in row] for row in self.A]
            prev = self.mats[-1]
            self.mats.append([[sum(prev[i][t] * step[t][j] for t in range(m)) % p
                               for j in range(m)] for i in range(m)])
        return self.mats[k]


def _eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# the monomial box y^nu z^lam, |nu|_inf <= delta1, lam <= delta2

def box_nus(m, delta1):
    """Exponent tuples in graded lexicographic order (the documented order)."""
    return sorted(product(range(delta1 + 1), repeat=m * m), key=lambda t: (sum(t), t))


def box_entries(m, delta1, delta2):
    return [(nu, lam) for nu in box_nus(m, delta1) for lam in range(delta2 + 1)]


def eval_row(mat, x, entries, mul=lambda a, b: a * b, one=Fr(1)):
    """Values of the monomials `entries` at (mat, x)."""
    flat = [v for row in mat for v in row]
    nu_vals = {}
    xpow = [one]
    row = []
    for nu, lam in entries:
        u = nu_vals.get(nu)
        if u is None:
            u = one
            for base, e in zip(flat, nu):
                for _ in range(e):
                    u = mul(u, base)
            nu_vals[nu] = u
        while len(xpow) <= lam:
            xpow.append(mul(xpow[-1], x))
        row.append(mul(u, xpow[lam]))
    return row


def mod_row(it, k, entries):
    p = it.p
    return eval_row(it.mat(k), it.x(k), entries, lambda a, b: a * b % p, 1)


def exact_row(it, k, entries):
    return eval_row(it.mat(k), it.x(k), entries)


def monomial_value(mat, x, nu, lam):
    v = Fr(1)
    for base, e in zip((v for row in mat for v in row), nu):
        if e:
            v *= base ** e
    return v * x ** lam


def poly_value(terms, mat, x):
    """Exact value of {(nu, lam): c} at (mat, x)."""
    return sum((c * monomial_value(mat, x, nu, lam) for (nu, lam), c in terms.items()),
               Fr(0))


# ---------------------------------------------------------------------------
# echelon forms: incremental rank modulo p, and exact over Q

class ModEchelon:
    def __init__(self, p):
        self.p = p
        self.basis = []  # (pivot, row with row[pivot] == 1)

    @property
    def rank(self):
        return len(self.basis)

    def reduce(self, v):
        p = self.p
        v = [a % p for a in v]
        for piv, r in self.basis:
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, r)]
        return v

    def add(self, v):
        v = self.reduce(v)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        self.basis.append((piv, [a * inv % self.p for a in v]))
        return True


class ExactEchelon:
    def __init__(self):
        self.basis = []

    @property
    def rank(self):
        return len(self.basis)

    def reduce(self, v):
        v = [Fr(a) for a in v]
        for piv, r in self.basis:
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, r)]
        return v

    def add(self, v):
        v = self.reduce(v)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        self.basis.append((piv, [a * inv for a in v]))
        return True


def rank_mod(rows, p):
    e = ModEchelon(p)
    for r in rows:
        e.add(r)
    return e.rank


def rank_exact(rows):
    e = ExactEchelon()
    for r in rows:
        e.add(r)
    return e.rank


def rank_of(rows, claimed):
    """Rank of rational rows: a modular rank when it reaches the claim, else exact.

    A modular rank never exceeds the rank over Q, so one that reaches the
    claim settles it (equal: confirmed; above: the claim is too low); any
    other disagreement is settled by exact elimination.
    """
    for p in PRIMES:
        try:
            r = rank_mod([[mod(Fr(a), p) for a in row] for row in rows], p)
        except ZeroDivisionError:
            continue
        if r >= claimed:
            return r
    return rank_exact(rows)


def stabilized_rank(row_of, k_min, window, k_cap, echelon):
    """Rank of rows k_min, k_min+1, ... accepted once `window` rows in a row add nothing.

    Returns (rank, k_top); this is the stopping rule the program documents for
    its stabilized ranks.
    """
    quiet = 0
    k = k_min
    while k <= k_cap:
        if echelon.add(row_of(k)):
            quiet = 0
        else:
            quiet += 1
            if quiet >= window:
                return echelon.rank, k
        k += 1
    return None, None


def check_stabilized_rank(sys, alpha, delta1, delta2, claimed, k_top, k_min=1, window=3,
                          k_cap=40, mod_cache=None, exact_cache=None):
    """Compare a (rank, k_top) claim with the reference stabilized rank."""
    entries = box_entries(sys.m, delta1, delta2)
    for p in PRIMES:
        it = mod_cache(p) if mod_cache else ModIterates(sys, alpha, p)
        r, k = stabilized_rank(lambda kk: mod_row(it, kk, entries), k_min, window, k_cap,
                               ModEchelon(p))
        if r == claimed and (k_top is None or k == k_top):
            return
    it = exact_cache() if exact_cache else Iterates(sys, alpha)
    r, k = stabilized_rank(lambda kk: exact_row(it, kk, entries), k_min, window, k_cap,
                           ExactEchelon())
    expect(r == claimed, f"stabilized rank {claimed}, reference {r}")
    expect(k_top is None or k == k_top, f"k_top {k_top}, reference {k}")


# ---------------------------------------------------------------------------
# series: closed forms, an independent solver, and residuals

def cantor_f1(n):
    """Coefficient 1 exactly at the powers of 2."""
    return [Fr(int(i >= 1 and i & (i - 1) == 0)) for i in range(n)]


def thue_morse(n):
    """(-1)^(binary digit sum of i)."""
    return [Fr(-1 if bin(i).count("1") % 2 else 1) for i in range(n)]


def closed_form(name, n):
    one = [Fr(int(i == 0)) for i in range(n)]
    if name == "cantor2":
        return [cantor_f1(n), one]
    if name == "cantor3":
        f1 = cantor_f1(n)
        f2 = list(f1)
        if n > 1:
            f2[1] += 1
        return [f1, f2, one]
    if name == "thue_morse":
        return [thue_morse(n)]
    return None


def solve(sys, n):
    """Series solution from f0 by recursion over the support of A (A(0) = I)."""
    m, q = sys.m, sys.q
    c = [[Fr(0)] * n for _ in range(m)]
    for i in range(m):
        c[i][0] = sys.f0[i]
    support = [[[(u, a) for u, a in enumerate(sys.A[i][j]) if a != 0] for j in range(m)]
               for i in range(m)]
    for t in range(1, n):
        for i in range(m):
            acc = Fr(0)
            for j in range(m):
                for u, a in support[i][j]:
                    if u <= t and (t - u) % q == 0:
                        acc += a * c[j][(t - u) // q]
            c[i][t] = acc
    return c


def reference_series(sys, n):
    return closed_form(sys.name, n) or solve(sys, n)


def residual_order(sys, f, n):
    """First index where f - A(z) f(z^q) is nonzero mod z^n, or n."""
    m, q = sys.m, sys.q
    first = n
    for i in range(m):
        r = list(f[i][:n])
        for j in range(m):
            for u, a in enumerate(sys.A[i][j]):
                if a == 0:
                    continue
                for v in range(0, (n - 1 - u) // q + 1 if u < n else 0):
                    r[u + q * v] -= a * f[j][v]
        idx = next((t for t, x in enumerate(r) if x != 0), None)
        if idx is not None:
            first = min(first, idx)
    return first


def combination_order(polys, f, n):
    """First index where sum_i L_i(z) f_i(z) is nonzero mod z^n, or n."""
    acc = [Fr(0)] * n
    for L, fi in zip(polys, f):
        for a, x in enumerate(L):
            if x == 0:
                continue
            for t in range(n - a):
                if fi[t] != 0:
                    acc[a + t] += x * fi[t]
    return next((t for t, x in enumerate(acc) if x != 0), n)


def series_power_product(f, lam, n):
    """prod_i f_i^lam_i mod z^n, padded to n coefficients."""
    acc = [Fr(1)]
    for i, e in enumerate(lam):
        for _ in range(e):
            acc = pmul(acc, f[i][:n], n)
    return acc + [Fr(0)] * (n - len(acc))


def convolution_rows(f, D, n):
    """Rows of the system sum_i p_i f_i == 0 mod z^n over deg p_i <= D."""
    rows = []
    for t in range(n):
        rows.append([f[i][t - s] if t - s >= 0 else Fr(0)
                     for i in range(len(f)) for s in range(D + 1)])
    return rows


# ---------------------------------------------------------------------------
# heights, regularity, symbolic cocycle

def height(x):
    """log max(|p|, q) for p/q in lowest terms; 0 at 0."""
    x = Fr(x)
    if x == 0:
        return 0.0
    return math.log(max(abs(x.numerator), x.denominator))


def first_singular_iterate(sys, alpha):
    """Least k with det A(alpha^(q^k)) = 0, or None when no iterate is singular.

    Past the first k with |x_k| < |b_0| / (|b_0| + sum_{i>0} |b_i|), where
    the b_i are the coefficients of det A(z) / z^v, the sum sum_{i>0} b_i x^i
    is smaller than |b_0| in modulus, so no later iterate can be a root.
    """
    d = sys.det_poly()
    v = next(i for i, c in enumerate(d) if c != 0)
    b = d[v:]
    radius = abs(b[0]) / (abs(b[0]) + sum(abs(c) for c in b[1:]))
    x = Fr(alpha)
    k = 0
    while abs(x) >= radius:
        if peval(d, x) == 0:
            return k
        x = x ** sys.q
        k += 1
    return None


def symbolic_cocycle(sys, k):
    """A(z) A(z^q) ... A(z^(q^(k-1))) as polynomial entries."""
    m = sys.m
    acc = [[[Fr(1)] if i == j else [] for j in range(m)] for i in range(m)]
    e = 1
    for _ in range(k):
        step = [[pcompose_power(c, e) if e > 1 else c for c in row] for row in sys.A]
        acc = [[_psum(pmul(acc[i][t], step[t][j]) for t in range(m)) for j in range(m)]
               for i in range(m)]
        e *= sys.q
    return acc


def _psum(polys):
    out = []
    for p in polys:
        out = padd(out, p)
    return out


# ---------------------------------------------------------------------------
# the polynomial notation of kernel vectors: "y11*z^2 - 3/2*y12^2 + 1"

def parse_box_poly(s, m):
    """{(nu, lam): coefficient} from the rendered form of a box polynomial."""
    s = s.strip()
    if s == "0":
        return {}
    out = {}
    for term in s.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        factors = term.split("*")
        coeff = Fr(1)
        if factors[0][0].isdigit():
            coeff = Fr(factors.pop(0))
        nu = [0] * (m * m)
        lam = 0
        for fac in factors:
            base, _, e = fac.partition("^")
            e = int(e) if e else 1
            if base == "z":
                lam += e
            elif base == "1":
                continue
            else:
                i, j = int(base[1]) - 1, int(base[2]) - 1
                nu[i * m + j] += e
        key = (tuple(nu), lam)
        out[key] = out.get(key, Fr(0)) + sign * coeff
    return out


def constraint_value(P, tau, mat, x, f, p):
    """E_p(A_k, x_k) for E(Y, z) = sum_j P_j(Y, z) (tau Y f(z))^j truncated mod z^p."""
    m = len(mat)
    w = [sum((tau[i] * mat[i][j] for i in range(m)), Fr(0)) for j in range(m)]
    g = ptrim(sum((w[j] * f[j][t] for j in range(m)), Fr(0)) for t in range(p))
    gpow = [Fr(1)]
    total = []
    for j, Pj in enumerate(P):
        if j:
            gpow = pmul(gpow, g, p)
        # P_j(A_k, z) as a polynomial in z
        pz = [Fr(0)] * p
        for (nu, lam), c in Pj.items():
            if lam < p:
                pz[lam] += c * monomial_value(mat, Fr(1), nu, 0)
        total = padd(total, pmul(ptrim(pz), gpow, p))
    return peval(total, x)
