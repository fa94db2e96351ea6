"""Linear systems f(z) = A(z) f(z^q) over exact rationals.

The central object is :class:`MahlerSystem`: a q >= 2, a size m, an
invertible m x m matrix of rational functions, an optional initial
vector f(0), and an optional geometric coefficient bound used for tail
estimates.  On top of it this module provides

* symbolic iterated products A_k(z) = A(z) A(z^q) ... A(z^{q^{k-1}})
  and their exact evaluation at a rational point,
* a series solver and a residual verifier, both reading the cleared
  form that every system builds once, at construction: the rows
  D_i f_i(z) = sum_j P_ij(z) f_j(z^q), with D_i the lcm of row i's
  denominators, kept as the nonzero terms of D_i and P only, so order N
  costs O(N m (deg D + m deg P / q)) rational operations in either, and
  det A = det P / prod_i D_i, with det P from fraction-free elimination
  over Q[z],
* a finite certificate that a point alpha is regular (A(alpha^{q^k})
  defined and invertible for *all* k >= 0), and
* the unit augmentation that adjoins the constant function 1.

The regularity certificate turns the quantifier over all k into finitely
many exact checks: with Phi the polynomial whose zeros are exactly the
bad points (denominator lcm times determinant numerator, z^v stripped),
every nonzero root of Phi has modulus at least
r0 = |a_0| / (|a_0| + max_i |a_i|), so once |alpha|^{q^k} drops below r0
no further iterate can be bad.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from . import linalg
from .errors import (AlphaOutOfRange, AmbiguousInitialVector, DegreeBudgetExceeded,
                     InconsistentInitialVector, NotRegularAt, PoleAtOrigin)
from .polyring import Poly, RatFunc, TruncSeries
from .scalars import QQ, ZERO, ONE, qq_from_str, qq_str

__all__ = [
    "MahlerSystem",
    "ClearedRow",
    "RegularityCertificate",
    "EvalChain",
    "load_system",
    "save_system",
    "system_from_json",
    "system_to_json",
    "cocycle",
    "eval_cocycle",
    "solve_series",
    "verify_solution",
    "certify_regular",
    "augment_with_unit",
    "corpus_path",
]


class ClearedRow(NamedTuple):
    """Row i of the cleared system D_i(z) f_i(z) = sum_j P_ij(z) f_j(z^q).

    D_i is the lcm of row i's denominators and P_ij = (D_i / den_ij) num_ij.
    ``d_terms`` holds the nonzero (t, D_i[t]) with t >= 1, and
    ``by_residue[r]`` the nonzero (u, j, P_ij[u]) with u = r mod q; both
    are sorted by exponent, so a recursion can stop at the first one above
    n.  ``shift`` is v_i = val_z(D / D_i), D the lcm of all D_i.
    """

    D: Poly
    shift: int
    d_terms: tuple
    by_residue: tuple


def _lcm(polys):
    """Monic lcm of monic polynomials; those of degree 0 equal 1 and are skipped."""
    out = Poly.one()
    for p in polys:
        if p.degree > 0 and p != out:
            out = p if out.degree == 0 else out.lcm(p)
    return out


def _clear_row(row, q):
    """D_i, the polynomials P_ij, and the sparse terms of ``ClearedRow`` for one row of A."""
    Di = _lcm(e.den for e in row)
    P = tuple(e.num if e.den == Di else (Di // e.den) * e.num  # exact: den | D_i
              for e in row)
    by_residue = [[] for _ in range(q)]
    for j, Pij in enumerate(P):
        for u, p in enumerate(Pij.coeffs):
            if p:
                by_residue[u % q].append((u, j, p))
    d_terms = tuple((t, d) for t, d in enumerate(Di.coeffs) if t >= 1 and d)
    return Di, P, d_terms, tuple(tuple(sorted(terms)) for terms in by_residue)


@dataclass(frozen=True)
class MahlerSystem:
    """Immutable system data; hashable so certificates can be cached.

    Construction also builds the cleared form once: ``cleared_rows``, the
    denominator lcm D and det A.  They are derived from A and q, so they
    are not fields, and equality and hashing ignore them.
    """

    q: int
    m: int
    A: tuple  # m x m tuple of tuples of RatFunc
    f0: Optional[tuple] = None  # m rationals
    coeff_bound: Optional[tuple] = None  # (C, rho), both rationals >= 0
    name: str = ""

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if self.m < 1 or len(self.A) != self.m or any(len(r) != self.m for r in self.A):
            raise ValueError("A must be an m x m matrix")
        if self.f0 is not None and len(self.f0) != self.m:
            raise ValueError("f0 must have length m")
        rows = [_clear_row(row, self.q) for row in self.A]
        detP = linalg.det_fraction_free([P for _, P, _, _ in rows])
        if not detP:
            raise ValueError("det A vanishes identically; the system is not invertible")
        D = _lcm(Di for Di, _, _, _ in rows)
        v = D.strip_origin_root()[0]
        prod = Poly.one()  # det A = det P / prod_i D_i
        for Di, _, _, _ in rows:
            if Di.degree > 0:
                prod = prod * Di
        object.__setattr__(self, "cleared_rows", tuple(
            ClearedRow(Di, v - Di.strip_origin_root()[0], d_terms, by_residue)
            for Di, _, d_terms, by_residue in rows))
        object.__setattr__(self, "_den_lcm", D)
        object.__setattr__(self, "_det", RatFunc(detP, prod))

    def det(self):
        """det A as a reduced rational function, computed once at construction."""
        return self._det

    def den_lcm(self):
        """Least common multiple of the denominators of the entries of A."""
        return self._den_lcm

    def max_entry_degree(self):
        return max(max(e.num.degree, e.den.degree) for row in self.A for e in row)

    def A_at(self, x):
        """Exact evaluation A(x); ZeroDivisionError on a pole."""
        return tuple(tuple(e(x) for e in row) for row in self.A)


@dataclass(frozen=True)
class RegularityCertificate:
    regular: bool
    alpha: object
    checked_upto: int            # exact checks were run for all k < checked_upto
    tail_bound_radius: object    # r0: certified lower bound on nonzero roots of Phi
    failing_k: Optional[int] = None
    failure_kind: Optional[str] = None  # "pole" | "singular"

    def to_json(self):
        doc = {
            "regular": self.regular,
            "alpha": qq_str(self.alpha),
            "checked_upto": self.checked_upto,
            "tail_bound_radius": qq_str(self.tail_bound_radius),
        }
        if not self.regular:
            doc["failing_k"] = self.failing_k
            doc["failure_kind"] = self.failure_kind
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(
            regular=bool(doc["regular"]),
            alpha=qq_from_str(doc["alpha"]),
            checked_upto=int(doc["checked_upto"]),
            tail_bound_radius=qq_from_str(doc["tail_bound_radius"]),
            failing_k=doc.get("failing_k"),
            failure_kind=doc.get("failure_kind"),
        )


# ---------------------------------------------------------------------------
# serialization

def system_to_json(sys):
    doc = {"name": sys.name, "q": sys.q, "m": sys.m,
           "A": [[e.to_json() for e in row] for row in sys.A]}
    if sys.f0 is not None:
        doc["f0"] = [qq_str(c) for c in sys.f0]
    if sys.coeff_bound is not None:
        C, rho = sys.coeff_bound
        doc["coeff_bound"] = {"C": qq_str(C), "rho": qq_str(rho)}
    return doc


def system_from_json(doc):
    known = {"name", "q", "m", "A", "f0", "coeff_bound"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown keys in system file: {sorted(unknown)}")
    A = tuple(tuple(RatFunc.from_json(e) for e in row) for row in doc["A"])
    f0 = tuple(qq_from_str(str(c)) for c in doc["f0"]) if "f0" in doc else None
    cb = None
    if "coeff_bound" in doc:
        cb = (qq_from_str(doc["coeff_bound"]["C"]), qq_from_str(doc["coeff_bound"]["rho"]))
    return MahlerSystem(q=int(doc["q"]), m=int(doc["m"]), A=A, f0=f0,
                        coeff_bound=cb, name=doc.get("name", ""))


def load_system(path):
    with open(path, "r", encoding="ascii") as fh:
        return system_from_json(json.load(fh))


def save_system(sys, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(system_to_json(sys), fh, indent=1)
        fh.write("\n")


def corpus_path(name):
    """Path of a bundled example system (thue_morse, cantor2, cantor3)."""
    from importlib.resources import files

    return files("mahlerlift.data") / f"{name}.json"


# ---------------------------------------------------------------------------
# cocycle iteration

def cocycle(sys, k, degree_budget=4096):
    """Symbolic A_k(z) = A(z) A(z^q) ... A(z^{q^{k-1}}); A_0 = identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and sys.q ** (k - 1) * max(1, sys.max_entry_degree()) > degree_budget:
        raise DegreeBudgetExceeded(
            f"symbolic degree q^{k - 1} * deg A exceeds budget {degree_budget}")
    result = linalg.identity_like(sys.m, RatFunc.one(), RatFunc.zero())
    power = 1
    for _ in range(k):
        step = tuple(tuple(e.substitute_power(power) if power > 1 else e for e in row)
                     for row in sys.A)
        result = linalg.mat_mul(result, step)
        power *= sys.q
    return result


class EvalChain:
    """Incrementally evaluated cocycle at a fixed rational point.

    Holds x_k = alpha^{q^k}, the step matrices A(x_k), and the products
    A_k(alpha), extending on demand.  A NotRegularAt is raised as soon as
    a step hits a pole or a singular matrix value, so callers below a
    certificate's failing_k stay safe.
    """

    def __init__(self, sys, alpha):
        self.sys = sys
        self.alpha = QQ(alpha)
        self.xs = [self.alpha]
        self.steps = []      # steps[k] = A(x_k)
        self.mats = [linalg.identity_like(sys.m, ONE, ZERO)]  # mats[k] = A_k(alpha)

    def x(self, k):
        while len(self.xs) <= k:
            self.xs.append(self.xs[-1] ** self.sys.q)
        return self.xs[k]

    def step(self, k):
        while len(self.steps) <= k:
            j = len(self.steps)
            try:
                val = self.sys.A_at(self.x(j))
            except ZeroDivisionError:
                raise NotRegularAt(j, "pole") from None
            if linalg.det(val) == 0:
                raise NotRegularAt(j, "singular")
            self.steps.append(val)
        return self.steps[k]

    def mat(self, k):
        while len(self.mats) <= k:
            j = len(self.mats)
            self.mats.append(linalg.mat_mul(self.mats[-1], self.step(j - 1)))
        return self.mats[k]

    def partial_product(self, start, length):
        """A_length evaluated at x_start, i.e. A(x_start) ... A(x_{start+length-1})."""
        result = linalg.identity_like(self.sys.m, ONE, ZERO)
        for j in range(start, start + length):
            result = linalg.mat_mul(result, self.step(j))
        return result


def eval_cocycle(sys, alpha, k, chain=None):
    """Exact A_k(alpha), computed incrementally (never through symbols).

    Requires a regularity certificate, or k strictly below its failing_k.
    """
    cert = certify_regular(sys, alpha)
    if not cert.regular and cert.failing_k is not None and k > cert.failing_k:
        raise NotRegularAt(cert.failing_k, cert.failure_kind)
    chain = chain or EvalChain(sys, alpha)
    return chain.mat(k)


# ---------------------------------------------------------------------------
# series solving and verification

def solve_series(sys, order):
    """Solve f(z) = A(z) f(z^q) mod z^order by coefficient recursion.

    Needs A pole-free at the origin.  The initial vector is f0 if the
    system carries one; otherwise ker(A(0) - I) must have dimension <= 1
    (dimension 0 forces the zero solution, dimension 1 is normalized so
    its first nonzero entry is 1).

    The recursion runs on the cleared rows D_i f_i(z) = sum_j P_ij(z) f_j(z^q)
    (see ``ClearedRow``): coefficient n of row i is

        D_i[0] c_i[n] = sum_j sum_{u = n mod q, u <= n} P_ij[u] c_j[(n - u) / q]
                        - sum_{1 <= t <= n} D_i[t] c_i[n - t],

    where (n - u) / q < n, so it is well-founded.  It visits only the
    nonzero terms of D and P: O(order * m * (deg D + m deg P / q))
    rational operations.  D_i[0] = 0 exactly when an entry of row i has
    a pole at 0.
    """
    if order < 1:
        raise ValueError("a truncated series needs at least one coefficient")
    m, q = sys.m, sys.q
    rows = [(row.D[0], row.d_terms, row.by_residue) for row in sys.cleared_rows]
    if any(d0 == 0 for d0, _, _ in rows):
        raise PoleAtOrigin("denominator vanishes at the origin")
    A0 = tuple(tuple(e.num[0] / e.den[0] for e in row) for row in sys.A)
    f0 = sys.f0
    if f0 is None:
        rows0 = [tuple(A0[i][j] - (ONE if i == j else ZERO) for j in range(m)) for i in range(m)]
        _, basis = linalg.nullspace_dense(rows0, m)
        if len(basis) == 0:
            f0 = (ZERO,) * m
        elif len(basis) == 1:
            vec = basis[0]
            lead = next(c for c in vec if c != 0)
            f0 = tuple(c / lead for c in vec)
        else:
            raise AmbiguousInitialVector(
                f"ker(A(0) - I) has dimension {len(basis)}; supply f0")
    else:
        for i in range(m):
            acc = -f0[i]
            for j in range(m):
                acc += A0[i][j] * f0[j]
            if acc != 0:
                raise InconsistentInitialVector("(A(0) - I) f0 != 0")
    coeffs = [[ZERO] * order for _ in range(m)]
    for i in range(m):
        coeffs[i][0] = f0[i]
    for n in range(1, order):
        r = n % q
        for ci, (d0, d_terms, by_residue) in zip(coeffs, rows):
            acc = ZERO
            for u, j, p in by_residue[r]:
                if u > n:
                    break
                c = coeffs[j][(n - u) // q]
                if c:
                    acc += p * c
            for t, d in d_terms:
                if t > n:
                    break
                c = ci[n - t]
                if c:
                    acc -= d * c
            ci[n] = acc if d0 == 1 else acc / d0
    return tuple(TruncSeries(c) for c in coeffs)


def verify_solution(sys, f):
    """Largest N' with D(z) f(z) - (D A)(z) f(z^q) == 0 mod z^{N'}.

    D is the denominator lcm of A and N' is at most the shortest order
    among the truncations.  Row i of that residual is (D / D_i)(z) times
    the cleared row residual R_i = D_i f_i(z) - sum_j P_ij(z) f_j(z^q),
    and D / D_i is z^{v_i} times a unit, so row i vanishes below
    n + v_i, n the first index with
    R_i[n] = D_i[0] c_i[n] + sum_t D_i[t] c_i[n - t]
             - sum_{j, u} P_ij[u] c_j[(n - u) / q] != 0.
    The sums run over the nonzero terms of the cleared form that the
    system stores (see ``ClearedRow``), the one ``solve_series`` reads:
    O(N m (deg D + m deg P / q)) rational operations for N coefficients.
    Works even when A has a pole at the origin and the truncations came
    from elsewhere.
    """
    if len(f) != sys.m:
        raise ValueError("solution vector has wrong length")
    q = sys.q
    cs = [s.coeffs for s in f]
    first = min(len(c) for c in cs)
    for ci, row in zip(cs, sys.cleared_rows):
        d0, d_terms, by_residue = row.D[0], row.d_terms, row.by_residue
        for n in range(first - row.shift):
            acc = ci[n] if d0 == 1 else d0 * ci[n]
            for t, d in d_terms:
                if t > n:
                    break
                c = ci[n - t]
                if c:
                    acc += d * c
            for u, j, p in by_residue[n % q]:
                if u > n:
                    break
                c = cs[j][(n - u) // q]
                if c:
                    acc -= p * c
            if acc:
                first = n + row.shift
                break
    return first


# ---------------------------------------------------------------------------
# regularity certification

@lru_cache(maxsize=256)
def certify_regular(sys, alpha, max_tail_steps=64):
    """Certify that A(alpha^{q^k}) is defined and invertible for all k >= 0.

    Exact checks run for k < K where K is the least iterate with
    |alpha|^{q^K} < r0; beyond that the root bound excludes failures.
    """
    alpha = QQ(alpha)
    if not (0 < abs(alpha) < 1):
        raise AlphaOutOfRange("certification needs 0 < |alpha| < 1")
    D = sys.den_lcm()
    phi = D * sys.det().num
    v, phi = phi.strip_origin_root()
    if phi.degree == 0:
        r0 = ONE
    else:
        a0 = abs(phi.coeffs[0])
        biggest = max(abs(c) for c in phi.coeffs)
        r0 = a0 / (a0 + biggest)
    # find K = least k with |alpha|^{q^k} < r0, walking x -> x^q exactly
    x = abs(alpha)
    K = 0
    while x >= r0:
        x = x ** sys.q
        K += 1
        if K > max_tail_steps:
            raise AlphaOutOfRange("tail radius not reached; alpha too close to 1")
    xk = alpha
    for k in range(K):
        if D(xk) == 0:
            return RegularityCertificate(False, alpha, k, r0, k, "pole")
        if phi(xk) == 0:
            return RegularityCertificate(False, alpha, k, r0, k, "singular")
        xk = xk ** sys.q
    return RegularityCertificate(True, alpha, K, r0)


def require_regular(sys, alpha):
    cert = certify_regular(sys, alpha)
    if not cert.regular:
        raise NotRegularAt(cert.failing_k, cert.failure_kind)
    return cert


# ---------------------------------------------------------------------------
# unit augmentation

def augment_with_unit(sys):
    """Block system of size m+1 with the constant function 1 adjoined.

    The new matrix is block-diagonal(1, A); regularity at any alpha is
    unchanged because neither the denominators nor the determinant move.
    """
    m = sys.m
    one, zero = RatFunc.one(), RatFunc.zero()
    A = [[one] + [zero] * m]
    for i in range(m):
        A.append([zero] + list(sys.A[i]))
    f0 = (ONE,) + tuple(sys.f0) if sys.f0 is not None else None
    cb = sys.coeff_bound
    if cb is not None and cb[0] < 1:
        cb = (ONE, cb[1])  # the adjoined constant needs C >= 1
    return MahlerSystem(q=sys.q, m=m + 1, A=tuple(tuple(r) for r in A), f0=f0,
                        coeff_bound=cb, name=(sys.name + "_unit") if sys.name else "")
