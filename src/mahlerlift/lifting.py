"""Guessing and lifting of linear relations among system solutions.

``convolution_rows`` builds the linear system behind every relation
space here and in ``hilbert``: row n holds the coefficient of z^n in
sum_g p_g(z) g(z), column (t, g) the unknown coefficient of z^t in p_g.
Columns are degree-major, t = 0..D and g within each t, so the system for
any degree D' <= D is its first M(D' + 1) columns, M the family size.

``guess_function_relations`` finds all vectors of polynomials p with
deg p_i <= D and sum_i p_i(z) f_i(z) == 0 mod z^N, as the exact nullspace
of that system; such a vector is a certified relation *modulo
truncation* only, so N is required to exceed the unknown count by
``GUARD`` and the tests re-check bases at doubled orders.

``verify_value_relation`` decides a claimed relation sum_i tau_i f_i(alpha) = 0
rigorously from an exact partial sum plus a geometric tail bound derived
from the system's (C, rho) coefficient bound.

``lift_linear_relation`` expresses a verified value relation as an exact
rational combination of the guessed functional relations evaluated at
alpha; failure of that linear solve at degree D is reported as
NoLiftAtDegree, a signal to escalate D (true relations always lift at
some finite degree).
"""

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import (InsufficientOrder, MissingCoeffBound, NoLiftAtDegree,
                     RhoAlphaNotContracting, ValueRelationRefuted,
                     ValueRelationUnverified)
from .polyring import Poly
from .scalars import QQ, ZERO, ONE, qq_str
from .systems import require_regular, solve_series

__all__ = [
    "FunctionRelationBasis",
    "ValueRelation",
    "VerifyOutcome",
    "LiftResult",
    "convolution_rows",
    "guess_function_relations",
    "verify_value_relation",
    "lift_linear_relation",
    "relation_residual_order",
]

GUARD = 16  # orders beyond the unknown count that a relation must also meet


@dataclass(frozen=True)
class FunctionRelationBasis:
    degree_bound: int
    verified_order: int
    basis: tuple  # tuple of length-m tuples of Poly, reduced echelon over Q

    @property
    def dimension(self):
        return len(self.basis)

    def to_json(self):
        return {
            "degree_bound": self.degree_bound,
            "verified_order": self.verified_order,
            "basis": [[p.to_json() for p in vec] for vec in self.basis],
        }


@dataclass(frozen=True)
class ValueRelation:
    tau: tuple
    alpha: object

    def to_json(self):
        return {"tau": [qq_str(t) for t in self.tau], "alpha": qq_str(self.alpha)}


@dataclass(frozen=True)
class VerifyOutcome:
    status: str  # "verified" | "refuted" | "inconclusive"
    partial_sum: object
    tail_bound: object
    margin: Optional[object] = None  # |S| - T when refuted

    @property
    def verified(self):
        return self.status == "verified"

    def to_json(self):
        doc = {"status": self.status, "partial_sum": qq_str(self.partial_sum),
               "tail_bound": qq_str(self.tail_bound)}
        if self.margin is not None:
            doc["margin"] = qq_str(self.margin)
        return doc


@dataclass(frozen=True)
class LiftResult:
    coefficients: tuple  # m polynomials L_i(z)
    residual_order: int

    def to_json(self):
        return {"coefficients": [p.to_json() for p in self.coefficients],
                "residual_order": self.residual_order}


def convolution_rows(series, D, N):
    """Rows n < N of sum_g p_g g == 0 mod z^N, columns (t, g) degree-major.

    Entry (n, t * M + g) is g[n - t]: the first M(D' + 1) columns are the
    system of degree D', and the first n rows that of order n.
    """
    return [[g[n - t] if n >= t else ZERO for t in range(D + 1) for g in series]
            for n in range(N)]


def guess_function_relations(f, D, N):
    """Exact basis of {p : deg p_i <= D, sum p_i f_i == 0 mod z^N}.

    The kernel of ``convolution_rows`` is permuted to component-major
    unknowns, coefficient t of p_i at i * (D + 1) + t, before its reduced
    echelon form is taken, so the basis is canonical; raising N can only
    shrink the space.
    """
    m = len(f)
    if m == 0:
        raise ValueError("empty function family")
    unknowns = m * (D + 1)
    if N < unknowns + GUARD:
        raise InsufficientOrder(
            f"need order >= {unknowns + GUARD} = unknowns + guard, got {N}")
    if any(s.order < N for s in f):
        raise InsufficientOrder("series order below requested relation order")
    _, kernel = linalg.nullspace_sparse(convolution_rows(f, D, N), unknowns)
    # degree-major column t * m + i holds coefficient t of p_i
    dense = [[vec.get(t * m + i, ZERO) for i in range(m) for t in range(D + 1)]
             for vec in kernel]
    _, reduced = linalg.rref(dense)  # canonical form with leading ones
    basis = []
    for vec in reduced:
        polys = []
        for i in range(m):
            polys.append(Poly(vec[i * (D + 1):(i + 1) * (D + 1)]))
        basis.append(tuple(polys))
    return FunctionRelationBasis(D, N, tuple(basis))


def verify_value_relation(sys, f, rel, N):
    """Rigorous check of sum_i tau_i f_i(alpha) = 0 by partial sum + tail.

    S is the exact value of the degree-N partial sums; the tail is
    bounded by (sum |tau_i|) C (rho |alpha|)^{N+1} / (1 - rho |alpha|).
    Verified when |S| <= T, refuted when |S| > 2T.
    """
    if sys.coeff_bound is None:
        raise MissingCoeffBound("system carries no (C, rho) coefficient bound")
    C, rho = sys.coeff_bound
    alpha = QQ(rel.alpha)
    a = abs(alpha)
    if rho * a >= 1:
        raise RhoAlphaNotContracting(f"rho*|alpha| = {qq_str(rho * a)} >= 1")
    if any(s.order < N + 1 for s in f):
        raise InsufficientOrder("series order too small for the requested partial sum")
    S = ZERO
    for ti, fi in zip(rel.tau, f):
        if ti != 0:
            S += QQ(ti) * fi.truncate(N + 1).eval_partial(alpha)
    tau_norm = sum(abs(QQ(t)) for t in rel.tau)
    T = tau_norm * C * (rho * a) ** (N + 1) / (1 - rho * a)
    absS = abs(S)
    if absS <= T:
        return VerifyOutcome("verified", S, T)
    if absS > 2 * T:
        return VerifyOutcome("refuted", S, T, margin=absS - T)
    return VerifyOutcome("inconclusive", S, T)


def relation_residual_order(coefficients, f):
    """First order at which sum_i L_i(z) f_i(z) fails to vanish (or the order).

    Coefficient n of the sum is sum_i sum_t L_i[t] f_i[n - t], taken over
    the nonzero terms of the L_i only, in order of t, so that each n
    stops at the first term above it; no series product is built.
    """
    order = min(s.order for s in f)
    terms = sorted(((t, c, fi.coeffs) for Li, fi in zip(coefficients, f)
                    for t, c in enumerate(Li.coeffs) if c), key=lambda term: term[0])
    for n in range(order):
        acc = ZERO
        for t, c, fc in terms:
            if t > n:
                break
            x = fc[n - t]
            if x:
                acc += c * x
        if acc:
            return n
    return order


def lift_linear_relation(sys, alpha, tau, D, N, series=None, basis=None,
                         override=False):
    """Lift a value relation at alpha to a polynomial-coefficient relation.

    Solves sum_j c_j B_j(alpha) = tau exactly over the guessed relation
    basis B; the lift is sum_j c_j B_j, so it vanishes on the solutions
    modulo z^N by construction and specializes to tau at alpha exactly.
    """
    alpha = QQ(alpha)
    require_regular(sys, alpha)
    tau = tuple(QQ(t) for t in tau)
    if len(tau) != sys.m:
        raise ValueError("tau must have length m")
    if series is None:
        series = solve_series(sys, N + 1)
    if not override:
        outcome = verify_value_relation(sys, series, ValueRelation(tau, alpha), N)
        if outcome.status == "refuted":
            raise ValueRelationRefuted(
                f"partial sum {qq_str(outcome.partial_sum)} exceeds twice the tail bound")
        if outcome.status == "inconclusive":
            raise ValueRelationUnverified("increase N or pass override=True")
    if basis is None:
        basis = guess_function_relations(series, D, N)
    if all(t == 0 for t in tau):
        zero = tuple(Poly() for _ in range(sys.m))
        return LiftResult(zero, min(s.order for s in series))
    if basis.dimension == 0:
        raise NoLiftAtDegree(D)
    cols = basis.basis
    A = [[cols[j][i](alpha) for j in range(len(cols))] for i in range(sys.m)]
    c = linalg.solve_particular(A, list(tau))
    if c is None:
        raise NoLiftAtDegree(D)
    lifted = []
    for i in range(sys.m):
        acc = Poly()
        for j, cj in enumerate(c):
            if cj != 0:
                acc = acc + cols[j][i].scale(cj)
        lifted.append(acc)
    lifted = tuple(lifted)
    # exact specialization check is part of the contract
    if any(lifted[i](alpha) != tau[i] for i in range(sys.m)):
        raise AssertionError("the lift does not specialize to tau; exact arithmetic bug")
    return LiftResult(lifted, relation_residual_order(lifted, series))
