"""Hilbert-function profiles over Q(z) and transcendence-degree estimation.

phi(d) is the dimension, over the rational-function field, of the span
of all monomials of total degree <= d in the solution family.  Rank over
Q of truncations would measure the wrong field, so the dimension is
derived from the relation module over Q[z] instead: with K(D) the
Q-dimension of polynomial-coefficient relations of coefficient degree
<= D among the M monomials, the increment K(D+1) - K(D) equals the
module rank once D passes the generator degrees, and

    phi(d) = M - (stable increment).

K(D') comes from one elimination of ``lifting.convolution_rows`` at
degree D + 1, whose columns are degree-major: the system of degree D' is
its first M(D' + 1) columns, so K(D') = M(D' + 1) minus the number of
pivot columns below M(D' + 1), for D' = D - 1, D, D + 1 at once.

Stability is demanded twice before a value is reported: the increment
must agree across two consecutive coefficient degrees, and the kernel
dimensions must be unchanged when the truncation order is lowered by
``lifting.GUARD``, which takes a second elimination on the first rows of
the same system; otherwise the computation refuses to answer.

The growth exponent of phi is the transcendence degree; it is read off
by exact integer finite differences, with no tolerance anywhere.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from . import linalg
from .errors import InsufficientOrder, RankNotStabilized
from .kron import monomial_series
from .lifting import GUARD, convolution_rows
from .scalars import QQ, ZERO

__all__ = [
    "PhiProfile",
    "TrdegEstimate",
    "BoundsReport",
    "phi_function",
    "phi_profile",
    "estimate_trdeg",
    "bounds_check",
    "monomial_family",
]


def _exponent_vectors(m, d):
    """All exponent vectors of total degree <= d, graded lexicographic."""
    out = [e for e in iproduct(range(d + 1), repeat=m) if sum(e) <= d]
    out.sort(key=lambda e: (sum(e), e))
    return out


def monomial_family(f, d, order):
    """Truncated series of every monomial of total degree <= d in the family."""
    exps = _exponent_vectors(len(f), d)
    return exps, monomial_series(f, exps, order)


def phi_function(f, d, D, N):
    """phi(d): Q(z)-dimension of the degree-<=d monomial span of the family.

    Requires the relation-module increment to stabilize at coefficient
    degrees D-1, D, D+1 and, when the order budget leaves room, to be
    insensitive to lowering the truncation order; raises
    RankNotStabilized otherwise.
    """
    if min(s.order for s in f) < N:
        raise InsufficientOrder("series shorter than the requested order")
    _, series = monomial_family(f, d, N)
    M = len(series)
    cuts = [M * max(dd + 1, 0) for dd in (D - 1, D, D + 1)]  # unknowns per degree
    for dd, cut in zip((D - 1, D, D + 1), cuts):
        if cut and N < cut + GUARD:
            raise InsufficientOrder(f"order {N} < {cut + GUARD} needed for degree {dd}")
    rows = convolution_rows(series, D + 1, N)

    def increments(order):
        pivots = linalg.pivot_columns(rows[:order])
        ks = [cut - sum(p < cut for p in pivots) for cut in cuts]
        return ks[1] - ks[0], ks[2] - ks[1]

    r_lo, r_hi = increments(N)
    if r_lo != r_hi:
        raise RankNotStabilized(
            f"relation-module increments differ at degree {D}: {r_lo} vs {r_hi}")
    # order stability: drop to the smallest admissible order, never below it
    n_low = max(M * (D + 2) + GUARD, N - GUARD)
    if n_low < N:
        if increments(n_low) != (r_lo, r_hi):
            raise RankNotStabilized("relation kernel moved when the order was lowered")
    return M - r_hi


@dataclass(frozen=True)
class PhiProfile:
    d_values: tuple
    phi: tuple
    stabilized_D: int
    relation_order: int

    def to_json(self):
        return {"d_values": list(self.d_values), "phi": list(self.phi),
                "stabilized_D": self.stabilized_D, "relation_order": self.relation_order}


def phi_profile(f, d_max, D, N):
    """phi(d) for d = 0..d_max at one relation degree and order."""
    ds = tuple(range(d_max + 1))
    values = tuple(phi_function(f, d, D, N) for d in ds)
    return PhiProfile(ds, values, D, N)


@dataclass(frozen=True)
class TrdegEstimate:
    t_hat: int
    method: str
    confidence: str  # "stable" | "unstable"

    def to_json(self):
        return {"t_hat": self.t_hat, "method": self.method,
                "confidence": self.confidence}


def estimate_trdeg(profile):
    """Growth exponent of phi by exact finite differences.

    t_hat is the largest order whose difference sequence is not
    identically zero; the estimate is stable when the next difference
    vanishes on at least two tail entries.
    """
    phi = list(profile.phi)
    if len(phi) < 4:
        raise ValueError("profile too short; need at least 4 values")
    t_hat = 0
    seq = phi
    order = 0
    while True:
        nxt = [b - a for a, b in zip(seq, seq[1:])]
        order += 1
        if not nxt or all(v == 0 for v in nxt):
            t_hat = order - 1
            stable = len(nxt) >= 2 and all(v == 0 for v in nxt)
            return TrdegEstimate(t_hat, f"finite-difference/{order}",
                                 "stable" if stable else "unstable")
        seq = nxt
        if len(seq) == 1:
            # differences ran out while still nonzero: cannot certify
            return TrdegEstimate(order, f"finite-difference/{order}", "unstable")


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@dataclass(frozen=True)
class BoundsRow:
    d: int
    phi: int
    lower: int
    lower_ok: bool


@dataclass(frozen=True)
class BoundsReport:
    t: int
    rows: tuple
    gamma2: object
    lower_all_ok: bool

    def to_json(self):
        from .scalars import qq_str

        return {"t": self.t,
                "rows": [{"d": r.d, "phi": r.phi, "lower": r.lower,
                          "lower_ok": r.lower_ok} for r in self.rows],
                "gamma2": qq_str(self.gamma2),
                "lower_all_ok": self.lower_all_ok}


def bounds_check(profile, t):
    """Polynomial-growth sandwich for phi at exponent t.

    Lower: phi(d) >= binom(d+t, t), valid when the family holds t
    algebraically independent members together with the constant 1.
    Upper: the least rational gamma2 with phi(d) <= gamma2 * d^t over the
    computed rows (d >= 1); for t = 0 this is just the max of phi.
    """
    rows = []
    gamma2 = ZERO
    for d, phi in zip(profile.d_values, profile.phi):
        lower = _binom(d + t, t)
        rows.append(BoundsRow(d, phi, lower, phi >= lower))
        if d >= 1:
            bound = QQ(phi) if t == 0 else QQ(phi, d ** t)
            if bound > gamma2:
                gamma2 = bound
    return BoundsReport(t, tuple(rows), gamma2, all(r.lower_ok for r in rows))
