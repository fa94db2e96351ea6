"""Auxiliary-function construction, decay tables, and height growth.

The construction instantiates the classical four-step transcendence
scheme at desk scale for a verified linear value relation tau:

* (AF) Build E(Y,z) = sum_j P_j(Y,z) F(Y,z)^j, F = tau Y f(z), with the
  P_j drawn from a complement of the computed relation kernel, subject to
  the exact constraints E_p(A_k(alpha), alpha^{q^k}) = 0 over a set of
  iterates, where E_p is the z-truncation at order p.  The unknown count
  exceeds the constraint count by design, so a nonzero solution exists by
  exact rank computation, not by appeal to dimension asymptotics.
* (NV/UB/LB) With v0 the least index carrying a nonzero P_j, the stripped
  series EE = sum_{j >= v0} P_j F^{j - v0} satisfies EE F^{v0} = E and,
  because F vanishes exactly at every iterate point, EE agrees with
  P_{v0} there.  The decay table reports those exact values, their
  certified logs, exact Weil heights, and the Liouville floor
  log|value| >= -h(value), checked at the integer level.

Working directly with the iterate values (A_k(alpha), alpha^{q^k})
sidesteps the analytic intermediary entirely: the classical argument
conjugates by a relation matrix whose existence is non-constructive, but
every constraint ever evaluated lives at these points, where that
conjugation acts as the identity.  The truncation threshold follows the
same budget-driven substitution: the asymptotic choice
floor(delta1 delta2 / 2^{m^2+2}) vanishes at any tractable size, so
p = max(1, floor(delta1 delta2 / 4)) is used and both values are
recorded.

Constraint iterates grow (and are recorded) until the solution also
vanishes on held-out iterates, mirroring the stabilization discipline of
the kernel computations.
"""

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import (EmptyKernel, PreconditionTauNotARelation, StabilizationFailed)
from .ideal import MonomialBasis
from .lifting import ValueRelation, verify_value_relation
from .polyring import Poly, TruncSeries
from .scalars import (QQ, ZERO, ONE, LogValue, liouville_check, log_abs, qq_str,
                      weil_height)
from .systems import EvalChain, require_regular
from .util import sparse_mul

__all__ = [
    "AuxFunction",
    "DecayRow",
    "DecayReport",
    "HeightGrowthReport",
    "build_aux",
    "decay_report",
    "height_growth",
    "formal_identity_order",
]

HELDOUT_COUNT = 4   # larger iterates the chosen kernel element must also vanish at
GROWTH_BUDGET = 16  # iterates the constraint set may grow by past its largest one


@dataclass(frozen=True)
class AuxFunction:
    delta1: int
    delta2: int
    p: int
    p_asymptotic: int            # floor(delta1 delta2 / 2^{m^2+2}); recorded, unused
    alpha: object
    tau: tuple
    mb: MonomialBasis            # the (delta1, delta2) box the P_j live in
    pivot_monomials: tuple       # complement basis: indices into mb.entries
    complement_kset: tuple       # iterates whose evaluation rows chose the pivots
    P: tuple                     # delta1 + 1 sparse dicts, index -> rational
    v0: int
    kset_constraints: tuple
    kset_heldout: tuple

    def to_json(self):
        from .ideal import vector_str

        return {
            "delta1": self.delta1,
            "delta2": self.delta2,
            "p": self.p,
            "p_asymptotic": self.p_asymptotic,
            "alpha": qq_str(self.alpha),
            "tau": [qq_str(t) for t in self.tau],
            "v0": self.v0,
            "kset_constraints": list(self.kset_constraints),
            "kset_heldout": list(self.kset_heldout),
            "complement_kset": list(self.complement_kset),
            "complement_dimension": len(self.pivot_monomials),
            "P": [vector_str(self.mb, pj) for pj in self.P],
        }


def _tau_row_series(sys, mat, tau, f, order):
    """F(A_k, z) = (tau A_k) . f(z) as an exact truncated series."""
    m = sys.m
    w = []
    for j in range(m):
        acc = ZERO
        for i in range(m):
            if tau[i] != 0:
                acc += tau[i] * mat[i][j]
        w.append(acc)
    acc = TruncSeries.zero(order)
    for j in range(m):
        if w[j] != 0:
            acc = acc + f[j].truncate(order).scale(w[j])
    return acc


def _constraint_row(sys, chain, mb, pivots, tau, f, p, delta1, k):
    """Coefficients of E_p(A_k, x_k) = 0 over the unknown layout, times a constant.

    Unknowns are (j, pivot monomial) in j-major order; the coefficient of
    coordinate (j, (nu, lam)) is A_k^nu * sum_{s < p - lam} (g^j)_s x^{lam+s}
    with g(z) = F(A_k, z).  A_k^nu is read as the integer y-part of
    ``MonomialBasis.integer_values``, for the pivot monomials only, so the
    row comes out times prod_ij D_k[ij]^delta1, a nonzero constant per
    iterate.  That moves neither the kernel (the rref of the constraint
    rows is unchanged) nor the held-out test (a zero stays zero), hence
    neither P nor v0.
    """
    mat, x = chain.mat(k), chain.x(k)
    g = _tau_row_series(sys, mat, tau, f, p)
    gpow = [TruncSeries.from_poly(Poly.one(), p)]
    for _ in range(delta1):
        gpow.append(gpow[-1] * g)
    xpow = [ONE]
    for _ in range(mb.delta2 + p):
        xpow.append(xpow[-1] * x)
    wsum = []
    for j in range(delta1 + 1):
        per_lam = []
        for lam in range(mb.delta2 + 1):
            acc = ZERO
            for s in range(0, p - lam):
                c = gpow[j][s]
                if c != 0:
                    acc += c * xpow[lam + s]
            per_lam.append(acc)
        wsum.append(per_lam)
    monomials = [mb.entries[idx] for idx in pivots]
    u, _ = mb.integer_values(mat, x, [nu for nu, _ in monomials])
    row = []
    for j in range(delta1 + 1):
        for val, (_, lam) in zip(u, monomials):
            w = wsum[j][lam]
            row.append(val * w if w != 0 else ZERO)
    return row


def build_aux(sys, f, alpha, tau, delta1, delta2, kset):
    """Construct a nontrivial auxiliary function for a value relation.

    The returned P_j live on the pivot-monomial complement of the
    (delta1, delta2) evaluation kernel, read off the iterates
    1..max(6, delta2 + 2); the constraint set starts at the given kset and
    grows until the chosen kernel element also vanishes exactly at
    HELDOUT_COUNT larger iterates, all recorded.
    """
    alpha = QQ(alpha)
    require_regular(sys, alpha)
    tau = tuple(QQ(t) for t in tau)
    chain = EvalChain(sys, alpha)
    complement_kset = tuple(range(1, max(6, delta2 + 2) + 1))
    # the pivots of cell_rref, without its reduced rows
    mb = MonomialBasis(sys.m, delta1, delta2)
    pivots = tuple(linalg.pivot_columns([mb.integer_row(chain.mat(k), chain.x(k))
                                         for k in complement_kset]))
    r = len(pivots)
    p = max(1, (delta1 * delta2) // 4)
    p_asym = (delta1 * delta2) // (2 ** (sys.m * sys.m + 2))
    kset = tuple(sorted(set(kset)))
    if len(kset) >= (delta1 + 1) * r:
        raise ValueError(
            f"|kset| = {len(kset)} must stay below (delta1+1) * dim complement = "
            f"{(delta1 + 1) * r} so the kernel is nontrivial by dimension count")
    hard_top = max(kset) + GROWTH_BUDGET
    while True:
        rows = [_constraint_row(sys, chain, mb, pivots, tau, f, p, delta1, k)
                for k in kset]
        _, kernel = linalg.nullspace_dense(rows, (delta1 + 1) * r)
        if not kernel:
            raise EmptyKernel("constraint kernel is empty despite the dimension count")
        chosen = [ZERO] * ((delta1 + 1) * r)
        for vec in kernel:
            for i, c in enumerate(vec):
                if c != 0:
                    chosen[i] += c
        if all(c == 0 for c in chosen):  # cancellation in the sum: fall back
            chosen = list(kernel[0])
        top = max(kset)
        held = tuple(range(top + 1, top + 1 + HELDOUT_COUNT))
        ok = True
        for k in held:
            row = _constraint_row(sys, chain, mb, pivots, tau, f, p, delta1, k)
            acc = ZERO
            for c, v in zip(chosen, row):
                if c != 0 and v != 0:
                    acc += c * v
            if acc != 0:
                ok = False
                break
        if ok:
            break
        nxt = top + 1
        if nxt > hard_top or len(kset) + 1 >= (delta1 + 1) * r:
            raise StabilizationFailed(hard_top, "held-out auxiliary constraints")
        kset = kset + (nxt,)
    P = []
    for j in range(delta1 + 1):
        block = chosen[j * r:(j + 1) * r]
        P.append({pivots[t]: c for t, c in enumerate(block) if c != 0})
    v0 = next((j for j, pj in enumerate(P) if pj), None)
    if v0 is None:
        raise AssertionError("the chosen kernel element is zero; exact arithmetic bug")
    return AuxFunction(delta1, delta2, p, p_asym, alpha, tau, mb, tuple(pivots),
                       complement_kset, tuple(P), v0, kset, held)


# ---------------------------------------------------------------------------
# the formal identity EE * F^{v0} = E in Q[Y][[z]]

def _yseries_mul(a, b, order):
    out = [dict() for _ in range(order)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            if not bj:
                continue
            prod = sparse_mul(ai, bj)
            tgt = out[i + j]
            for k, v in prod.items():
                s = tgt.get(k)
                tgt[k] = v if s is None else s + v
    return [{k: v for k, v in layer.items() if v != 0} for layer in out]


def _f_as_yseries(sys, tau, f, order):
    """F(Y, z) = sum_{i,j} tau_i y_{ij} f_j(z) as a Y-polynomial series in z."""
    m = sys.m
    layers = []
    for s in range(order):
        layer = {}
        for i in range(m):
            if tau[i] == 0:
                continue
            for j in range(m):
                c = tau[i] * f[j][s]
                if c != 0:
                    e = [0] * (m * m)
                    e[i * m + j] = 1
                    key = tuple(e)
                    layer[key] = layer.get(key, ZERO) + c
        layers.append({k: v for k, v in layer.items() if v != 0})
    return layers


def _p_as_yseries(aux, j, order):
    layers = [dict() for _ in range(order)]
    for idx, c in aux.P[j].items():
        nu, lam = aux.mb.entries[idx]
        if lam < order:
            layers[lam][nu] = layers[lam].get(nu, ZERO) + c
    return layers


def formal_identity_order(sys, f, aux):
    """Verify EE(Y,z) F(Y,z)^{v0} == E(Y,z) in Q[Y][[z]] up to order p.

    Returns the verified order (== aux.p on success); raises on any
    coefficient mismatch, which would indicate an arithmetic bug rather
    than a mathematical failure.
    """
    order = aux.p
    F = _f_as_yseries(sys, aux.tau, f, order)
    onelayer = [dict() for _ in range(order)]
    onelayer[0][(0,) * (sys.m * sys.m)] = ONE
    fpow = [onelayer]
    for _ in range(aux.delta1):
        fpow.append(_yseries_mul(fpow[-1], F, order))
    E = [dict() for _ in range(order)]
    EE = [dict() for _ in range(order)]
    for j in range(aux.delta1 + 1):
        Pj = _p_as_yseries(aux, j, order)
        term = _yseries_mul(Pj, fpow[j], order)
        for s in range(order):
            for k, v in term[s].items():
                E[s][k] = E[s].get(k, ZERO) + v
        if j >= aux.v0:
            term2 = _yseries_mul(Pj, fpow[j - aux.v0], order)
            for s in range(order):
                for k, v in term2[s].items():
                    EE[s][k] = EE[s].get(k, ZERO) + v
    lhs = _yseries_mul(EE, fpow[aux.v0], order)
    for s in range(order):
        a = {k: v for k, v in lhs[s].items() if v != 0}
        b = {k: v for k, v in E[s].items() if v != 0}
        if a != b:
            raise AssertionError(f"formal identity fails at z-order {s}")
    return order


# ---------------------------------------------------------------------------
# decay table and height growth

@dataclass(frozen=True)
class DecayRow:
    k: int
    value: object                    # exact rational EE(A_k, x_k) = P_{v0}(A_k, x_k)
    is_zero: bool
    log_abs: Optional[LogValue]
    height: LogValue
    liouville_floor: Optional[LogValue]
    liouville_ok: bool

    def to_json(self):
        doc = {"k": self.k, "value": qq_str(self.value), "is_zero": self.is_zero,
               "height": self.height.to_json(), "liouville_ok": self.liouville_ok}
        if self.log_abs is not None:
            doc["log_abs"] = self.log_abs.to_json()
            doc["liouville_floor"] = self.liouville_floor.to_json()
        return doc


@dataclass(frozen=True)
class DecayReport:
    rows: tuple
    c2_hat: float
    c3_hat: float

    def to_json(self):
        return {"rows": [r.to_json() for r in self.rows],
                "c2_hat": float(f"{self.c2_hat:.15g}"),
                "c3_hat": float(f"{self.c3_hat:.15g}")}


def decay_report(sys, f, aux, kmax):
    """Exact values of the auxiliary function along the iterates.

    Precondition: tau is a verified value relation, which makes
    F(A_k(alpha), x_k) = tau f(alpha) = 0 exactly, so the stripped
    series evaluates to P_{v0} at every iterate; both evaluation routes
    are computed and asserted equal.
    """
    outcome = verify_value_relation(
        sys, f, ValueRelation(aux.tau, aux.alpha), min(s.order for s in f) - 1)
    if not outcome.verified:
        raise PreconditionTauNotARelation(
            f"verification of tau returned {outcome.status}")
    chain = EvalChain(sys, aux.alpha)
    F_value = ZERO  # exact by the verified relation and the iterate identity
    rows = []
    for k in range(kmax + 1):
        mat, x = chain.mat(k), chain.x(k)
        direct = aux.mb.evaluate(aux.P[aux.v0], mat, x)
        via_series = ZERO
        fpow = ONE
        for j in range(aux.v0, aux.delta1 + 1):
            via_series += aux.mb.evaluate(aux.P[j], mat, x) * fpow
            fpow = fpow * F_value
        if direct != via_series:
            raise AssertionError("the two evaluation routes must agree exactly")
        if direct == 0:
            rows.append(DecayRow(k, direct, True, None, weil_height(direct),
                                 None, True))
            continue
        la = log_abs(direct)
        h = weil_height(direct)
        rows.append(DecayRow(k, direct, False, la, h, h.scaled(-1),
                             liouville_check(direct).holds))
    c2, c3 = 0.0, 0.0
    for row in rows:
        if row.is_zero or row.k == 0:
            continue
        scale_k = float(sys.q) ** row.k
        c3 = max(c3, row.height.value / (scale_k * aux.delta2))
        if row.log_abs.value < 0:
            c2 = max(c2, -row.log_abs.value / (scale_k * aux.delta1 * aux.delta2))
    return DecayReport(tuple(rows), c2, c3)


@dataclass(frozen=True)
class HeightGrowthReport:
    rows: tuple        # (k, tuple of tuples of LogValue, ratio float)
    gamma_hat: float
    stabilized: bool

    def to_json(self):
        return {
            "rows": [{"k": k,
                      "heights": [[h.to_json() for h in r] for r in mat],
                      "max_ratio": float(f"{ratio:.15g}")}
                     for k, mat, ratio in self.rows],
            "gamma_hat": float(f"{self.gamma_hat:.15g}"),
            "stabilized": self.stabilized,
        }


def height_growth(sys, alpha, kmax):
    """Exact entry heights of A_k(alpha) and the fitted growth constant.

    gamma_hat is the max over entries and k >= 1 of h / q^k, so
    h <= gamma_hat q^k holds tautologically on the computed range; the
    report also says whether the running max settled (grew by less than
    5% over the second half of the range).
    """
    alpha = QQ(alpha)
    require_regular(sys, alpha)
    chain = EvalChain(sys, alpha)
    rows = []
    gamma = 0.0
    half_gamma = None
    for k in range(kmax + 1):
        mat = chain.mat(k)
        hmat = tuple(tuple(weil_height(e) for e in row) for row in mat)
        ratio = 0.0
        if k >= 1:
            ratio = max(h.value for row in hmat for h in row) / float(sys.q) ** k
            gamma = max(gamma, ratio)
        rows.append((k, hmat, ratio))
        if k == max(1, kmax // 2):
            half_gamma = gamma
    stabilized = half_gamma is not None and gamma <= 1.05 * max(half_gamma, 1e-30)
    if gamma == 0.0:
        stabilized = True
    return HeightGrowthReport(tuple(rows), gamma, stabilized)
