"""Kronecker products and powers, monomial systems, and algebraic lifting.

The d-th Kronecker power of the system matrix governs the vector of all
degree-d products of the solutions, so a homogeneous value relation of
degree d among f_1(alpha), ..., f_m(alpha) is a *linear* value relation
among the Kronecker coordinates.  Lifting then goes through the linear
engine: pick one representative coordinate per monomial class, lift the
linear form, and fold the resulting coefficients class by class back
into a homogeneous polynomial with coefficients in Q[z].

Coordinates use the left-fold (row-major) indexing: the i-th entry of a
d-fold power is the product over the base-m digits of i.  Representative
choice is the minimum index of each class, which makes every output
deterministic; reassembly sums all coordinates of a class, so lifts that
spread weight over duplicates stay valid.
"""

from dataclasses import dataclass

from .errors import NonHomogeneousPolynomial, SizeBudgetExceeded
from .polyring import Poly, TruncSeries
from .scalars import QQ, ZERO, ONE, qq_str
from .systems import MahlerSystem, solve_series
from .lifting import lift_linear_relation

__all__ = [
    "kron",
    "kron_power",
    "kron_vector_power",
    "monomial_series",
    "MonomialIndexMap",
    "HomogeneousPoly",
    "LiftedHomogeneousPoly",
    "kron_system",
    "lift_algebraic_relation",
    "parse_homogeneous",
]

DEFAULT_SIZE_BUDGET = 256


def kron(A, B):
    """Kronecker product: block layout a_{i,j} * B; sizes multiply."""
    out = []
    for arow in A:
        for brow in B:
            row = []
            for a in arow:
                for b in brow:
                    row.append(a * b)
            out.append(tuple(row))
    return tuple(out)


def kron_power(A, d, size_budget=DEFAULT_SIZE_BUDGET):
    """Left-fold d-th Kronecker power; kron_power(A, 1) = A."""
    if d < 1:
        raise ValueError("Kronecker power needs d >= 1")
    if len(A) ** d > size_budget:
        raise SizeBudgetExceeded(f"{len(A)}^{d} exceeds size budget {size_budget}")
    result = A
    for _ in range(d - 1):
        result = kron(result, A)
    return result


def kron_vector_power(v, d, size_budget=DEFAULT_SIZE_BUDGET):
    if len(v) ** d > size_budget:
        raise SizeBudgetExceeded(f"{len(v)}^{d} exceeds size budget {size_budget}")
    result = tuple(v)
    for _ in range(d - 1):
        result = tuple(a * b for a in result for b in v)
    return result


def monomial_series(f, exponents, order):
    """Truncated series of each monomial prod_i f_i^e_i, one per exponent vector.

    Each monomial is the product of a smaller one and a single f_i, so a
    monomial of degree k costs one series product once its divisors are
    built, whichever of them the caller asked for.
    """
    cache = {}

    def build(e):
        if e not in cache:
            i = max(j for j, ej in enumerate(e) if ej)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            fi = f[i].truncate(order)
            cache[e] = build(rest) * fi if any(rest) else fi
        return cache[e]

    one = TruncSeries.from_poly(Poly.one(), order)
    return tuple(build(tuple(e)) if any(e) else one for e in exponents)


class MonomialIndexMap:
    """Partition of Kronecker coordinates by the monomial they compute.

    Coordinate i (0-based) of the d-fold power corresponds to the base-m
    digit string of i and computes the monomial with exponent vector
    lambda(i).  Classes are listed by ascending representative index
    (the minimum of each class).
    """

    def __init__(self, m, d, size_budget=DEFAULT_SIZE_BUDGET):
        if m ** d > size_budget:
            raise SizeBudgetExceeded(f"{m}^{d} exceeds size budget {size_budget}")
        self.m = m
        self.d = d
        classes = {}
        for i in range(m ** d):
            digits = []
            x = i
            for _ in range(d):
                digits.append(x % m)
                x //= m
            lam = [0] * m
            for u in digits:
                lam[u] += 1
            classes.setdefault(tuple(lam), []).append(i)
        ordered = sorted(classes.items(), key=lambda kv: min(kv[1]))
        self.lambdas = tuple(lam for lam, _ in ordered)
        self.classes = tuple(tuple(sorted(idxs)) for _, idxs in ordered)
        self.reps = tuple(cls[0] for cls in self.classes)
        self._by_lambda = {lam: t for t, lam in enumerate(self.lambdas)}
        total = sum(len(c) for c in self.classes)
        assert total == m ** d, "classes must partition the coordinates"

    def class_of(self, lam):
        return self.classes[self._by_lambda[tuple(lam)]]

    def tau_from_poly(self, P):
        """Linear-form coefficients on Kronecker coordinates: p_j at each representative."""
        tau = [ZERO] * (self.m ** self.d)
        for lam, c in P.terms.items():
            tau[self.class_of(lam)[0]] = c
        return tuple(tau)

    def coordinate_series(self, f, order):
        """Series of every Kronecker coordinate: the monomial of its class."""
        out = [None] * self.m ** self.d
        for cls, series in zip(self.classes, monomial_series(f, self.lambdas, order)):
            for i in cls:
                out[i] = series
        return tuple(out)


class HomogeneousPoly:
    """Homogeneous polynomial in X_1..X_m with rational coefficients."""

    def __init__(self, m, terms):
        self.m = m
        clean = {}
        deg = None
        for lam, c in terms.items():
            c = QQ(c)
            if c == 0:
                continue
            lam = tuple(int(e) for e in lam)
            if len(lam) != m or any(e < 0 for e in lam):
                raise ValueError(f"bad exponent vector {lam}")
            if deg is None:
                deg = sum(lam)
            elif sum(lam) != deg:
                raise NonHomogeneousPolynomial(
                    "polynomial is not homogeneous; adjoin the unit coordinate "
                    "(augment_with_unit) and homogenize with it first")
            clean[lam] = c
        if not clean:
            raise ValueError("the zero polynomial has no degree; nothing to lift")
        self.terms = clean
        self.degree = deg

    def __eq__(self, other):
        return (isinstance(other, HomogeneousPoly) and self.m == other.m
                and self.terms == other.terms)

    def __mul__(self, other):
        out = {}
        for la, ca in self.terms.items():
            for lb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(la, lb))
                out[key] = out.get(key, ZERO) + ca * cb
        return HomogeneousPoly(self.m, out)

    def evaluate(self, values):
        acc = ZERO
        for lam, c in self.terms.items():
            v = c
            for x, e in zip(values, lam):
                v = v * QQ(x) ** e
            acc += v
        return acc

    def to_json(self):
        items = sorted(self.terms.items())
        return {"degree": self.degree,
                "terms": [{"exponents": list(l), "coeff": qq_str(c)} for l, c in items]}

    def __repr__(self):
        return " + ".join(
            f"{qq_str(c)}*X^{list(l)}" for l, c in sorted(self.terms.items())
        ).replace("+ -", "- ")


@dataclass(frozen=True)
class LiftedHomogeneousPoly:
    """Homogeneous in X with coefficients in Q[z]; the output of algebraic lifting."""

    m: int
    degree: int
    coeffs: tuple  # tuple of (lambda, Poly) sorted by lambda
    residual_order: int

    def specialize(self, alpha):
        return HomogeneousPoly(self.m, {lam: p(alpha) for lam, p in self.coeffs
                                        if p(alpha) != 0})

    def to_json(self):
        return {"degree": self.degree,
                "coefficients": [{"exponents": list(l), "poly": p.to_json()}
                                 for l, p in self.coeffs],
                "residual_order": self.residual_order}


def _product_coeff_bound(C, rho, d, sigma=QQ(6, 5)):
    """Sound (C', rho') for d-fold products of series bounded by C rho^n.

    A degree-d product coefficient is bounded by C^d binom(n+d-1, d-1) rho^n,
    and the binomial is bounded by B sigma^n with B its exact maximum over n.
    """
    if d == 1:
        return C, rho
    best = ONE
    term = ONE  # binom(n+d-1, d-1) sigma^{-n} at n = 0
    n = 0
    while True:
        ratio = QQ(n + d, n + 1) / sigma
        term = term * ratio
        n += 1
        if term > best:
            best = term
        elif ratio < 1:
            break
    return C ** d * best, sigma * rho


def kron_system(sys, d, size_budget=DEFAULT_SIZE_BUDGET):
    """The system satisfied by all degree-d products of the solutions.

    Matrix A^{(x)d}, initial vector f0^{(x)d}; the determinant is
    (det A)^{d m^(d-1)}, so regularity at any point is inherited.
    """
    A = kron_power(sys.A, d, size_budget)
    f0 = kron_vector_power(sys.f0, d, size_budget) if sys.f0 is not None else None
    cb = None
    if sys.coeff_bound is not None:
        cb = _product_coeff_bound(sys.coeff_bound[0], sys.coeff_bound[1], d)
    name = f"{sys.name}_pow{d}" if sys.name else ""
    return MahlerSystem(q=sys.q, m=sys.m ** d, A=A, f0=f0, coeff_bound=cb, name=name)


def lift_algebraic_relation(sys, alpha, P, D, N, override=False,
                            size_budget=DEFAULT_SIZE_BUDGET, series=None):
    """Lift a homogeneous value relation P(f(alpha)) = 0 to Q[z] coefficients.

    Returns a LiftedHomogeneousPoly Pbar with Pbar(alpha, X) = P(X)
    exactly and Pbar(z, f(z)) == 0 modulo z^{residual_order}.
    """
    if P.m != sys.m:
        raise ValueError("polynomial arity does not match the system size")
    d = P.degree
    imap = MonomialIndexMap(sys.m, d, size_budget)
    ksys = kron_system(sys, d, size_budget)
    if series is None:
        series = solve_series(sys, N + 1)
    kser = imap.coordinate_series(series, N + 1)
    tau = imap.tau_from_poly(P)
    lift = lift_linear_relation(ksys, alpha, tau, D, N, series=kser, override=override)
    coeffs = []
    for t, lam in enumerate(imap.lambdas):
        acc = Poly()
        for i in imap.classes[t]:
            acc = acc + lift.coefficients[i]
        if not acc.is_zero():
            coeffs.append((lam, acc))
    out = LiftedHomogeneousPoly(sys.m, d, tuple(sorted(coeffs)), lift.residual_order)
    if out.specialize(alpha) != P:
        raise AssertionError("specialization must reproduce the input exactly")
    return out


# ---------------------------------------------------------------------------
# polynomial grammar: rational coefficients, Xk, * ^ + - and parentheses

class _Tok:
    def __init__(self, kind, val=None):
        self.kind = kind
        self.val = val


def _tokenize(s):
    i, n = 0, len(s)
    out = []
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c in "+-*^()":
            out.append(_Tok(c))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            if j < n and s[j] == "/":
                j += 1
                if j >= n or not s[j].isdigit():
                    raise ValueError("malformed rational coefficient")
                while j < n and s[j].isdigit():
                    j += 1
            out.append(_Tok("num", QQ(s[i:j])))
            i = j
        elif c in "Xx":
            j = i + 1
            while j < n and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError("variable must be X followed by an index, e.g. X2")
            out.append(_Tok("var", int(s[i + 1:j])))
            i = j
        else:
            raise ValueError(f"unexpected character {c!r} in polynomial")
    out.append(_Tok("end"))
    return out


class _Parser:
    """Recursive-descent parser building exponent-dict polynomials."""

    def __init__(self, toks, m):
        self.toks = toks
        self.pos = 0
        self.m = m

    def peek(self):
        return self.toks[self.pos]

    def eat(self, kind):
        t = self.toks[self.pos]
        if t.kind != kind:
            raise ValueError(f"expected {kind}, found {t.kind}")
        self.pos += 1
        return t

    def parse(self):
        p = self.expr()
        self.eat("end")
        return p

    def expr(self):
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.eat(self.peek().kind).kind == "-" else 1
        acc = _scale(self.term(), sign)
        while self.peek().kind in "+-":
            op = self.eat(self.peek().kind).kind
            t = self.term()
            acc = _add(acc, _scale(t, -1 if op == "-" else 1))
        return acc

    def term(self):
        acc = self.factor()
        while self.peek().kind == "*":
            self.eat("*")
            acc = _mul(acc, self.factor())
        return acc

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.eat("^")
            t = self.eat("num")
            if t.val.denominator != 1 or t.val < 0:
                raise ValueError("exponent must be a non-negative integer")
            return _powm(base, int(t.val))
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.eat("num")
            return {(0,) * self.m: t.val}
        if t.kind == "var":
            self.eat("var")
            k = t.val
            if not (1 <= k <= self.m):
                raise ValueError(f"variable X{k} out of range 1..{self.m}")
            e = [0] * self.m
            e[k - 1] = 1
            return {tuple(e): ONE}
        if t.kind == "(":
            self.eat("(")
            p = self.expr()
            self.eat(")")
            return p
        raise ValueError(f"unexpected token {t.kind}")


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, ZERO) + v
    return {k: v for k, v in out.items() if v != 0}


def _scale(a, c):
    return {k: v * c for k, v in a.items()}


def _mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, ZERO) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _powm(a, n):
    acc = {(0,) * len(next(iter(a))): ONE} if a else {}
    for _ in range(n):
        acc = _mul(acc, a)
    return acc


def parse_homogeneous(s, m):
    """Parse the kron-lift polynomial grammar into a HomogeneousPoly."""
    terms = _Parser(_tokenize(s), m).parse()
    if not terms:
        raise ValueError("the zero polynomial has no degree; nothing to lift")
    return HomogeneousPoly(m, terms)
