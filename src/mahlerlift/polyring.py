"""Dense exact polynomials, reduced rational functions, and truncated series.

All three types are immutable, hashable, and use the rational scalars of
:mod:`mahlerlift.scalars`.  ``Poly`` stores coefficients by exponent with
no trailing zeros; ``TruncSeries`` is a fixed-length coefficient prefix,
and arithmetic between series truncates to the shorter order.

``RatFunc`` is a value type only: num/den coprime with a monic
denominator, so equality and hashing are structural, plus evaluation and
JSON.  It has no arithmetic.  Products over Q(z) are computed on
polynomials over a common denominator, and each result entry is reduced
once, by the constructor (see ``systems.cocycle`` and
``kron.kron_system``).  That gcd, like the one of ``Poly.lcm``, runs on
integers: a primitive remainder sequence, with no rational gcd per step.

Multiplication is schoolbook throughout: the target scale (orders up to
a few thousand) does not reward anything fancier, and the substitution
z -> z^q that drives everything here creates sparsity that products
promptly refill.
"""

import math

from .errors import PoleAtOrigin
from .scalars import QQ, ZERO, ONE, clear_denominators, qq_from_str, qq_str

__all__ = ["Poly", "RatFunc", "TruncSeries", "series_of_ratfunc"]


def _primitive(coeffs):
    """The polynomial's coefficients cleared of denominators and content, as integers."""
    ints = clear_denominators(coeffs)
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Dense univariate polynomial over Q; index = exponent of z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if type(c) is QQ else QQ(c) for c in coeffs])

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, k, c=ONE):
        return cls((0,) * k + (c,))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return Poly()
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x):
        x = QQ(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def leading(self):
        return self.coeffs[-1] if self.coeffs else ZERO

    def substitute_power(self, q):
        """The ring morphism z -> z^q."""
        if q < 2:
            raise ValueError("substitution exponent must be >= 2")
        if not self.coeffs:
            return self
        out = [ZERO] * ((len(self.coeffs) - 1) * q + 1)
        for i, c in enumerate(self.coeffs):
            out[i * q] = c
        return Poly(out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [ZERO] * (dq + 1)
        lead = other.leading()
        for k in reversed(range(dq + 1)):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other):
        """Monic gcd: the last nonzero term of the primitive remainder sequence over Z.

        Each pseudo-remainder lead(b)^e a mod b is taken on integers and
        divided by its content, so no step pays for a rational gcd.
        """
        if not self.coeffs or not other.coeffs:
            return (self if other.is_zero() else other).monic()
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            lead, db = b[-1], len(b) - 1
            r = a
            while len(r) > db:
                c, k = r[-1], len(r) - 1 - db
                r = [lead * x for x in r[:-1]]
                for i in range(db):
                    r[k + i] -= c * b[i]
                while r and r[-1] == 0:
                    r.pop()
            if not r:
                return Poly(b).monic()
            a, b = b, _primitive(r)
        return Poly.one()

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return Poly()
        return ((self * other) // self.gcd(other)).monic()

    def strip_origin_root(self):
        """Remove the z^v factor; returns (v, stripped polynomial)."""
        if self.is_zero():
            return 0, self
        v = 0
        while self.coeffs[v] == 0:
            v += 1
        return v, Poly(self.coeffs[v:])

    def to_json(self):
        return [qq_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([qq_from_str(str(c)) for c in data])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(qq_str(c))
            else:
                mono = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{qq_str(c)}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class RatFunc:
    """Reduced rational function num/den with monic denominator; no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly(num if isinstance(num, (list, tuple)) else (num,))
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly(den if isinstance(den, (list, tuple)) else (den,))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly.one()
        else:
            if den.degree > 0:  # a constant denominator is coprime to num already
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c):
        return cls(Poly.constant(c))

    @classmethod
    def one(cls):
        return cls(Poly.one())

    @classmethod
    def zero(cls):
        return cls(Poly())

    def is_polynomial(self):
        return self.den == Poly.one()

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {qq_str(QQ(x))}")
        return self.num(x) / d

    def to_json(self):
        if self.is_polynomial():
            return self.num.to_json()
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, dict):
            return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))
        # a bare array is a polynomial with denominator 1
        return cls(Poly.from_json(data))

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class TruncSeries:
    """Truncated power series: exactly ``order`` coefficients, order >= 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(c if type(c) is QQ else QQ(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least one coefficient")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order):
        return cls((ZERO,) * order)

    @classmethod
    def from_poly(cls, p, order):
        return cls(tuple(p[i] for i in range(order)))

    @property
    def order(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TruncSeries", self.coeffs))

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def truncate(self, order):
        if order >= self.order:
            return self
        return TruncSeries(self.coeffs[:order])

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def _common(self, other):
        n = min(self.order, other.order)
        return n

    def __add__(self, other):
        n = self._common(other)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        n = self._common(other)
        return TruncSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = self._common(other)
            out = [ZERO] * n
            for i in range(n):
                a = self.coeffs[i]
                if a == 0:
                    continue
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return TruncSeries(out)
        return self.scale(other)

    def scale(self, c):
        c = QQ(c)
        return TruncSeries([a * c for a in self.coeffs])

    def first_nonzero(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def to_json(self):
        return [qq_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([qq_from_str(str(c)) for c in data])

    def __repr__(self):
        head = repr(Poly(self.coeffs[: min(8, self.order)]))
        return f"{head} + O(z^{self.order})"


def series_of_ratfunc(r, order):
    """Expand a rational function at 0 to the given order.

    Raises PoleAtOrigin when den(0) = 0.  The defining property, checked
    by the tests, is expansion * den == num modulo z^order.
    """
    if isinstance(r, Poly):
        return TruncSeries.from_poly(r, order)
    b0 = r.den[0]
    if b0 == 0:
        raise PoleAtOrigin("denominator vanishes at the origin")
    out = [ZERO] * order
    for n in range(order):
        acc = r.num[n]
        for i in range(1, min(n, r.den.degree) + 1):
            bi = r.den[i]
            if bi != 0:
                acc -= bi * out[n - i]
        out[n] = acc / b0
    return TruncSeries(out)
