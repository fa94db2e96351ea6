"""Exact rational scalars, Weil heights over Q, and a certified log bridge.

Every quantity the library computes is an exact rational; floating point
appears only inside :class:`LogValue`, which carries a certified error
bound along with the double it reports.  The rational backend is gmpy2
(GMP) when available, with ``fractions.Fraction`` as a drop-in fallback.

For a rational p/q in lowest terms the absolute logarithmic Weil height
collapses to ``log max(|p|, |q|)``; all height rules used downstream
(subadditivity under sums and products, exact scaling under integer
powers, the polynomial evaluation bound) are consequences of that formula
and are exercised by the test suite on random inputs.
"""

import math
import re
from dataclasses import dataclass

try:
    from gmpy2 import mpq as _mpq

    _BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _mpq

    _BACKEND = "fractions"

__all__ = [
    "QQ",
    "ZERO",
    "ONE",
    "qq_from_str",
    "qq_str",
    "clear_denominators",
    "LogValue",
    "log_of_integer",
    "log_abs",
    "weil_height",
    "LiouvilleReport",
    "liouville_check",
    "poly_eval_height_bound",
]

QQ = _mpq
ZERO = QQ(0)
ONE = QQ(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

LOG2 = math.log(2)


def qq_from_str(s):
    """Parse "p/q" or "p" (decimal digits only, no exponents or dots)."""
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational string: {s!r}")
    return QQ(s)


def qq_str(r):
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    r = QQ(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def clear_denominators(values):
    """The rationals times the lcm of their denominators, as a list of integers."""
    den = 1
    for x in values:
        d = x.denominator
        if d != 1:
            den = math.lcm(den, d)
    if den == 1:
        return [x.numerator for x in values]
    return [x.numerator * (den // x.denominator) for x in values]


@dataclass(frozen=True)
class LogValue:
    """A real number in natural-log units with a certified absolute error.

    The invariant is |value - true| <= abs_error, with abs_error tiny
    compared to max(1, |value|); ``certified_rel_error`` rescales this to
    the relative form used in reports.
    """

    value: float
    abs_error: float = 0.0

    @property
    def certified_rel_error(self):
        scale = max(1.0, abs(self.value) - self.abs_error)
        return 2.0 * self.abs_error / scale if self.abs_error else 0.0

    def __add__(self, other):
        return LogValue(self.value + other.value,
                        self.abs_error + other.abs_error + 1e-16 * abs(self.value + other.value))

    def __sub__(self, other):
        return LogValue(self.value - other.value,
                        self.abs_error + other.abs_error + 1e-16 * abs(self.value - other.value))

    def scaled(self, n):
        n = float(n)
        return LogValue(self.value * n, self.abs_error * abs(n) + 1e-16 * abs(self.value * n))

    def to_json(self):
        return {"log": float(f"{self.value:.15g}"),
                "certified_rel_error": float(f"{self.certified_rel_error:.3g}")}

    def __repr__(self):
        return f"LogValue({self.value:.12g})"


LOG_ZERO = LogValue(0.0, 0.0)


def log_of_integer(n):
    """Certified natural log of a positive integer of any size.

    Works from the bit length and the top 53 bits, never converting n
    itself to a float.  Dropping the low bits perturbs the log by less
    than 2^-52; the float log of the 53-bit head is correct to ~1 ulp.
    """
    n = int(n)
    if n <= 0:
        raise ValueError("log_of_integer needs n > 0")
    if n == 1:
        return LOG_ZERO
    shift = n.bit_length() - 53
    if shift <= 0:
        v = math.log(n)
        return LogValue(v, 4e-16 * abs(v) + 1e-300)
    v = math.log(n >> shift) + shift * LOG2
    return LogValue(v, 5e-16 * abs(v) + 3e-16)


def log_abs(r):
    """Certified log|r| for a nonzero rational, via integer logs of p and q."""
    r = QQ(r)
    if r == 0:
        raise ValueError("log_abs is undefined at 0")
    return log_of_integer(abs(r.numerator)) - log_of_integer(r.denominator)


def weil_height(r):
    """Absolute logarithmic Weil height of a rational: log max(|p|, |q|), h(0) = 0."""
    r = QQ(r)
    if r == 0:
        return LOG_ZERO
    return log_of_integer(max(abs(r.numerator), r.denominator))


@dataclass(frozen=True)
class LiouvilleReport:
    holds: bool
    slack: LogValue

    def to_json(self):
        return {"holds": self.holds, "slack": self.slack.to_json()}


def liouville_check(r):
    """Exact check of log|r| >= -h(r) for nonzero rational r.

    After clearing logs the inequality is |p| * max(|p|, |q|) >= |q|,
    decided on integers; the slack log|r| + h(r) = log(|p| max(|p|,|q|) / |q|)
    is reported as a certified log of an exact rational >= 1.
    """
    r = QQ(r)
    if r == 0:
        raise ValueError("liouville_check is undefined at 0")
    p = abs(r.numerator)
    q = r.denominator
    m = max(p, q)
    holds = p * m >= q
    slack = log_abs(QQ(p * m, q))
    return LiouvilleReport(holds, slack)


def poly_eval_height_bound(degrees, coeff_heights, arg_heights):
    """Height bound for P(beta_1, ..., beta_n) from per-variable degrees.

    Returns sum_i log(1 + deg_i) + sum_i deg_i * h(beta_i) + sum_k h(a_k)
    where the a_k are the coefficients of P.
    """
    if len(degrees) != len(arg_heights):
        raise ValueError("degrees and arg_heights must have equal length")
    total = LOG_ZERO
    for d, h in zip(degrees, arg_heights):
        if d < 0:
            raise ValueError("degrees must be non-negative")
        total = total + log_of_integer(1 + d) + h.scaled(d)
    for h in coeff_heights:
        total = total + h
    return total
