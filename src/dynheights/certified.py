"""Certified real values: a float together with a proven absolute error radius.

Every limit-defined quantity in the package (local heights, canonical
heights, Green pairings) is returned as a ``CertifiedValue``.  The contract
is ``|value - true| <= err``.  Error radii combine sub-additively and are
always rounded outward, so chains of additions cannot silently shed error.

``exact=True`` means the mathematical truncation error is zero (the value
is a finitely-computed quantity such as 0, or a p-adic height at a
good-reduction prime); such values carry ``err == 0.0``.  Float conversion
of exactly-known nonzero logarithms is covered by a small rounding radius
instead, since ``math.log`` is only faithfully rounded.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

_EPS = sys.float_info.epsilon


def _up(x: float) -> float:
    """Round a nonnegative float one ulp outward."""
    return math.nextafter(x, math.inf)


class CertifiedValue(namedtuple("CertifiedValue", ("value", "err", "exact"))):
    """Real number known to lie in [value - err, value + err]: an immutable
    tuple (value, err, exact), validated on construction, equal and hash
    equal when its fields are; sums build one per term, at about half the
    cost of a frozen dataclass.
    """

    __slots__ = ()

    def __new__(cls, value: float, err: float, exact: bool = False):
        if not err >= 0:  # also refuses NaN
            raise ValueError(f"error radius must be >= 0, got {err}")
        if exact and err != 0.0:
            raise ValueError("exact values must carry err == 0")
        return tuple.__new__(cls, (value, err, exact))

    @classmethod
    def _make(cls, iterable) -> "CertifiedValue":  # also behind _replace: validate
        return cls(*iterable)

    @classmethod
    def exact_zero(cls) -> "CertifiedValue":
        return cls(0.0, 0.0, exact=True)

    @classmethod
    def exact_float(cls, v: float) -> "CertifiedValue":
        """A value that is exactly the given float (no truncation, no rounding)."""
        return cls(float(v), 0.0, exact=True)

    def __add__(self, other: "CertifiedValue") -> "CertifiedValue":
        v = self.value + other.value
        # TwoSum: e is the exact rounding error of the float addition
        t = v - self.value
        e = (self.value - (v - t)) + (other.value - t)
        if self.exact and other.exact and e == 0.0:
            return CertifiedValue(v, 0.0, exact=True)
        return CertifiedValue(v, _up(_up(self.err + other.err) + abs(e)))

    def __sub__(self, other: "CertifiedValue") -> "CertifiedValue":
        return self + -other

    def __neg__(self) -> "CertifiedValue":
        return CertifiedValue(-self.value, self.err, self.exact)

    def scale(self, c: float) -> "CertifiedValue":
        """Multiply by a scalar whose float product is exact (int powers of two, signs)."""
        if self.exact:
            return CertifiedValue(self.value * c, 0.0, exact=True)
        return CertifiedValue(self.value * c, _up(self.err * abs(c)))

    def div_int(self, n: int) -> "CertifiedValue":
        """Divide by a nonzero integer, charging one rounding ulp to err."""
        v = self.value / n
        if self.exact and v * n == self.value:
            return CertifiedValue(v, 0.0, exact=True)
        return CertifiedValue(v, _up(self.err / abs(n) + 2.0 * _EPS * abs(v)))

    def mul_int(self, n: int) -> "CertifiedValue":
        """Multiply by an integer, charging its rounding to err as ``div_int`` does."""
        v = self.value * n
        if self.exact and Fraction(v) == Fraction(self.value) * n:
            return CertifiedValue(v, 0.0, exact=True)
        return CertifiedValue(v, _up(_up(self.err * abs(n)) + 2.0 * _EPS * abs(v)))

    def widen(self, extra: float) -> "CertifiedValue":
        """Add slack to the error radius (drops the exact flag if extra > 0)."""
        if extra == 0.0:
            return self
        return CertifiedValue(self.value, _up(self.err + extra), exact=False)

    def to_json_dict(self) -> dict:
        return {"value": self.value, "err": self.err, "exact": self.exact}


def log_abs_certified(x) -> CertifiedValue:
    """log|x| for a nonzero int or Fraction, with a proven rounding radius.

    Computed as log(num) - log(den) on exact integers; math.log on a big int
    is faithful to ~1 ulp, so 4 ulps of each magnitude is a safe outward bound.
    """
    fr = x if isinstance(x, int) else Fraction(x)
    if fr == 0:
        raise ValueError("log|0| requested")
    num, den = abs(fr.numerator), fr.denominator
    if num == den:
        return CertifiedValue.exact_zero()
    ln = math.log(num) if num != 1 else 0.0
    ld = math.log(den) if den != 1 else 0.0
    value = ln - ld
    err = _up(4.0 * _EPS * (abs(ln) + abs(ld) + abs(value)) + 1e-320)
    return CertifiedValue(value, err)


def log_rational_multiple(q, p: int) -> CertifiedValue:
    """q * log(p) for exact rational q and integer p >= 2, with rounding radius."""
    if not isinstance(q, int):  # float(q) of an int rounds as float(Fraction(q))
        q = Fraction(q)
    if q == 0:
        return CertifiedValue.exact_zero()
    return log_float_multiple(float(q), math.log(p))


def log_float_multiple(qf: float, log_p: float) -> CertifiedValue:
    """``log_rational_multiple(q, p)`` from qf = float(q), q != 0, and math.log(p)."""
    value = qf * log_p
    # |float(q) - q| <= eps*|q|, |log p| faithful to ~1 ulp, one multiply.
    return CertifiedValue(value, _up(6.0 * _EPS * abs(value) + 1e-320))
