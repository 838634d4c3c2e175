"""Exact integer and rational helpers shared by all modules.

Everything here is deterministic and allocation-light: valuations by
exponential lifting (so valuations of million-bit integers stay cheap),
fraction-free Bareiss determinants over the integers, and thin wrappers
around sympy's factorization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy import factorint, isprime

#: sentinel valuation of 0 (larger than any valuation we ever compare against)
ORD_INFINITY = float("inf")


def ord_int(n: int, p: int):
    """p-adic valuation of an integer; ORD_INFINITY for 0.

    Uses exponential lifting (divide by p, p^2, p^4, ...) so that huge
    arguments with huge valuations cost O(log v) bigint divisions.
    """
    if n == 0:
        return ORD_INFINITY
    n = abs(n)
    v = 0
    q, e = p, 1
    while True:
        quo, rem = divmod(n, q)
        if rem != 0:
            break
        n = quo
        v += e
        if quo == 1:
            return v
        q, e = q * q, 2 * e
    # n is no longer divisible by q = p^e; finish with smaller chunks
    while e > 1:
        e //= 2
        q = p**e
        quo, rem = divmod(n, q)
        if rem == 0:
            n = quo
            v += e
    return v


def ord_fraction(x, p: int):
    """p-adic valuation of a Fraction or int (ORD_INFINITY for 0)."""
    if x == 0:
        return ORD_INFINITY
    fr = Fraction(x)
    return ord_int(fr.numerator, p) - ord_int(fr.denominator, p)


def abs_p(x, p: int) -> Fraction:
    """p-adic absolute value |x|_p as an exact Fraction (0 for x = 0)."""
    if x == 0:
        return Fraction(0)
    v = ord_fraction(x, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def content(coeffs) -> int:
    """gcd of a coefficient iterable (0 if all entries vanish)."""
    g = 0
    for c in coeffs:
        g = gcd(g, abs(int(c)))
        if g == 1:
            return 1
    return g


def prime_factors_abs(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; {} for |n| = 1."""
    n = abs(n)
    if n <= 1:
        return {}
    return {int(p): int(e) for p, e in factorint(n).items()}


def is_prime(p: int) -> bool:
    return bool(isprime(p))


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Exact over Z: every division performed is a proven-exact division, so
    intermediate entries stay integral and only grow like minors do.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]

