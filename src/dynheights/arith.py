"""Exact integer and rational helpers shared by all modules.

Everything here is deterministic and allocation-light: valuations by
exponential lifting (so valuations of million-bit integers stay cheap),
fraction-free Bareiss determinants over the integers, primality by a table
below 2^16 and strong Miller-Rabin above, to the first k prime bases where
they are proven to decide n (from 2, 3, 5, 7 below 3,215,031,751 up to the
13 bases 2..41 below 3,317,044,064,679,887,385,961,981; Jaeschke, Math.
Comp. 1993; Jiang-Deng, Math. Comp. 2014; Sorenson-Webster, Math. Comp.
2017), and factorization by trial division by the primes below
2^16 (a cofactor left below 2^32 is prime).  sympy is imported only for
what these cannot settle: ``isprime`` above that bound and ``factorint``
on a composite cofactor.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt

#: sentinel valuation of 0 (larger than any valuation we ever compare against)
ORD_INFINITY = float("inf")

_SIEVE_LIMIT = 1 << 16
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: (B, k): strong Miller-Rabin to the first k prime bases decides every n < B;
#: B is the smallest strong pseudoprime to those bases (OEIS A014233)
_MR_TIERS = (
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_BOUND = _MR_TIERS[-1][0]
_PRIMES: list = []  # the primes below _SIEVE_LIMIT, listed on first use
#: byte n is 1 exactly when n < _SIEVE_LIMIT is prime (odd-only Eratosthenes)
_SIEVE = bytearray(b"\x01") * _SIEVE_LIMIT
_SIEVE[:2], _SIEVE[4::2] = b"\x00\x00", bytes(_SIEVE_LIMIT // 2 - 2)
for _i in range(3, 256, 2):
    if _SIEVE[_i]:
        _SIEVE[_i * _i :: 2 * _i] = bytes((_SIEVE_LIMIT - 1 - _i * _i) // (2 * _i) + 1)


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
    return ord_int(x.numerator, p) - ord_int(x.denominator, p)


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
    out = {}
    if n <= 1:
        return out
    if not _PRIMES:
        _PRIMES.extend([2, *compress(range(3, _SIEVE_LIMIT, 2), _SIEVE[3::2])])
    lim = isqrt(n)
    for p in _PRIMES:
        if p > lim:
            break
        if n % p == 0:
            out[p] = e = ord_int(n, p)
            n //= p**e
            lim = isqrt(n)
    if n >= _SIEVE_LIMIT**2 and not is_prime(n):  # a composite cofactor
        from sympy import factorint
        out.update((int(q), int(e)) for q, e in factorint(n).items())
    elif n > 1:  # no prime factor below 2^16, so prime if below 2^32
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Whether n is prime: proven below _MR_BOUND, sympy's ``isprime`` above."""
    if n < _SIEVE_LIMIT:
        return n > 1 and _SIEVE[n] == 1
    for p in _MR_BASES:
        if n % p == 0:
            return False
    if n >= _MR_BOUND:
        from sympy import isprime
        return bool(isprime(n))
    k = next(k for bound, k in _MR_TIERS if n < bound)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

