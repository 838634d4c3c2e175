"""The benchmark's own reference arithmetic, independent of dynheights.

Nothing here imports the package under test.  Maps are pairs of ascending
integer coefficient lists (p_asc[i] is the coefficient of x^i y^(d-i)), the
order dynheights' ``HomogeneousLift.from_coeffs`` takes.  Conjugation
expands powers of linear forms by repeated polynomial multiplication (the
package uses binomial coefficients over Fraction), and prime factors come
from trial division (the package uses sympy).
"""

from __future__ import annotations

import math


def det(rows) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free elimination: after step k every entry below the pivot
    row is a (k+2)-minor of the input, so the division by the previous
    pivot is exact and entries stay integers of minor size.
    """
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            a[i] = [0] * (k + 1) + [(pk * a[i][j] - aik * a[k][j]) // prev for j in range(k + 1, n)]
        prev = pk
    return sign * a[n - 1][n - 1]


def resultant(p_asc, q_asc) -> int:
    """Sylvester resultant of two degree-d binary forms, leading zeros kept."""
    d = len(p_asc) - 1
    pd, qd = list(p_asc[::-1]), list(q_asc[::-1])
    rows = [[0] * i + pd + [0] * (d - 1 - i) for i in range(d)]
    rows += [[0] * i + qd + [0] * (d - 1 - i) for i in range(d)]
    return det(rows)


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


_SMALL_PRIMES = [p for p in range(2, 1000) if is_prime(p)]


def smooth_factors(n: int, bound: int):
    """{p: e} for |n| when every prime factor is <= bound (< 1000), else None."""
    n = abs(n)
    if n == 0:
        return None
    out = {}
    for p in _SMALL_PRIMES:
        if p > bound or n == 1:
            break
        if p * p > n:  # what is left is 1 or a prime
            if n <= bound:
                out[n] = out.get(n, 0) + 1
                n = 1
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out if n == 1 else None


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _substitute(c_asc, lin_x, lin_y):
    """Ascending coefficients in x of C(lin_x, lin_y), lin_* = [y-coef, x-coef]."""
    d = len(c_asc) - 1
    out = [0] * (d + 1)
    for i, c in enumerate(c_asc):
        if c:
            term = _poly_mul(_poly_pow(lin_x, i), _poly_pow(lin_y, d - i))
            for k, t in enumerate(term):
                out[k] += c * t
    return out


def normalize(p_asc, q_asc):
    """Content 1, first nonzero entry of the descending vector positive."""
    vec = list(p_asc[::-1]) + list(q_asc[::-1])
    g = 0
    for c in vec:
        g = math.gcd(g, c)
    if next(c for c in vec if c) < 0:
        g = -g
    return [c // g for c in p_asc], [c // g for c in q_asc]


def conjugate(p_asc, q_asc, m):
    """Normalized integer lift of phi o f o phi^-1 for phi = [[a, b], [c, d]] integral.

    Substitutes the adjugate (d x - b y, -c x + a y), which differs from
    phi^-1 by the scalar det(phi), then applies phi on the left.
    """
    (a, b), (c, d) = m
    lin_x, lin_y = [-b, d], [a, -c]
    pw = _substitute(p_asc, lin_x, lin_y)
    qw = _substitute(q_asc, lin_x, lin_y)
    g0 = [a * u + b * v for u, v in zip(pw, qw)]
    g1 = [c * u + d * v for u, v in zip(pw, qw)]
    return normalize(g0, g1)


def evaluate(c_asc, x0: int, x1: int) -> int:
    d = len(c_asc) - 1
    return sum(c * x0**i * x1 ** (d - i) for i, c in enumerate(c_asc) if c)


def apply(p_asc, q_asc, x0: int, x1: int) -> tuple:
    """Image of the point [x0:x1] as its canonical coprime pair."""
    w0, w1 = evaluate(p_asc, x0, x1), evaluate(q_asc, x0, x1)
    return canonical(w0, w1)


def canonical(x0: int, x1: int) -> tuple:
    g = math.gcd(x0, x1)
    x0, x1 = x0 // g, x1 // g
    if x1 < 0 or (x1 == 0 and x0 < 0):
        x0, x1 = -x0, -x1
    return x0, x1


def box_radius(bound: float) -> int:
    """Largest N >= 1 with log N <= bound (bounds are chosen away from log N)."""
    n = 1
    while math.log(n + 1) <= bound:
        n += 1
    return n


def box_points(bound: float) -> list:
    """The points of P^1(Q) with Weil height <= bound, as canonical pairs."""
    n = box_radius(bound)
    inner = [(x0, x1) for x1 in range(1, n + 1) for x0 in range(-n, n + 1) if math.gcd(x0, x1) == 1]
    return [(1, 0)] + inner


def weil_height(x0: int, x1: int) -> float:
    return math.log(max(abs(x0), abs(x1)))


def is_preperiodic(p_asc, q_asc, x0: int, x1: int, height_cut: float = 100.0) -> bool:
    """Exact cycle detection along the orbit until its Weil height passes height_cut.

    The cut is far above the preperiodic height bound of any map the
    generators build (small coefficients, |Res| < 10^20), so an orbit that
    passes it is not preperiodic.
    """
    seen = set()
    x = (x0, x1)
    while weil_height(*x) <= height_cut:
        if x in seen:
            return True
        seen.add(x)
        x = apply(p_asc, q_asc, *x)
    return False


def limit_height(p_asc, q_asc, x0: int, x1: int, n: int) -> float:
    """d^-n h(f^n x) by exact iteration on coprime integer pairs."""
    d = len(p_asc) - 1
    for _ in range(n):
        x0, x1 = apply(p_asc, q_asc, x0, x1)
    return weil_height(x0, x1) / d**n
