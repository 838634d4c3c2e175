"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, without
calling the code paths it is meant to check: the resultant oracle builds
its own Sylvester matrix and expands the determinant by cofactors, the
height oracle runs the defining limit d^-n h(f^n x) on raw integer pairs,
the local-height oracle iterates exact Fractions with no renormalization,
and the multiplier oracle finds fixed points numerically at 60 digits.
The full-scan descent is the reference for the hole-guided one: it
evaluates all p + 1 tree neighbors at every step.  The p-adic escape oracle
iterates exact Fractions, where the library reads valuations off a residue
orbit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from dynheights import MinResCertificate, Mobius, ord_res_at
from dynheights.reduction import neighbor_moves


# ---------------------------------------------------------------------------
# Determinants and resultants
# ---------------------------------------------------------------------------


def det_cofactor(m):
    """Recursive cofactor-expansion determinant (exact, any field)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def naive_resultant(p_desc, q_desc):
    """Resultant of two equal-degree binary forms from descending coefficients."""
    d = len(p_desc) - 1
    rows = []
    for i in range(d):
        rows.append([0] * i + list(p_desc) + [0] * (d - 1 - i))
    for i in range(d):
        rows.append([0] * i + list(q_desc) + [0] * (d - 1 - i))
    return det_cofactor(rows)


# ---------------------------------------------------------------------------
# Minimal resultant
# ---------------------------------------------------------------------------


def full_scan_descent(F, p: int) -> MinResCertificate:
    """Greedy descent from the identity that evaluates all p + 1 neighbors
    at every step.

    Moves to the strictly best neighbor, ties broken by the lexicographic
    order of the resulting matrix entries.  Small p only: each step costs
    p + 1 resultants.
    """
    phi = Mobius.identity()
    current = ord_res_at(F, p, phi)
    ord_start = current
    while current > 0:
        best = None
        for mv in neighbor_moves(p):
            cand = mv.compose(phi)
            o = ord_res_at(F, p, cand)
            key = (o, cand.a, cand.b, cand.c, cand.d)
            if best is None or key < best[0]:
                best = (key, cand, o)
        if best[2] >= current:
            break
        phi, current = best[1], best[2]
    return MinResCertificate(p=p, ord_start=ord_start, ord_min=current, conjugator=phi)


# ---------------------------------------------------------------------------
# Height oracles
# ---------------------------------------------------------------------------


def _apply_int(p_asc, q_asc, d, x0, x1):
    """One exact step on a coprime integer pair, reduced to coprime form."""
    w0 = sum(c * x0**i * x1 ** (d - i) for i, c in enumerate(p_asc))
    w1 = sum(c * x0**i * x1 ** (d - i) for i, c in enumerate(q_asc))
    g = math.gcd(abs(w0), abs(w1))
    return w0 // g, w1 // g


def hhat_limit(F, x, n: int) -> float:
    """Defining-limit canonical height oracle: d^-n h(f^n x).

    Accurate to within height_gap_constant(F) / d^n of the true value.
    """
    p_asc, q_asc, d = list(F.P.coeffs), list(F.Q.coeffs), F.d
    a, b = x.x0, x.x1
    for _ in range(n):
        a, b = _apply_int(p_asc, q_asc, d, a, b)
    return math.log(max(abs(a), abs(b))) / d**n


def local_height_padic_oracle(F, z, p: int, n: int) -> float:
    """d^-n log||F^n(z)||_p by raw exact iteration (no renormalization)."""
    d = F.d
    cur = (Fraction(z[0]), Fraction(z[1]))
    for _ in range(n):
        cur = (F.P.evaluate(*cur), F.Q.evaluate(*cur))
    norm_ord = min(_ord_frac(cur[0], p), _ord_frac(cur[1], p))
    return (-norm_ord * math.log(p)) / d**n


def local_height_arch_oracle(F, z, n: int) -> float:
    """d^-n log||F^n(z)||_inf by raw exact iteration, logged at 60 digits."""
    d = F.d
    cur = (Fraction(z[0]), Fraction(z[1]))
    for _ in range(n):
        cur = (F.P.evaluate(*cur), F.Q.evaluate(*cur))
    big = max(abs(cur[0]), abs(cur[1]))
    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(big.numerator)) - mpmath.log(mpmath.mpf(big.denominator))
        return float(val / d**n)


def exact_padic_escape(F, z, p: int, n_steps: int, delta: float) -> bool:
    """The escape induction at p on exact Fraction iterates, no precision bound.

    True iff ||F^k(z)||_p = p^-M_k grows by at least (1 + delta)^(d-1) at
    each of n_steps steps.  The iterates are rescaled by powers of p only,
    so their numerators grow like d^k digits: keep n_steps small.
    """
    d = F.d
    z0, z1 = Fraction(z[0]), Fraction(z[1])
    ratio = (1 + Fraction(delta)) ** (d - 1)
    big_m = min(_ord_frac(z0, p), _ord_frac(z1, p))
    scale = Fraction(p) ** big_m
    cur0, cur1 = z0 / scale, z1 / scale
    for _ in range(n_steps):
        w0, w1 = F.P.evaluate(cur0, cur1), F.Q.evaluate(cur0, cur1)
        mu = min(_ord_frac(w0, p), _ord_frac(w1, p))
        new_big_m = d * big_m + mu
        if not (new_big_m < big_m and Fraction(p) ** (big_m - new_big_m) >= ratio):
            return False
        shift = Fraction(p) ** mu
        cur0, cur1 = w0 / shift, w1 / shift
        big_m = new_big_m
    return True


def _ord_int(n: int, p: int) -> int:
    """Valuation by repeated squaring of the divisor (fast on huge inputs)."""
    n = abs(n)
    v, q, e = 0, p, 1
    while True:
        quo, rem = divmod(n, q)
        if rem:
            break
        n, v = quo, v + e
        q, e = q * q, 2 * e
    while e > 1:
        e //= 2
        q = p**e
        quo, rem = divmod(n, q)
        if rem == 0:
            n, v = quo, v + e
    return v


def _ord_frac(x: Fraction, p: int):
    if x == 0:
        return float("inf")
    return _ord_int(x.numerator, p) - _ord_int(x.denominator, p)


# ---------------------------------------------------------------------------
# Numerical multiplier oracle (60-digit arithmetic)
# ---------------------------------------------------------------------------


def sigma_numeric(F):
    """(sigma1, sigma2, sigma3) of a quadratic map from numerical fixed points.

    Affine fixed points are the roots of p(z) - z q(z); the point at
    infinity is fixed iff that cubic degenerates, contributing multiplier
    g'(0) of g(w) = 1/f(1/w) with the remaining multiplicity.
    """
    if F.d != 2:
        raise ValueError("quadratic maps only")
    with mpmath.workdps(60):
        p_desc = [mpmath.mpf(c) for c in F.P.descending()]
        q_desc = [mpmath.mpf(c) for c in F.Q.descending()]
        # phi(z) = p(z) - z q(z), descending degree-3 coefficients
        phi = [mpmath.mpf(0)] * 4
        for i, c in enumerate(p_desc):  # p term: degree 2 shifted into slots 1..3
            phi[i + 1] += c
        for i, c in enumerate(q_desc):  # z*q term: degree 3
            phi[i] -= c
        while phi and phi[0] == 0:
            phi = phi[1:]
        inf_multiplicity = 4 - len(phi) if phi else 3
        lams = []
        if len(phi) > 1:
            roots = mpmath.polyroots(phi, maxsteps=200, extraprec=120)
            dp = _poly_deriv(p_desc)
            dq = _poly_deriv(q_desc)
            for r in roots:
                pv = _poly_eval(p_desc, r)
                qv = _poly_eval(q_desc, r)
                lams.append((_poly_eval(dp, r) * qv - pv * _poly_eval(dq, r)) / qv**2)
        # fixed point(s) at infinity: g(w) = q^(w)/p^(w) with reversed coefficients
        if inf_multiplicity > 0:
            p_rev = list(reversed(p_desc))
            q_rev = list(reversed(q_desc))
            dpr = _poly_deriv(p_rev)
            dqr = _poly_deriv(q_rev)
            w = mpmath.mpf(0)
            pv = _poly_eval(p_rev, w)
            qv = _poly_eval(q_rev, w)
            lam_inf = (_poly_eval(dqr, w) * pv - qv * _poly_eval(dpr, w)) / pv**2
            lams.extend([lam_inf] * inf_multiplicity)
        s1 = lams[0] + lams[1] + lams[2]
        s2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
        s3 = lams[0] * lams[1] * lams[2]
        return complex(s1), complex(s2), complex(s3)


def _poly_eval(desc, x):
    acc = mpmath.mpf(0)
    for c in desc:
        acc = acc * x + c
    return acc


def _poly_deriv(desc):
    n = len(desc) - 1
    return [c * (n - i) for i, c in enumerate(desc[:-1])] or [mpmath.mpf(0)]
