"""Certified homogeneous local heights and Arakelov-Green pairings.

The local height of a nonzero pair z at a place v under a lift F is the
limit of d^-n log||F^n(z)||_v.  It is computed by the telescoping series

    log||z||_v + sum_{k>=0} d^-(k+1) * (log||F(z_k)||_v - d log||z_k||_v)

with z_{k+1} a rescaled F(z_k); every summand lies in [L_v, U_v], the step
error constants, so truncating after n terms leaves a tail of at most
max(|L_v|, |U_v|) / (d^n (d-1)).  The constants come from the triangle
inequality (U) and from the Sylvester cofactor identity
g1*P + g2*Q = Res(F) * x^(2d-1) (L): the cofactor coefficients of the
canonical (content-1) lift F are integers, giving ||F(z)||_p >= |Res(F)|_p
||z||_p^d at finite p exactly, and ||F(z)|| >= (|Res(F)|/2A') ||z||^d at
the archimedean place with A' an exact bound on the cofactor forms over
the unit ball.

Archimedean iteration uses floats with exact binary renormalization each
step (so magnitudes never leave [1/2, 1)); p-adic iteration works modulo a
power of p large enough that every valuation read off is exact, with the
per-step rescaling exactly compensated through the homogeneity identity
H(lambda z) = H(z) + log|lambda|_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import ord_fraction, ord_int
from .certified import _EPS, CertifiedValue, _up, log_abs_certified, log_rational_multiple
from .errors import DiagonalPairingError, EscapePreconditionError, InputError
from .maps_core import HomogeneousLift, Place, ProjPoint

# ---------------------------------------------------------------------------
# Step error constants and escape radii
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepErrorConstant:
    """Bounds L_v <= log||F(z)||_v - d log||z||_v <= U_v for all z != 0."""

    place: Place
    U: float
    L: float

    def magnitude(self) -> float:
        return max(abs(self.U), abs(self.L))


@dataclass(frozen=True)
class EscapeRadius:
    """Radius R >= 1 with: ||z||_v > (1+delta) R forces ||F^n(z)||_v -> infinity.

    At a finite place the radius is exactly p^exponent with the rational
    exponent stored alongside the float; archimedean radii are certified
    floats (rounded outward).
    """

    place: Place
    R: float
    exponent: Fraction | None = None


def step_error_constants(F: HomogeneousLift, v: Place) -> StepErrorConstant:
    """Certified per-step bounds for the local height telescoping series."""
    d = F.d
    if v.is_archimedean:
        U = _up(math.log((d + 1) * F.max_abs_coeff()))
        # L = log(|Res| / (2 A')), rounded downward (toward -inf) to stay a bound
        L = math.nextafter(
            math.log(abs(F.resultant)) - math.log(2 * F.cofactor_bound), -math.inf
        )
        L = math.nextafter(L - 4.0 * _EPS * (abs(L) + 1.0), -math.inf)
        return StepErrorConstant(v, U, min(L, 0.0))
    p = v.prime
    e = ord_int(F.resultant, p)
    if e == 0:
        return StepErrorConstant(v, 0.0, 0.0)
    L = math.nextafter(-(e * math.log(p)) * (1.0 + 4.0 * _EPS), -math.inf)
    return StepErrorConstant(v, 0.0, L)


def escape_radius(F: HomogeneousLift, v: Place) -> EscapeRadius:
    """Smallest certified radius confining every bounded orbit of the lift.

    Finite v: |Res(F)|_p^(-1/(d-1)) exactly (a rational power of p).
    Archimedean: max(1, (2A'/|Res(F)|)^(1/(d-1))) with A' the exact
    cofactor bound.
    """
    d = F.d
    if v.is_archimedean:
        r = (2.0 * F.cofactor_bound / abs(F.resultant)) ** (1.0 / (d - 1))
        return EscapeRadius(v, max(1.0, _up(r)))
    e = ord_int(F.resultant, v.prime)
    exponent = Fraction(e, d - 1)
    return EscapeRadius(v, float(v.prime) ** (e / (d - 1)), exponent)


# ---------------------------------------------------------------------------
# Homogeneous local height
# ---------------------------------------------------------------------------


def _binary_exponent(x: Fraction) -> int:
    """e with x / 2^e in [1/2, 2); x > 0."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _eval_form_float(coeffs, d: int, x: float, y: float) -> float:
    acc = 0.0
    xp = 1.0
    ypow = [1.0]
    for _ in range(d):
        ypow.append(ypow[-1] * y)
    for i, c in enumerate(coeffs):
        if c:
            acc += c * xp * ypow[d - i]
        xp *= x
    return acc


def _arch_local_height(F: HomogeneousLift, x0: Fraction, x1: Fraction, n_iter: int):
    d = F.d
    const = step_error_constants(F, Place.archimedean())
    m = max(abs(x0), abs(x1))
    log0 = log_abs_certified(m)
    e0 = _binary_exponent(m)
    scale0 = Fraction(2) ** e0
    u0, u1 = float(x0 / scale0), float(x1 / scale0)
    acc = 0.0
    pad = log0.err
    weight = 1.0 / d
    pc, qc = F.P.coeffs, F.Q.coeffs
    for _ in range(n_iter):
        w0 = _eval_form_float(pc, d, u0, u1)
        w1 = _eval_form_float(qc, d, u0, u1)
        nw = max(abs(w0), abs(w1))
        if nw == 0.0 or math.isinf(nw) or math.isnan(nw):
            raise ArithmeticError("archimedean iteration left the certified float range")
        nu = max(abs(u0), abs(u1))
        t = math.log(nw) - d * math.log(nu)
        acc += weight * t
        pad += weight * 1e-14 * (1.0 + abs(t))
        weight /= d
        _, ex = math.frexp(nw)
        u0, u1 = math.ldexp(w0, -ex), math.ldexp(w1, -ex)
    tail = const.magnitude() / (d**n_iter * (d - 1))
    err = _up(_up(tail) + _up(pad) + 4.0 * _EPS * (abs(acc) + abs(log0.value)))
    return CertifiedValue(log0.value + acc, err)


def _frac_to_residue(x: Fraction, modulus: int) -> int:
    """x mod modulus for x with denominator invertible mod modulus."""
    num = x.numerator % modulus
    den = x.denominator % modulus
    return (num * pow(den, -1, modulus)) % modulus


def _eval_form_mod(coeffs, d: int, x: int, y: int, modulus: int) -> int:
    acc = 0
    xp = 1
    ypow = [1]
    for _ in range(d):
        ypow.append(ypow[-1] * y % modulus)
    for i, c in enumerate(coeffs):
        if c:
            acc = (acc + c * xp * ypow[d - i]) % modulus
        xp = xp * x % modulus
    return acc


def _padic_local_height(F: HomogeneousLift, x0: Fraction, x1: Fraction, p: int, n_iter: int):
    d = F.d
    e = ord_int(F.resultant, p)
    v0, v1 = ord_fraction(x0, p), ord_fraction(x1, p)
    m0 = min(v0, v1)
    if e == 0:
        # every step term vanishes: H = log||x||_p = -m0 log p, no truncation
        if m0 == 0:
            return CertifiedValue.exact_zero()
        return log_rational_multiple(-m0, p)
    pf = Fraction(p)
    u0, u1 = x0 / pf**m0, x1 / pf**m0  # min valuation now 0
    remaining = (n_iter + 1) * e + 2
    modulus = p**remaining
    z0 = _frac_to_residue(u0, modulus)
    z1 = _frac_to_residue(u1, modulus)
    # H = -m0 - sum_{k=1..n} m_k / d^k; Horner keeps the integer numerator
    # over d^n, so no Fraction arithmetic runs inside the loop
    num = 0
    pc, qc = F.P.coeffs, F.Q.coeffs
    for _ in range(n_iter):
        w0 = _eval_form_mod(pc, d, z0, z1, modulus)
        w1 = _eval_form_mod(qc, d, z0, z1, modulus)
        m = min(
            ord_int(w0, p) if w0 else remaining,
            ord_int(w1, p) if w1 else remaining,
        )
        if m > e:  # impossible for a unit-content lift; guards precision bugs
            raise ArithmeticError("p-adic step valuation exceeded its certified bound")
        num = num * d - m
        shift = p**m
        remaining -= m
        modulus = p**remaining
        z0 = (w0 // shift) % modulus
        z1 = (w1 // shift) % modulus
    cv = log_rational_multiple(Fraction(num, d**n_iter) - m0, p)
    tail = (e * math.log(p)) / (d**n_iter * (d - 1))
    return cv.widen(_up(tail))


def hom_local_height(F: HomogeneousLift, xt, v: Place, n_iter: int) -> CertifiedValue:
    """Certified local height of the pair xt = (x0, x1) != (0, 0) at the place v.

    Satisfies the homogeneity identity H(lambda * xt) = H(xt) + log|lambda|_v
    and H(F(xt)) = d * H(xt), both up to the returned error radius.  At a
    finite place with good reduction of the lift the value is exact (zero
    truncation).
    """
    if n_iter < 1:
        raise InputError("n_iter must be >= 1")
    x0, x1 = Fraction(xt[0]), Fraction(xt[1])
    if x0 == 0 and x1 == 0:
        raise InputError("(0, 0) has no local height")
    if v.is_archimedean:
        return _arch_local_height(F, x0, x1, n_iter)
    return _padic_local_height(F, x0, x1, v.prime, n_iter)


# ---------------------------------------------------------------------------
# Arakelov-Green pairing
# ---------------------------------------------------------------------------


def green_pairing(
    F: HomogeneousLift, x: ProjPoint, y: ProjPoint, v: Place, n_iter: int = 30
) -> CertifiedValue:
    """g_v(x, y) = -log|x^y|_v + H_v(x) + H_v(y) - log|Res F|_v / (d(d-1)).

    Canonical coprime lifts are used for both points, so at a finite p the
    pairing is exactly 0 unless p divides Res(F) or the wedge x0*y1 - x1*y0;
    the diagonal x = y is rejected (the pairing is +infinity there).
    """
    if x == y:
        raise DiagonalPairingError(f"green pairing at the diagonal: {x}")
    return green_pairing_from_heights(F, x, y, v, memo_local_heights(F, n_iter))


def memo_local_heights(F: HomogeneousLift, n_iter: int):
    """height(x, v) = H_v(x) of a ProjPoint's canonical lift, each (x, v)
    computed at most once per returned function.

    Callers keep the function for one computation only; no cache outlives it.
    """
    local = {}

    def height(x: ProjPoint, place: Place) -> CertifiedValue:
        if (x, place) not in local:
            local[x, place] = hom_local_height(F, x.lift(), place, n_iter)
        return local[x, place]

    return height


def green_pairing_from_heights(
    F: HomogeneousLift, x: ProjPoint, y: ProjPoint, v: Place, height
) -> CertifiedValue:
    """The formula of ``green_pairing`` for distinct x, y, with height(z, v) = H_v(z).

    height is called only where the pairing needs it, and the terms are
    added in a fixed order, so a caller that already holds the local
    heights gets the same bytes.
    """
    d = F.d
    c = d * (d - 1)
    w = x.wedge(y)
    res = F.resultant
    if v.is_archimedean:
        total = -log_abs_certified(w)
        total = total + height(x, v)
        total = total + height(y, v)
        total = total - log_abs_certified(res).div_int(c)
        return total
    p = v.prime
    if w % p != 0 and res % p != 0:
        return CertifiedValue.exact_zero()
    total = log_rational_multiple(ord_int(w, p), p)  # -log|w|_p
    total = total + height(x, v)
    total = total + height(y, v)
    total = total + log_rational_multiple(Fraction(ord_int(res, p), c), p)
    return total


# ---------------------------------------------------------------------------
# Escape verification
# ---------------------------------------------------------------------------


def verify_escape(
    F: HomogeneousLift, v: Place, z, n_steps: int, delta: float
) -> bool:
    """Check the certified escape induction for n_steps iterations.

    Precondition (refused otherwise): ||z||_v > (1 + delta) * R(F)_v for the
    caller-supplied delta > 0.  Returns True iff ||F^k(z)||_v grows strictly
    with per-step ratio at least (1 + delta)^(d-1), which the radius bound
    guarantees; exact rational arithmetic at finite places.
    """
    if delta <= 0:
        raise InputError("delta must be positive")
    d = F.d
    z0, z1 = Fraction(z[0]), Fraction(z[1])
    if z0 == 0 and z1 == 0:
        raise InputError("(0, 0) cannot escape")
    rad = escape_radius(F, v)
    if v.is_archimedean:
        norm = float(max(abs(z0), abs(z1)))
        if not norm > (1.0 + delta) * rad.R:
            raise EscapePreconditionError(
                f"||z|| = {norm} is not above (1+delta) R = {(1.0 + delta) * rad.R}"
            )
        ratio = (d - 1) * math.log1p(delta)
        m = max(abs(z0), abs(z1))
        e0 = _binary_exponent(m)
        u0, u1 = float(z0 / Fraction(2) ** e0), float(z1 / Fraction(2) ** e0)
        lognorm = math.log(float(m / Fraction(2) ** e0)) + e0 * math.log(2.0)
        pc, qc = F.P.coeffs, F.Q.coeffs
        for _ in range(n_steps):
            w0 = _eval_form_float(pc, d, u0, u1)
            w1 = _eval_form_float(qc, d, u0, u1)
            nw = max(abs(w0), abs(w1))
            nu = max(abs(u0), abs(u1))
            step = math.log(nw) - d * math.log(nu)
            new_lognorm = d * lognorm + step
            if not new_lognorm - lognorm >= ratio:
                return False
            lognorm = new_lognorm
            _, ex = math.frexp(nw)
            u0, u1 = math.ldexp(w0, -ex), math.ldexp(w1, -ex)
        return True
    # finite place: all comparisons exact
    p = v.prime
    e = ord_int(F.resultant, p)
    m0 = min(ord_fraction(z0, p), ord_fraction(z1, p))
    # ||z|| > (1+delta) R  <=>  p^(-m0 (d-1) - e) > (1+delta)^(d-1)
    lhs = Fraction(p) ** (-m0 * (d - 1) - e)
    dlt = Fraction(delta)  # exact float-to-rational conversion
    ratio = (1 + dlt) ** (d - 1)
    if not lhs > ratio:
        raise EscapePreconditionError(
            f"||z||_{p} = p^{-m0} is not above (1+delta) R = (1+delta) p^({e}/{d - 1})"
        )
    # normalized coordinates cur with min valuation 0; the true iterate has
    # ||F^k(z)||_p = p^(-M_k) with M_{k+1} = d M_k + (min valuation of F(cur))
    scale = Fraction(p) ** m0
    cur0, cur1 = z0 / scale, z1 / scale
    big_m = m0
    for _ in range(n_steps):
        w0 = F.P.evaluate(cur0, cur1)
        w1 = F.Q.evaluate(cur0, cur1)
        mu = min(ord_fraction(w0, p), ord_fraction(w1, p))
        new_big_m = d * big_m + mu
        # growth ratio p^(M_k - M_{k+1}) must be >= (1+delta)^(d-1) and > 1
        if not (new_big_m < big_m and Fraction(p) ** (big_m - new_big_m) >= ratio):
            return False
        shift = Fraction(p) ** mu
        cur0, cur1 = w0 / shift, w1 / shift
        big_m = new_big_m
    return True
