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

Each place has one orbit kernel, read by both the local height and the
escape test (``verify_escape``).  At the archimedean place it is a float
orbit with exact binary renormalization each step (so magnitudes never
leave [1/2, 1)).  At a finite place it is a residue orbit mod p^r with
r > e = ord_p Res(F) before every step: every step valuation read off is
exact, so no exact rational is iterated.  Each p-adic step is plain integer
arithmetic: one homogeneous Horner pass evaluates both forms, and the step
valuation m is read from gcd(w0, w1, p^r) = p^m.  The per-step rescaling is
compensated exactly through the homogeneity identity
H(lambda z) = H(z) + log|lambda|_v.

A ``LocalHeights`` memo holds each H_v(x) of one map at one series length;
``canonical_height`` and ``energy_sum`` take one through ``heights=``
(checked by ``heights_memo``), and ``green_pairing`` builds its own.  Every
entry defaults to ``DEFAULT_ITERS`` terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import ord_fraction, ord_int
from .certified import _EPS, CertifiedValue, _up, log_abs_certified, log_rational_multiple
from .errors import DiagonalPairingError, EscapePreconditionError, InputError
from .maps_core import HomogeneousLift, Place, ProjPoint

DEFAULT_ITERS = 30

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

    At a finite place R is p^(e/(d-1)), e = ord_p Res(F), as a float (the
    escape test compares exactly, through e); archimedean radii are
    certified floats (rounded outward).
    """

    place: Place
    R: float


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
    return EscapeRadius(v, float(v.prime) ** (e / (d - 1)))


# ---------------------------------------------------------------------------
# Orbit kernels: one renormalized orbit per place
# ---------------------------------------------------------------------------


def _binary_exponent(x: Fraction) -> int:
    """e with x / 2^e in [1/2, 2); x > 0."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _arch_steps(F: HomogeneousLift, x0: Fraction, x1: Fraction, n_steps: int):
    """Yield t_k = log||F(u_k)|| - d log||u_k|| for k = 0 .. n_steps - 1.

    u_0 = (x0, x1) / 2^e as floats and u_{k+1} = F(u_k) / 2^e', both powers
    of two exact, so log||F^n(x)|| = d^n log||x|| + sum_k d^(n-1-k) t_k while
    every float stays near [1/2, 1).
    """
    d = F.d
    scale = Fraction(2) ** _binary_exponent(max(abs(x0), abs(x1)))
    u0, u1 = float(x0 / scale), float(x1 / scale)
    for _ in range(n_steps):
        w0, w1 = F.P.evaluate(u0, u1), F.Q.evaluate(u0, u1)
        nw = max(abs(w0), abs(w1))
        if nw == 0.0 or math.isinf(nw) or math.isnan(nw):
            raise ArithmeticError("archimedean iteration left the certified float range")
        yield math.log(nw) - d * math.log(max(abs(u0), abs(u1)))
        _, ex = math.frexp(nw)
        u0, u1 = math.ldexp(w0, -ex), math.ldexp(w1, -ex)


def _frac_to_residue(x: Fraction, modulus: int) -> int:
    """x mod modulus for x with denominator invertible mod modulus."""
    num = x.numerator % modulus
    den = x.denominator % modulus
    return (num * pow(den, -1, modulus)) % modulus


def _padic_steps(F: HomogeneousLift, x0: Fraction, x1: Fraction, p: int, e: int, n_steps: int):
    """(m0, [m_1, ..., m_n]) with ||x||_p = p^-m0 and m_k the valuation of
    F(u_(k-1)), u_0 = x / p^m0 and u_k = F(u_(k-1)) / p^m_k, so that
    ||F^n(x)||_p = p^-(d^n m0 + sum_k d^(n-k) m_k).

    Every m_k <= e = ord_p Res(F) (cofactor identity), so a valuation read
    off mod p^r, r > e, is exact.  The orbit runs mod p^r, dropping m_k
    digits per step, from r = min(2e + 2, (n+1)e + 2); when e or fewer
    digits remain before a step it restarts at double the precision.

    Each step evaluates both forms in one homogeneous Horner pass over a
    shared chain of powers of the second coordinate, and reads m_k from one
    gcd: the modulus is a power of p, so gcd(w0, w1, p^r) = p^m_k exactly
    (p^r itself when both residues vanish).
    """
    m0 = min(ord_fraction(x0, p), ord_fraction(x1, p))
    scale = Fraction(p) ** m0  # u_0 has min valuation 0
    cp, cq = F.P.descending(), F.Q.descending()
    head_p, head_q, tail = cp[0], cq[0], tuple(zip(cp[1:], cq[1:]))
    exponent = {p**k: k for k in range(e + 1)}  # a gcd outside it means m > e
    full = (n_steps + 1) * e + 2  # here remaining > e before every step: no restart
    precision = min(2 * e + 2, full)
    while True:
        remaining, modulus = precision, p**precision
        z0, z1 = _frac_to_residue(x0 / scale, modulus), _frac_to_residue(x1 / scale, modulus)
        steps = []
        while len(steps) < n_steps and remaining > e:
            a, b, yp = head_p, head_q, 1
            for c_p, c_q in tail:
                yp *= z1
                a = a * z0 + c_p * yp
                b = b * z0 + c_q * yp
            w0, w1 = a % modulus, b % modulus
            shift = gcd(w0, w1, modulus)
            m = exponent.get(shift)
            if m is None:  # impossible for a unit-content lift; guards precision bugs
                raise ArithmeticError("p-adic step valuation exceeded its certified bound")
            steps.append(m)
            remaining -= m
            modulus //= shift
            z0, z1 = w0 // shift, w1 // shift  # already below the new modulus
        if len(steps) == n_steps:
            return m0, steps
        precision = min(2 * precision, full)


# ---------------------------------------------------------------------------
# Homogeneous local height
# ---------------------------------------------------------------------------


def _series_tail(bound: float, d: int, n_iter: int) -> float:
    """bound / (d^n (d - 1)), correctly rounded: one exact integer division,
    so d^n may exceed the float range (from n = 1024 at d = 2)."""
    num, den = bound.as_integer_ratio()
    return num / (den * d**n_iter * (d - 1))


def _arch_local_height(F: HomogeneousLift, x0: Fraction, x1: Fraction, n_iter: int):
    d = F.d
    const = step_error_constants(F, Place.archimedean())
    log0 = log_abs_certified(max(abs(x0), abs(x1)))
    acc = 0.0
    pad = log0.err
    weight = 1.0 / d
    for t in _arch_steps(F, x0, x1, n_iter):
        acc += weight * t
        pad += weight * 1e-14 * (1.0 + abs(t))
        weight /= d
    tail = _series_tail(const.magnitude(), d, n_iter)
    err = _up(_up(tail) + _up(pad) + 4.0 * _EPS * (abs(acc) + abs(log0.value)))
    return CertifiedValue(log0.value + acc, err)


def _padic_local_height(F: HomogeneousLift, x0: Fraction, x1: Fraction, p: int, n_iter: int):
    d = F.d
    e = ord_int(F.resultant, p)
    if e == 0:  # every step valuation is 0: H = -m0 log p, no truncation, no orbit
        return log_rational_multiple(-min(ord_fraction(x0, p), ord_fraction(x1, p)), p)
    m0, steps = _padic_steps(F, x0, x1, p, e, n_iter)
    # H = -m0 - sum_{k=1..n} m_k / d^k; Horner keeps the integer numerator
    # over d^n, so no Fraction arithmetic runs per step
    num = 0
    for m in steps:
        num = num * d - m
    cv = log_rational_multiple(Fraction(num, d**n_iter) - m0, p)
    tail = _series_tail(e * math.log(p), d, n_iter)
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
    F: HomogeneousLift, x: ProjPoint, y: ProjPoint, v: Place, n_iter: int = DEFAULT_ITERS
) -> CertifiedValue:
    """g_v(x, y) = -log|x^y|_v + H_v(x) + H_v(y) - log|Res F|_v / (d(d-1)).

    Canonical coprime lifts are used for both points, so at a finite p the
    pairing is exactly 0 unless p divides Res(F) or the wedge x0*y1 - x1*y0;
    the diagonal x = y is rejected (the pairing is +infinity there).
    """
    if x == y:
        raise DiagonalPairingError(f"green pairing at the diagonal: {x}")
    w = x.wedge(y)
    if v.is_archimedean:
        total = -log_abs_certified(w)
    else:
        p = v.prime
        if w % p != 0 and F.resultant % p != 0:
            return CertifiedValue.exact_zero()
        total = log_rational_multiple(ord_int(w, p), p)  # -log|w|_p
    height = LocalHeights(F, n_iter)
    total = total + height(x, v)
    total = total + height(y, v)
    return total + height.resultant_term(v)


class LocalHeights:
    """Per-map memo of height(x, v) = H_v(x) on a ProjPoint's canonical lift and
    height.resultant_term(v) = -log|Res F|_v / (d(d-1)), each computed at most
    once per instance.  Keep one for one computation only.
    """

    def __init__(self, F: HomogeneousLift, n_iter: int):
        self.F, self.n_iter = F, n_iter
        self._local, self._res = {}, {}

    def __call__(self, x: ProjPoint, place: Place) -> CertifiedValue:
        key = (x.x0, x.x1, place.prime)  # plain ints hash faster than the dataclasses
        cv = self._local.get(key)
        if cv is None:
            cv = self._local[key] = hom_local_height(self.F, x.lift(), place, self.n_iter)
        return cv

    def resultant_term(self, v: Place) -> CertifiedValue:
        p = v.prime
        if p not in self._res:
            res, c = self.F.resultant, self.F.d * (self.F.d - 1)
            self._res[p] = (
                -log_abs_certified(res).div_int(c) if p is None
                else log_rational_multiple(Fraction(ord_int(res, p), c), p)
            )
        return self._res[p]


def heights_memo(F: HomogeneousLift, n_iter: int, heights: LocalHeights | None) -> LocalHeights:
    """heights, checked to be a memo of F at n_iter, or a new memo when it is None."""
    if heights is None:
        return LocalHeights(F, n_iter)
    if heights.F != F or heights.n_iter != n_iter:
        raise InputError("the local-height memo was built for another map or n_iter")
    return heights


# ---------------------------------------------------------------------------
# Escape verification
# ---------------------------------------------------------------------------


def verify_escape(
    F: HomogeneousLift, v: Place, z, n_steps: int, delta: float
) -> bool:
    """Check the certified escape induction for n_steps >= 1 iterations.

    Precondition (refused otherwise): ||z||_v > (1 + delta) * R(F)_v for the
    caller-supplied delta > 0.  Returns True iff ||F^k(z)||_v grows strictly
    with per-step ratio at least (1 + delta)^(d-1), which the radius bound
    guarantees.  The norms are read off the local-height orbits: the float
    orbit at infinity, and at a finite place the exact step valuations of
    the residue orbit (``_padic_steps``), compared as exponents of p.
    """
    if n_steps < 1:
        raise InputError("n_steps must be >= 1")
    if delta <= 0:
        raise InputError("delta must be positive")
    d = F.d
    z0, z1 = Fraction(z[0]), Fraction(z[1])
    if z0 == 0 and z1 == 0:
        raise InputError("(0, 0) cannot escape")
    rad = escape_radius(F, v)
    if v.is_archimedean:
        m = max(abs(z0), abs(z1))
        if not float(m) > (1.0 + delta) * rad.R:
            raise EscapePreconditionError(
                f"||z|| = {float(m)} is not above (1+delta) R = {(1.0 + delta) * rad.R}"
            )
        ratio = (d - 1) * math.log1p(delta)
        e0 = _binary_exponent(m)
        lognorm = math.log(float(m / Fraction(2) ** e0)) + e0 * math.log(2.0)
        for t in _arch_steps(F, z0, z1, n_steps):
            # test the increment itself: once lognorm overflows to inf, the
            # difference of two infinite lognorms would be NaN
            if not (d - 1) * lognorm + t >= ratio:
                return False
            lognorm = d * lognorm + t
        return True
    # finite place: all comparisons exact
    p = v.prime
    e = ord_int(F.resultant, p)
    m0 = min(ord_fraction(z0, p), ord_fraction(z1, p))
    # ||z|| > (1+delta) R  <=>  p^(-m0 (d-1) - e) > (1+delta)^(d-1)
    ratio = (1 + Fraction(delta)) ** (d - 1)  # exact float-to-rational conversion
    if not Fraction(p) ** (-m0 * (d - 1) - e) > ratio:
        raise EscapePreconditionError(
            f"||z||_{p} = p^{-m0} is not above (1+delta) R = (1+delta) p^({e}/{d - 1})"
        )
    # ||F^k(z)||_p = p^(-M_k) with M_{k+1} = d M_k + m_{k+1}; the growth
    # p^(M_k - M_{k+1}) reaches the ratio iff M_k - M_{k+1} >= k_min
    k_min = 1
    while p**k_min * ratio.denominator < ratio.numerator:
        k_min += 1
    big_m, steps = _padic_steps(F, z0, z1, p, e, n_steps)
    for m in steps:
        new_big_m = d * big_m + m
        if big_m - new_big_m < k_min:
            return False
        big_m = new_big_m
    return True
