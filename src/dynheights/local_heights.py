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
escape test (``verify_escape``), and each kernel takes a coprime integer
pair.  A pair given with rational entries is split once, at the public
entry, into lambda * y with y coprime; lambda enters through the
homogeneity identity H(lambda y) = H(y) + log|lambda|_v, and a
``ProjPoint`` lift goes to the kernels as it is.  At the archimedean place
the kernel is a float orbit with exact binary renormalization each step
(so magnitudes never leave [1/2, 1)), one pass over both forms.  At a
finite place it is a residue orbit mod p^r with r > e = ord_p Res(F)
before every step, so every step valuation m read off is exact: one
homogeneous Horner pass evaluates both forms, and gcd(w0, w1, p^r) = p^m.
The rescaling is compensated through the same homogeneity identity.  This
orbit runs only when the orbit mod p, walked in the lift's table of F mod
p (``HomogeneousLift.residue_images``), meets a hole, a common zero of P
and Q mod p; elsewhere every m is 0 (``_misses_holes`` has the proof).

A ``LocalHeights`` memo holds each H_v(x) of one map at one series length
and refuses a length below 1 when it is built, so no place can skip that
check; ``canonical_height`` and ``energy_sum`` take one through
``heights=`` (checked by ``heights_memo``), and ``green_pairing`` builds
its own.  Every entry defaults to ``DEFAULT_ITERS`` terms.
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


def _binary_exponent(x) -> int:
    """e with x / 2^e in [1/2, 2); x > 0 an int or Fraction."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _coprime_split(z) -> tuple:
    """(lam, y0, y1) with z = lam * (y0, y1), lam > 0 and (y0, y1) a coprime
    integer pair; lam is an int when z is an int pair.  (0, 0) is refused."""
    z0, z1 = z
    den = 1
    if not (isinstance(z0, int) and isinstance(z1, int)):
        z0, z1 = Fraction(z0), Fraction(z1)
        den = math.lcm(z0.denominator, z1.denominator)
        z0, z1 = z0.numerator * (den // z0.denominator), z1.numerator * (den // z1.denominator)
    g = gcd(z0, z1)
    if g == 0:
        raise InputError("(0, 0) does not define a projective point")
    return (g if den == 1 else Fraction(g, den)), z0 // g, z1 // g


def _arch_steps(F: HomogeneousLift, y0: int, y1: int, n_steps: int):
    """Yield t_k = log||F(u_k)|| - d log||u_k|| for k = 0 .. n_steps - 1.

    (y0, y1) is a coprime integer pair, u_0 = (y0, y1) / 2^e as floats and
    u_{k+1} = F(u_k) / 2^e', both powers of two exact, so
    log||F^n(y)|| = d^n log||y|| + sum_k d^(n-1-k) t_k while every float
    stays near [1/2, 1).  Both forms come off one chain of powers of u1, in
    the float order of one ``BinaryForm.evaluate`` per form: float(c) per
    nonzero c, (c u0^i) u1^(d-i) summed up from 0.0, so t_k is bit-identical.
    """
    d = F.d
    terms = [(float(a), float(b), d - i) for i, (a, b) in enumerate(zip(F.P.coeffs, F.Q.coeffs))]
    log, frexp, ldexp, powers = math.log, math.frexp, math.ldexp, range(d)
    scale = 1 << (max(abs(y0), abs(y1)).bit_length() - 1)
    u0, u1 = y0 / scale, y1 / scale  # correctly rounded, whatever the size of y
    log_u = log(max(abs(u0), abs(u1)))
    for _ in range(n_steps):
        ys, y, x, w0, w1 = [1.0], 1.0, 1.0, 0.0, 0.0
        for _ in powers:
            y *= u1
            ys.append(y)
        for a, b, j in terms:  # x = u0^i, the chain of BinaryForm.evaluate
            if a:
                w0 += a * x * ys[j]
            if b:
                w1 += b * x * ys[j]
            x *= u0
        nw = max(abs(w0), abs(w1))
        if not 0.0 < nw < math.inf:  # also false on a NaN
            raise ArithmeticError("archimedean iteration left the certified float range")
        yield log(nw) - d * log_u
        mant, ex = frexp(nw)  # mant is max(|u0|, |u1|) of the next point, exactly
        u0, u1, log_u = ldexp(w0, -ex), ldexp(w1, -ex), log(mant)


def _padic_steps(F: HomogeneousLift, y0: int, y1: int, p: int, e: int, n_steps: int) -> list:
    """[m_1, ..., m_n] for a coprime integer pair y: m_k is the valuation of
    F(u_(k-1)), u_0 = y and u_k = F(u_(k-1)) / p^m_k, so that
    ||F^n(y)||_p = p^-(sum_k d^(n-k) m_k).

    Every m_k <= e = ord_p Res(F) (cofactor identity), so a valuation read
    off mod p^r, r > e, is exact.  The orbit runs mod p^r, dropping m_k
    digits per step, from r = min(2e + 2, (n+1)e + 2); when e or fewer
    digits remain before a step it restarts at double the precision.

    Each step evaluates both forms in one homogeneous Horner pass over a
    shared chain of powers of the second coordinate, and reads m_k from one
    gcd: the modulus is a power of p, so gcd(w0, w1, p^r) = p^m_k exactly
    (p^r itself when both residues vanish).
    """
    cp, cq = F.P.descending(), F.Q.descending()
    head_p, head_q, tail = cp[0], cq[0], tuple(zip(cp[1:], cq[1:]))
    exponent = {p**k: k for k in range(e + 1)}  # a gcd outside it means m > e
    full = (n_steps + 1) * e + 2  # here remaining > e before every step: no restart
    precision = min(2 * e + 2, full)
    while True:
        remaining, modulus = precision, p**precision
        z0, z1 = y0 % modulus, y1 % modulus
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
            return steps
        precision = min(2 * precision, full)


# ---------------------------------------------------------------------------
# Homogeneous local height
# ---------------------------------------------------------------------------


def _series_tail(bound: float, d: int, n_iter: int) -> float:
    """bound / (d^n (d - 1)), correctly rounded: one exact integer division,
    so d^n may exceed the float range (from n = 1024 at d = 2)."""
    num, den = bound.as_integer_ratio()
    return num / (den * d**n_iter * (d - 1))


def _arch_local_height(F: HomogeneousLift, lam, y0: int, y1: int, n_iter: int):
    d = F.d
    const = step_error_constants(F, Place.archimedean())
    log0 = log_abs_certified(lam * max(abs(y0), abs(y1)))  # log||lam y||, exact input
    acc = 0.0
    pad = log0.err
    weight = 1.0 / d
    for t in _arch_steps(F, y0, y1, n_iter):
        acc += weight * t
        pad += weight * 1e-14 * (1.0 + abs(t))
        weight /= d
    tail = _series_tail(const.magnitude(), d, n_iter)
    err = _up(_up(tail) + _up(pad) + 4.0 * _EPS * (abs(acc) + abs(log0.value)))
    return CertifiedValue(log0.value + acc, err)


def _misses_holes(F: HomogeneousLift, p: int, y0: int, y1: int, n: int) -> bool:
    """Whether the first n orbit points of [y0:y1] mod p miss the holes (the
    common zeros of P and Q mod p), i.e. ``_padic_steps`` gives all zeros.

    Proof: a p-adic pair u with a unit entry has F(u) = F(u mod p) mod p, of
    positive order exactly at a hole and elsewhere again with a unit entry;
    so by induction m_1 = ... = m_k = 0 while u_0 .. u_(k-1) mod p miss the
    holes, each u_k reducing to the next orbit point.  F mod p is read from
    ``F.residue_images[p]`` and evaluated only on a residue it lacks.
    """
    images, y1p = F.residue_images.setdefault(p, {}), y1 % p
    r = y0 % p * pow(y1p, -1, p) % p if y1p else p
    for _ in range(n):
        if r not in images:
            x0, x1 = (1, 0) if r == p else (r, 1)
            a, b = F.P.evaluate(x0, x1) % p, F.Q.evaluate(x0, x1) % p
            images[r] = a * pow(b, -1, p) % p if b else (p if a else -1)
        r = images[r]
        if r < 0:
            return False
    return True


def _padic_local_height(F: HomogeneousLift, lam, y0: int, y1: int, p: int, n_iter: int):
    d = F.d
    e = ord_int(F.resultant, p)
    m0 = ord_fraction(lam, p)  # ||lam y||_p = p^-m0, y coprime
    if e == 0:  # every step valuation is 0: H = -m0 log p, no truncation, no orbit
        return log_rational_multiple(-m0, p)
    # H = -m0 - sum_{k=1..n} m_k / d^k, an integer over d^n by Horner (no
    # Fraction per step); an orbit missing the holes mod p has every m_k = 0
    num = 0
    if not _misses_holes(F, p, y0, y1, n_iter):
        for m in _padic_steps(F, y0, y1, p, e, n_iter):
            num = num * d - m
    cv = log_rational_multiple(Fraction(num, d**n_iter) - m0, p)
    tail = _series_tail(e * math.log(p), d, n_iter)
    return cv.widen(_up(tail))


def hom_local_height(F: HomogeneousLift, xt, v: Place, n_iter: int) -> CertifiedValue:
    """Certified local height of the pair xt = (x0, x1) != (0, 0) at the place v.

    xt may hold ints or Fractions.  It is split once into lam * y with y a
    coprime integer pair, and the orbit kernels run on y; lam enters through
    the homogeneity identity H(lambda * xt) = H(xt) + log|lambda|_v, which
    the result satisfies together with H(F(xt)) = d * H(xt), both up to the
    returned error radius.  At a finite place with good reduction of the
    lift the value is exact (zero truncation).
    """
    if n_iter < 1:
        raise InputError("n_iter must be >= 1")
    lam, y0, y1 = _coprime_split(xt)
    if v.is_archimedean:
        return _arch_local_height(F, lam, y0, y1, n_iter)
    return _padic_local_height(F, lam, y0, y1, v.prime, n_iter)


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
    height = LocalHeights(F, n_iter)  # checks n_iter, also where no height runs
    w = x.wedge(y)
    if v.is_archimedean:
        total = -log_abs_certified(w)
    else:
        p = v.prime
        if w % p != 0 and F.resultant % p != 0:
            return CertifiedValue.exact_zero()
        total = log_rational_multiple(ord_int(w, p), p)  # -log|w|_p
    total = total + height(x, v)
    total = total + height(y, v)
    return total + height.resultant_term(v)


class LocalHeights:
    """Per-map memo of height(x, v) = H_v(x) on a ProjPoint's canonical lift and
    height.resultant_term(v) = -log|Res F|_v / (d(d-1)), each computed at most
    once per instance.  Keep one for one computation only.
    """

    def __init__(self, F: HomogeneousLift, n_iter: int):
        if n_iter < 1:
            raise InputError("n_iter must be >= 1")
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
    lam, y0, y1 = _coprime_split(z)
    rad = escape_radius(F, v)
    if v.is_archimedean:
        m = lam * max(abs(y0), abs(y1))  # ||z||, exact
        if not float(m) > (1.0 + delta) * rad.R:
            raise EscapePreconditionError(
                f"||z|| = {float(m)} is not above (1+delta) R = {(1.0 + delta) * rad.R}"
            )
        ratio = (d - 1) * math.log1p(delta)
        e0 = _binary_exponent(m)
        lognorm = math.log(float(m / Fraction(2) ** e0)) + e0 * math.log(2.0)
        for t in _arch_steps(F, y0, y1, n_steps):
            # test the increment itself: once lognorm overflows to inf, the
            # difference of two infinite lognorms would be NaN
            if not (d - 1) * lognorm + t >= ratio:
                return False
            lognorm = d * lognorm + t
        return True
    # finite place: all comparisons exact
    p = v.prime
    e = ord_int(F.resultant, p)
    big_m = ord_fraction(lam, p)  # ||z||_p = p^-big_m, y coprime
    # ||z|| > (1+delta) R  <=>  p^(-big_m (d-1) - e) > (1+delta)^(d-1)
    ratio = (1 + Fraction(delta)) ** (d - 1)  # exact float-to-rational conversion
    if not Fraction(p) ** (-big_m * (d - 1) - e) > ratio:
        raise EscapePreconditionError(
            f"||z||_{p} = p^{-big_m} is not above (1+delta) R = (1+delta) p^({e}/{d - 1})"
        )
    # ||F^k(z)||_p = p^(-M_k) with M_{k+1} = d M_k + m_{k+1}; the growth
    # p^(M_k - M_{k+1}) reaches the ratio iff M_k - M_{k+1} >= k_min
    k_min = 1
    while p**k_min * ratio.denominator < ratio.numerator:
        k_min += 1
    for m in _padic_steps(F, y0, y1, p, e, n_steps):
        new_big_m = d * big_m + m
        if big_m - new_big_m < k_min:
            return False
        big_m = new_big_m
    return True
