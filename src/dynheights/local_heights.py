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

Each place has one orbit kernel, read by the local height and the escape
test (``verify_escape``), on a coprime integer pair y (a rational pair is
split once into lambda y, and H(lambda y) = H(y) + log|lambda|_v).  What a
place needs of the lift is built there once, in a context kept on the lift.

* At infinity the kernel is a float orbit with exact binary renormalization,
  compiled per lift into straight-line code in the float order of one
  ``BinaryForm.evaluate`` per form (float(c) once per nonzero c, powers by
  repeated multiplication, (c u0^i) u1^(d-i) summed up from 0.0 in
  ascending i), so each t_k is bit-identical to that loop's.
* At p the step valuations come from the context's table of rigid residue
  discs (``_PlaceContext.disc``: every point over such a residue has one
  step valuation m and one next residue) where the orbit stays in them,
  and elsewhere from a residue orbit mod p^r, r > e = ord_p Res(F) before
  every step, so each m is exact: one Horner pass evaluates both forms; a
  unit residue (most steps) ends the step with m = 0, else both residues
  are divided by p while they stay divisible.  A local height whose orbit
  mod p misses the holes (the common zeros of P and Q mod p) for n steps
  reads every m = 0 off one table lookup.

A ``LocalHeights`` memo holds each H_v(x) of one map at one series length
and refuses a length below 1 when it is built, so no place can skip that
check; ``canonical_height`` and ``energy_sum`` take one through
``heights=`` (checked by ``heights_memo``), and ``green_pairing`` builds
its own.  Every entry defaults to ``DEFAULT_ITERS`` terms.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import ord_fraction, ord_int
from .certified import _EPS, CertifiedValue, _up, log_abs_certified, log_float_multiple
from .certified import log_rational_multiple
from .errors import DiagonalPairingError, EscapePreconditionError, InputError
from .maps_core import HomogeneousLift, Place, ProjPoint

DEFAULT_ITERS = 30

# ---------------------------------------------------------------------------
# Step error constants, escape radii and place contexts
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
    """Certified per-step bounds for the local height telescoping series (at
    infinity computed here once per lift, for its place context)."""
    d = F.d
    if v.is_archimedean:
        U = _up(math.log((d + 1) * F.max_abs_coeff()))
        # L = log(|Res| / (2 A')), rounded downward (toward -inf) to stay a bound
        L = math.nextafter(
            math.log(abs(F.resultant)) - math.log(2 * F.cofactor_bound), -math.inf
        )
        L = math.nextafter(L - 4.0 * _EPS * (abs(L) + 1.0), -math.inf)
        return StepErrorConstant(v, U, min(L, 0.0))
    ctx = _context(F, v.prime)
    L = math.nextafter(-(ctx.e * ctx.log_p) * (1.0 + 4.0 * _EPS), -math.inf) if ctx.e else 0.0
    return StepErrorConstant(v, 0.0, L)


def escape_radius(F: HomogeneousLift, v: Place) -> EscapeRadius:
    """Smallest certified radius confining every bounded orbit of the lift.

    Finite v: |Res(F)|_p^(-1/(d-1)) exactly (a rational power of p).
    Archimedean: max(1, (2A'/|Res(F)|)^(1/(d-1))) with A' the exact
    cofactor bound.
    """
    return _context(F, v.prime).radius


class _PlaceContext:
    """One place of one lift (p = None at infinity).  At p: e, log p, the
    Horner coefficients, the table of rigid residue discs (``settle``), the
    precision ``hint`` of the lift's last completed Horner run and two work
    counters.  The rest is built on first use, so a coefficient beyond the
    float range fails there."""

    def __init__(self, F: HomogeneousLift, p):
        self._lift, self.p, self._series = weakref.ref(F), p, {}  # F holds its contexts
        if p is not None:
            self.e, self.log_p, self.discs = ord_int(F.resultant, p), math.log(p), {}
            cp, cq = F.P.descending(), F.Q.descending()
            self.head, self.tail = (cp[0], cq[0]), tuple(zip(cp[1:], cq[1:]))
            self.hint, self.horner_steps, self.restarts = None, 0, 0

    F = property(lambda self: self._lift())

    @cached_property
    def const(self) -> StepErrorConstant:
        return step_error_constants(self.F, Place.archimedean())

    @cached_property
    def steps(self):
        """The archimedean kernel: ``_ARCH_STEPS_SOURCE`` unrolled over d and the
        nonzero c, each a name bound to float(c) (``namedtuple``'s exec idiom);
        term i is (c x_i) y_(d-i), its exact products by 1.0 left out."""
        d, names, sums = self.F.d, {"log": math.log, "frexp": math.frexp,
                                    "ldexp": math.ldexp, "inf": math.inf}, []
        for form, c_name in ((self.F.P, "p"), (self.F.Q, "q")):
            terms = ["0.0"]
            for i, c in enumerate(form.coeffs):
                if c:
                    names[f"{c_name}{i}"] = float(c)
                    terms.append(" * ".join([f"{c_name}{i}"] + [f"x{i}"] * (i > 0)
                                            + [f"y{d - i}"] * (i < d)))
            sums.append(" + ".join(terms))
        chain = "".join(f"        {v}{k} = {v}{k - 1} * {v}1\n"
                        for v in "xy" for k in range(2, d + 1))
        exec(_ARCH_STEPS_SOURCE.format(chain=chain, w0=sums[0], w1=sums[1], d=d), names)
        return names["steps"]

    @cached_property
    def radius(self) -> EscapeRadius:
        F, p = self.F, self.p
        if p is not None:
            return EscapeRadius(Place.finite(p), float(p) ** (self.e / (F.d - 1)))
        r = (2.0 * F.cofactor_bound / abs(F.resultant)) ** (1.0 / (F.d - 1))
        return EscapeRadius(Place.archimedean(), max(1.0, _up(r)))

    def series(self, n_iter: int) -> tuple:
        """(d^n, the tail bound / (d^n (d - 1)) rounded up, and 0 widened by it)
        at n terms; the tail is one correctly rounded integer division, so d^n
        may exceed the float range (from n = 1024 at d = 2)."""
        s = self._series.get(n_iter)
        if s is None:
            d, dn = self.F.d, self.F.d**n_iter
            num, den = (self.const.magnitude() if self.p is None
                        else self.e * self.log_p).as_integer_ratio()
            tail = _up(num / (den * dn * (d - 1)))
            s = self._series[n_iter] = (dn, tail, CertifiedValue.exact_zero().widen(tail))
        return s

    def disc(self, r: int):
        """(m, image) of the rigid disc over the residue r of P^1(F_p) (r = p
        is [1:0]), or None where the disc is not rigid.

        The disc is (r + p s, 1), or (1, p s) at r = p, with s in Z_p; every
        point of P^1(Q_p) over r is a unit times one of these.  Write each
        form on it as sum_j a_j p^j s^j (a_j the Taylor coefficients of
        P(r + t, 1), or those of P(1, t) at r = p, all integers) and let
        m = min(ord_p a_0^P, ord_p a_0^Q).  The disc is rigid when m <= e and
        ord_p a_j + j > m for every j >= 1 in both forms.  Then each form is
        a_0 mod p^(m+1) at every point of the disc, so the step valuation is
        m there, and F(u) / p^m = (a_0^P, a_0^Q) / p^m mod p up to a unit:
        the next residue is ``image``.  A residue that is no hole (a_0^P or
        a_0^Q a unit) is rigid with m = 0, since every ord_p a_j + j >= 1.
        At a hole the condition only constrains j <= m.
        """
        F, p, e = self.F, self.p, self.e
        x0, x1 = (1, 0) if r == p else (r, 1)
        a, b = F.P.evaluate(x0, x1), F.Q.evaluate(x0, x1)
        if a % p or b % p:
            return 0, _residue(a, b, p)
        m = min(ord_int(a, p), ord_int(b, p))  # not both 0: Res(F) != 0
        if m > e:  # impossible for a unit-content lift; left to the orbit, which raises
            return None
        d = F.d
        for c in (F.P.coeffs, F.Q.coeffs):  # c[i] is the coefficient of x^i y^(d - i)
            for j in range(1, min(m, d) + 1):
                a_j = c[d - j] if r == p else sum(
                    c[i] * math.comb(i, j) * r ** (i - j) for i in range(j, d + 1))
                if a_j % p ** (m - j + 1):
                    return None
        pm = p**m
        return m, _residue(a // pm, b // pm, p)

    def settle(self, r: int, n: int) -> tuple:
        """The table entry (m, image, reach, to_hole) of the residue r.

        reach counts the rigid discs on r's walk r, image(r), ... before the
        first one that is not rigid (inf on a rigid cycle); to_hole counts
        those before the first hole (a disc with m > 0 or not rigid, which
        is always a hole).  A point over a residue of reach >= n has the
        step valuations [m(r), m(image(r)), ...] for n steps (``walk``),
        by induction with ``disc``; one of to_hole >= n has n zero steps.
        A disc that is not rigid is (None, None, 0, 0).

        Each count is exact, or stored as -k for "at least k" with k >= n on
        return.  A walk evaluates F at each new residue until it meets an
        exact entry, a disc that is not rigid or a repeat (a rigid cycle);
        below p = 2^16 it runs to the end (at most p + 1 residues), above
        it stops after n discs and stores lower bounds, walking again when a
        longer count is asked for.
        """
        table = self.discs
        entry = table.get(r)
        if entry is not None and (entry[2] >= 0 or entry[2] <= -n):
            return entry
        cap, path, s = n if self.p >> 16 else self.p + 1, {}, r  # path: ordered
        reach = to_hole = 0
        exact = True
        while True:
            entry = table.get(s)
            if entry is not None and entry[2] >= 0:
                reach, to_hole = entry[2], entry[3]
                break
            if s in path:  # a rigid cycle from s
                keys = list(path)
                cycle = keys[keys.index(s):]
                reach = math.inf
                to_hole = next((k for k, c in enumerate(cycle) if path[c][0]), math.inf)
                break
            if len(path) == cap:
                exact = False
                break
            disc = entry[:2] if entry is not None else self.disc(s)
            if disc is None:
                table[s] = (None, None, 0, 0)
                break
            path[s] = disc
            s = disc[1]
        hole_met = exact
        for s in reversed(path):
            m, image = path[s]
            reach += 1
            if m:
                to_hole, hole_met = 0, True
            else:
                to_hole += 1
            table[s] = (m, image, reach if exact else -reach, to_hole if hole_met else -to_hole)
        return table[r]

    def walk(self, r: int, n: int) -> list:
        """The n step valuations of a point over r, for reach(r) >= n."""
        table, steps = self.discs, []
        for _ in range(n):
            m, r, _, _ = table[r]
            steps.append(m)
        return steps


def _residue(a: int, b: int, p: int) -> int:
    """The residue of [a:b] in P^1(F_p) (p for [1:0]); a or b a unit at p."""
    b %= p
    return a * pow(b, -1, p) % p if b else p


def _context(F: HomogeneousLift, p) -> _PlaceContext:
    """The place context of F at the prime p, or at infinity for p = None."""
    ctx = F.place_contexts.get(p)
    return ctx if ctx is not None else F.place_contexts.setdefault(p, _PlaceContext(F, p))


# ---------------------------------------------------------------------------
# Orbit kernels: one renormalized orbit per place
# ---------------------------------------------------------------------------


class _CanonicalPair(tuple):
    """A ``ProjPoint``'s canonical lift (x0, x1), coprime by construction:
    ``hom_local_height`` hands it to the kernels with lam = 1, no gcd."""

    __slots__ = ()


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


_ARCH_STEPS_SOURCE = """\
def steps(z0, z1, n_steps):
    scale = 1 << (max(abs(z0), abs(z1)).bit_length() - 1)
    x1, y1 = z0 / scale, z1 / scale  # correctly rounded, whatever the size of z
    log_u = log(max(abs(x1), abs(y1)))
    for _ in range(n_steps):
{chain}        w0 = {w0}
        w1 = {w1}
        nw = max(abs(w0), abs(w1))
        if not 0.0 < nw < inf:  # also false on a NaN
            raise ArithmeticError("archimedean iteration left the certified float range")
        yield log(nw) - {d} * log_u
        mant, ex = frexp(nw)  # mant is max(|x1|, |y1|) of the next point, exactly
        x1, y1, log_u = ldexp(w0, -ex), ldexp(w1, -ex), log(mant)
"""


def _arch_steps(F: HomogeneousLift, y0: int, y1: int, n_steps: int):
    """Yield t_k = log||F(u_k)|| - d log||u_k|| for k = 0 .. n_steps - 1, from
    the lift's compiled kernel: u_0 = y / 2^e as floats and u_{k+1} =
    F(u_k) / 2^e', so log||F^n(y)|| = d^n log||y|| + sum_k d^(n-1-k) t_k."""
    return _context(F, None).steps(y0, y1, n_steps)


def _padic_steps(F: HomogeneousLift, y0: int, y1: int, p: int, n_steps: int) -> list:
    """[m_1, ..., m_n] for a coprime integer pair y: m_k is the valuation of
    F(u_(k-1)), u_0 = y and u_k = F(u_(k-1)) / p^m_k, so that
    ||F^n(y)||_p = p^-(sum_k d^(n-k) m_k).

    The steps over rigid discs are read off the context's table
    (``_PlaceContext.settle``): a start residue of reach >= n gives the
    whole list with no Horner step.  Else the orbit runs mod p^r; every
    m_k <= e = ord_p Res(F) (cofactor identity), so a valuation read off
    with r > e digits left is exact.  One Horner pass evaluates both forms.
    A unit residue ends the step with m = 0: the disc was rigid, so the new
    residue's reach is one less than the old one's and cannot end the run.
    Else both residues are divided by p while they stay divisible, and the
    new residue is looked up; a reach covering the steps left ends the run
    with the table's valuations.  r starts at the context's hint, the
    precision the lift's last completed Horner run ended at (at first
    min((n+1)e + 2, max(2e + 2, 62 // bits(p))), about a machine word).
    When e or fewer digits remain after k steps that used c, it restarts at
    min(2e + 1 + ceil(c n / k), 2r, (n+1)e + 2), which is more than r, and
    (n+1)e + 2 digits always complete: the hint is a cost, never a value.
    A count past e (both residues 0 included) raises.
    """
    ctx = _context(F, p)
    e = ctx.e
    if e == 0:  # good reduction: every m_k <= e is 0
        return [0] * n_steps
    r = _residue(y0, y1, p)
    if abs(ctx.settle(r, n_steps)[2]) >= n_steps:
        return ctx.walk(r, n_steps)
    (head_p, head_q), tail = ctx.head, ctx.tail
    full = (n_steps + 1) * e + 2  # here remaining > e before every step: no restart
    precision = min(full, ctx.hint or max(2 * e + 2, 62 // p.bit_length()))
    while True:
        remaining, modulus = precision, p**precision
        z0, z1 = y0 % modulus, y1 % modulus
        steps, read = [], 0
        while len(steps) < n_steps and remaining > e:
            a, b, yp = head_p, head_q, 1
            for c_p, c_q in tail:
                yp *= z1
                a = a * z0 + c_p * yp
                b = b * z0 + c_q * yp
            z0, z1 = a % modulus, b % modulus
            if z0 % p or z1 % p:
                steps.append(0)
                continue
            m = 1
            z0, z1 = z0 // p, z1 // p
            while m <= e and not (z0 % p or z1 % p):
                m += 1
                z0, z1 = z0 // p, z1 // p
            if m > e:  # impossible for a unit-content lift; guards precision bugs
                raise ArithmeticError("p-adic step valuation exceeded its certified bound")
            steps.append(m)
            remaining -= m
            modulus //= p**m  # z0, z1 are already below it
            left = n_steps - len(steps)
            if left:
                r = _residue(z0, z1, p)
                if abs(ctx.settle(r, left)[2]) >= left:
                    read = left
                    steps += ctx.walk(r, left)
        ctx.horner_steps += len(steps) - read
        if len(steps) == n_steps:
            ctx.hint = precision
            return steps
        ctx.restarts += 1
        precision = min(2 * e + 1 - (-(precision - remaining) * n_steps // len(steps)),
                        2 * precision, full)


# ---------------------------------------------------------------------------
# Homogeneous local height
# ---------------------------------------------------------------------------


def _arch_local_height(F: HomogeneousLift, lam, y0: int, y1: int, n_iter: int):
    d = F.d
    ctx = _context(F, None)
    log0 = log_abs_certified(lam * max(abs(y0), abs(y1)))  # log||lam y||, exact input
    acc = 0.0
    pad = log0.err
    weight = 1.0 / d
    for t in _arch_steps(F, y0, y1, n_iter):
        acc += weight * t
        pad += weight * 1e-14 * (1.0 + abs(t))
        weight /= d
    err = _up(ctx.series(n_iter)[1] + _up(pad) + 4.0 * _EPS * (abs(acc) + abs(log0.value)))
    return CertifiedValue(log0.value + acc, err)


def _padic_local_height(F: HomogeneousLift, lam, y0: int, y1: int, p: int, n_iter: int):
    ctx = _context(F, p)
    m0 = ord_fraction(lam, p)  # ||lam y||_p = p^-m0, y coprime
    if ctx.e == 0:  # every step valuation is 0: H = -m0 log p, no truncation, no orbit
        return log_rational_multiple(-m0, p)
    # H = -(m0 d^n + sum_{k=1..n} m_k d^(n-k)) / d^n log p, the numerator an
    # integer by Horner; an orbit missing the holes mod p has every m_k = 0
    dn, tail, zero = ctx.series(n_iter)
    num = 0
    if abs(ctx.settle(_residue(y0, y1, p), n_iter)[3]) < n_iter:
        d = F.d
        for m in _padic_steps(F, y0, y1, p, n_iter):
            num = num * d - m
    num -= m0 * dn
    if num == 0:
        return zero
    # num / dn is correctly rounded, as float(Fraction(num, dn)) is
    return log_float_multiple(num / dn, ctx.log_p).widen(tail)


def hom_local_height(F: HomogeneousLift, xt, v: Place, n_iter: int) -> CertifiedValue:
    """Certified local height of the pair xt = (x0, x1) != (0, 0) at the place v.

    xt may hold ints or Fractions.  It is split once into lam * y with y a
    coprime integer pair (``LocalHeights`` passes a point's canonical lift,
    which is y already, with lam = 1), and the orbit kernels run on y; lam
    enters through the homogeneity identity H(lambda * xt) = H(xt) +
    log|lambda|_v, which the result satisfies together with
    H(F(xt)) = d * H(xt), both up to the returned error radius.  At a finite
    place with good reduction of the lift the value is exact (zero
    truncation).
    """
    if n_iter < 1:
        raise InputError("n_iter must be >= 1")
    if type(xt) is _CanonicalPair:
        lam, (y0, y1) = 1, xt
    else:
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
        if w % p != 0 and _context(F, p).e == 0:
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
            xt = _CanonicalPair(x.lift())
            cv = self._local[key] = hom_local_height(self.F, xt, place, self.n_iter)
        return cv

    def resultant_term(self, v: Place) -> CertifiedValue:
        p = v.prime
        if p not in self._res:
            c = self.F.d * (self.F.d - 1)
            self._res[p] = (
                -log_abs_certified(self.F.resultant).div_int(c) if p is None
                else log_rational_multiple(Fraction(_context(self.F, p).e, c), p)
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
        e0 = m.numerator.bit_length() - m.denominator.bit_length()  # m / 2^e0 in [1/2, 2)
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
    e = _context(F, p).e
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
    for m in _padic_steps(F, y0, y1, p, n_steps):
        new_big_m = d * big_m + m
        if big_m - new_big_m < k_min:
            return False
        big_m = new_big_m
    return True
