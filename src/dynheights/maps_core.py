"""Exact representations of rational self-maps of P^1 over Q.

A degree-d rational map f is carried by a homogeneous lift F = (P, Q):
two degree-d integer binary forms with nonzero Sylvester resultant.
Points of P^1(Q) are coprime sign-canonical integer pairs.  Conjugation
acts through invertible 2x2 rational matrices.  All operations are pure
functions of immutable values.

Conventions fixed here and used by every other module:

* ``BinaryForm.coeffs[i]`` is the coefficient of x^i y^(d-i).
* The canonical lift has coefficient gcd 1 and positive first nonzero
  entry of the descending vector (a_d, ..., a_0, b_d, ..., b_0).
* ``sylvester_resultant`` is the determinant of the 2d x 2d Sylvester
  matrix of the dehomogenized forms, zero leading coefficients kept, so
  e.g. Res(x^2, y^2) = 1 and Res(c*P, Q) = c^d Res(P, Q).
* ``conjugate(F, phi)`` is a lift of phi o f o phi^{-1}; computed over
  the integers as M o F o adj(M), with M the matrix of phi scaled to
  integer entries (same projective map as with M^{-1}), then
  content-normalized.
* A content-normalized ``HomogeneousLift`` is the per-map context: its
  resultant, the primes dividing it and the cofactor bound A' are computed
  once, on first use, and cached on the (immutable) lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import abs_p, bareiss_det, content, det_fraction, is_prime, prime_factors_abs
from .certified import CertifiedValue, log_abs_certified
from .errors import (
    DegenerateMapError,
    InputError,
    UnsupportedDegreeError,
)

# ---------------------------------------------------------------------------
# Places of Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean (prime=None) or a finite prime p.

    The local multiplicity N_v is 1 for every place of Q.
    """

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise InputError(f"{self.prime} is not prime")

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @property
    def multiplicity(self) -> int:
        return 1

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(int(p))

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


# ---------------------------------------------------------------------------
# Binary forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Integer binary form of degree len(coeffs)-1; coeffs[i] <-> x^i y^(d-i)."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise InputError("a binary form needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def descending(self) -> tuple:
        """Coefficients ordered from x^d down to y^d (wire and matrix order)."""
        return self.coeffs[::-1]

    def evaluate(self, x, y):
        """Exact value at a rational pair."""
        d = self.degree
        acc = Fraction(0)
        xp = Fraction(1)
        ypowers = [Fraction(1)]
        for _ in range(d):
            ypowers.append(ypowers[-1] * y)
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * xp * ypowers[d - i]
            xp *= x
        return acc

    def evaluate_int(self, x: int, y: int) -> int:
        """Integer evaluation on an integer pair (fast path for orbits)."""
        d = self.degree
        acc = 0
        xp = 1
        ypow = [1]
        for _ in range(d):
            ypow.append(ypow[-1] * y)
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * xp * ypow[d - i]
            xp *= x
        return acc

    def max_abs_coeff(self) -> int:
        return max(abs(c) for c in self.coeffs)


# ---------------------------------------------------------------------------
# Projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^1(Q) as its canonical coprime integer pair.

    Canonical form: gcd(x0, x1) = 1 and x1 > 0, or x1 = 0 and x0 = 1.
    The coprime normalization makes ||(x0, x1)||_p = 1 at every finite p.
    """

    x0: int
    x1: int

    def __post_init__(self):
        a, b = int(self.x0), int(self.x1)
        if a == 0 and b == 0:
            raise InputError("(0, 0) does not define a projective point")
        g = math.gcd(abs(a), abs(b))
        a //= g
        b //= g
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        object.__setattr__(self, "x0", a)
        object.__setattr__(self, "x1", b)

    def lift(self) -> tuple:
        """The canonical integer lift to A^2 \\ {0}."""
        return (self.x0, self.x1)

    def wedge(self, other: "ProjPoint") -> int:
        """x0*y1 - x1*y0 on the canonical lifts; zero iff the points coincide."""
        return self.x0 * other.x1 - self.x1 * other.x0

    def __str__(self) -> str:
        return f"[{self.x0}:{self.x1}]"


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mobius:
    """Invertible 2x2 matrix over Q acting on P^1 by [x:y] -> [ax+by : cx+dy]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.det == 0:
            raise InputError("Moebius matrix must be invertible")

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, u, v) -> "Mobius":
        return cls(u, 0, 0, v)

    @classmethod
    def from_rows(cls, rows) -> "Mobius":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def rows(self) -> tuple:
        return ((self.a, self.b), (self.c, self.d))

    def adjugate(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mobius":
        det = self.det
        return Mobius(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def compose(self, other: "Mobius") -> "Mobius":
        """Matrix product self * other (apply ``other`` first)."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, x: ProjPoint) -> ProjPoint:
        """Image of a rational point, recanonicalized."""
        u = self.a * x.x0 + self.b * x.x1
        v = self.c * x.x0 + self.d * x.x1
        den = u.denominator * v.denominator // math.gcd(u.denominator, v.denominator)
        return ProjPoint(int(u * den), int(v * den))

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


# ---------------------------------------------------------------------------
# Homogeneous lifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousLift:
    """A pair of degree-d integer binary forms (P, Q) with Res(P, Q) != 0."""

    P: BinaryForm
    Q: BinaryForm
    content_normalized: bool = False

    def __post_init__(self):
        if self.P.degree != self.Q.degree:
            raise InputError(
                f"degree mismatch: deg P = {self.P.degree}, deg Q = {self.Q.degree}"
            )
        if self.P.degree < 2:
            raise InputError("rational-map lifts need degree >= 2")
        if self.P.is_zero or self.Q.is_zero:
            raise DegenerateMapError("zero form in a lift")
        if self.resultant == 0:
            raise DegenerateMapError("Res(P, Q) = 0: the forms share a root")

    @property
    def d(self) -> int:
        return self.P.degree

    @cached_property
    def resultant(self) -> int:
        return sylvester_resultant(self.P, self.Q)

    @cached_property
    def resultant_primes(self) -> tuple:
        """Sorted primes dividing Res: the only places where a unit-content lift
        can reduce badly, or a coprime point have a nonzero local height."""
        return tuple(sorted(prime_factors_abs(self.resultant)))

    @cached_property
    def cofactor_bound(self) -> int:
        """Exact integer A' with sup_{||z||<=1} |g(z)| <= A' for all four cofactor forms.

        The l1 norm of a form's coefficients bounds its sup over the unit
        polydisc; the coefficients here are signed (2d-1)-minors of the
        Sylvester matrix.
        """
        best = 0
        for target_x in (True, False):
            u, v = sylvester_cofactor_pair(self, target_x)
            best = max(best, sum(abs(c) for c in u), sum(abs(c) for c in v))
        return max(best, 1)

    @classmethod
    def from_coeffs(cls, p_asc, q_asc, normalized: bool = True) -> "HomogeneousLift":
        """Build from ascending coefficient lists; content-normalize by default."""
        lift = cls(BinaryForm(tuple(p_asc)), BinaryForm(tuple(q_asc)))
        return lift.normalized() if normalized else lift

    def coefficient_vector(self) -> tuple:
        """(a_d, ..., a_0, b_d, ..., b_0): the 2d+2 coordinates of the lift."""
        return self.P.descending() + self.Q.descending()

    def normalized(self) -> "HomogeneousLift":
        """The canonical representative: content 1, first nonzero coordinate > 0."""
        if self.content_normalized and _canonical_scale(self.coefficient_vector()) == 1:
            return self
        return _normalized_lift(self.P.coeffs, self.Q.coeffs)

    def scaled(self, c: int) -> "HomogeneousLift":
        """The lift (c*P, c*Q); same projective map, resultant scaled by c^(2d)."""
        if c == 0:
            raise InputError("cannot scale a lift by 0")
        return HomogeneousLift(
            BinaryForm(tuple(c * x for x in self.P.coeffs)),
            BinaryForm(tuple(c * x for x in self.Q.coeffs)),
        )

    def max_abs_coeff(self) -> int:
        return max(self.P.max_abs_coeff(), self.Q.max_abs_coeff())

    def __str__(self) -> str:
        return f"(P={self.P.descending()}, Q={self.Q.descending()}, d={self.d})"


# ---------------------------------------------------------------------------
# Sylvester resultant machinery
# ---------------------------------------------------------------------------


def sylvester_matrix(P: BinaryForm, Q: BinaryForm) -> list:
    """The 2d x 2d Sylvester matrix, rows = shifts of descending coefficients."""
    if P.degree != Q.degree:
        raise InputError("Sylvester matrix needs forms of equal degree")
    d = P.degree
    pd, qd = list(P.descending()), list(Q.descending())
    rows = []
    for i in range(d):
        rows.append([0] * i + pd + [0] * (d - 1 - i))
    for i in range(d):
        rows.append([0] * i + qd + [0] * (d - 1 - i))
    return rows


def sylvester_resultant(P: BinaryForm, Q: BinaryForm) -> int:
    """Homogeneous resultant Res(P, Q) as an exact integer (Bareiss determinant)."""
    if P.degree != Q.degree:
        raise InputError("resultant needs forms of equal degree")
    if P.degree < 1:
        raise InputError("resultant needs degree >= 1")
    return bareiss_det(sylvester_matrix(P, Q))


def sylvester_cofactor_pair(F: HomogeneousLift, target_x: bool) -> tuple:
    """Integer forms (u, v) of degree d-1 with u*P + v*Q = Res(F) * x^(2d-1) (or y^(2d-1)).

    The coefficients are signed (2d-1)-minors of the Sylvester matrix
    (Cramer applied to S^T w = Res * e_k), returned as descending lists.
    """
    S = sylvester_matrix(F.P, F.Q)
    n = len(S)
    k = 0 if target_x else n - 1
    w = []
    for i in range(n):
        minor = [row[:k] + row[k + 1 :] for r, row in enumerate(S) if r != i]
        w.append((-1) ** (i + k) * bareiss_det(minor))
    d = F.d
    return w[:d], w[d:]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def normalized_resultant_abs(F: HomogeneousLift, v: Place):
    """|Res(f)|_v = |Res(F)|_v / max|coeff|_v^(2d); independent of the lift.

    Res is homogeneous of degree 2d in the 2d+2 coefficients (degree d in
    each form), so the 2d-th power of the sup norm is the normalizer that
    cancels under F -> cF.  Exact Fraction at finite places; CertifiedValue
    at the archimedean place (the ratio is an exact rational, only the float
    conversion is inexact).
    """
    vec = F.coefficient_vector()
    e = 2 * F.d
    if v.is_archimedean:
        frac = Fraction(abs(F.resultant), max(abs(c) for c in vec) ** e)
        value = frac.numerator / frac.denominator
        approx = Fraction(value)
        if approx == frac:
            return CertifiedValue.exact_float(value)
        return CertifiedValue(value, math.nextafter(abs(float(approx - frac)) * 2, math.inf))
    p = v.prime
    norm = max(abs_p(c, p) for c in vec)
    return abs_p(F.resultant, p) / norm**e


def evaluate_lift(F: HomogeneousLift, z) -> tuple:
    """(P(z), Q(z)) exactly, z a pair of rationals."""
    x, y = Fraction(z[0]), Fraction(z[1])
    return (F.P.evaluate(x, y), F.Q.evaluate(x, y))


def apply_map(F: HomogeneousLift, x: ProjPoint) -> ProjPoint:
    """Canonical representative of f(x); defined everywhere since Res != 0."""
    return ProjPoint(F.P.evaluate_int(x.x0, x.x1), F.Q.evaluate_int(x.x0, x.x1))


def _canonical_scale(vec) -> int:
    """The signed content g of a coefficient vector: vec / g has content 1 and
    a positive first nonzero entry."""
    g = content(vec)
    return -g if next(c for c in vec if c != 0) < 0 else g


def _normalized_lift(p_asc, q_asc) -> HomogeneousLift:
    """The canonical lift (content 1, first nonzero coordinate > 0) of integer forms."""
    g = _canonical_scale(tuple(p_asc[::-1]) + tuple(q_asc[::-1]))
    return HomogeneousLift(
        BinaryForm(tuple(c // g for c in p_asc)),
        BinaryForm(tuple(c // g for c in q_asc)),
        content_normalized=True,
    )


def _compose_form(coeffs_asc, alpha: int, beta: int, gamma: int, delta: int) -> list:
    """Ascending integer coefficients of C(alpha*x + beta*y, gamma*x + delta*y)."""
    d = len(coeffs_asc) - 1
    apow, bpow, gpow, dpow = ([e**k for k in range(d + 1)] for e in (alpha, beta, gamma, delta))
    out = [0] * (d + 1)
    for i, ci in enumerate(coeffs_asc):
        if ci == 0:
            continue
        # (alpha x + beta y)^i and (gamma x + delta y)^(d-i), ascending in x
        t1 = [math.comb(i, k) * apow[k] * bpow[i - k] for k in range(i + 1)]
        t2 = [math.comb(d - i, k) * gpow[k] * dpow[d - i - k] for k in range(d - i + 1)]
        for k1, v1 in enumerate(t1):
            for k2, v2 in enumerate(t2):
                out[k1 + k2] += ci * v1 * v2
    return out


def _conjugate_forms(F: HomogeneousLift, m: tuple) -> tuple:
    """Ascending integer forms (g0, g1) = M o F o adj(M) for M = ((a, b), (c, d)) over Z.

    adj(M) = det(M) * M^{-1}, so this is det(M)^d times the lift through
    M^{-1} and defines phi o f o phi^{-1}; Res(g0, g1) = det(M)^(d^2+d) Res(F).
    """
    (a, b), (c, d) = m
    Pw = _compose_form(F.P.coeffs, d, -b, -c, a)
    Qw = _compose_form(F.Q.coeffs, d, -b, -c, a)
    g0 = [a * p + b * q for p, q in zip(Pw, Qw)]
    g1 = [c * p + d * q for p, q in zip(Pw, Qw)]
    return g0, g1


def _integral_matrix(phi: Mobius) -> tuple:
    """The matrix of phi scaled by the lcm of its denominators: same map, integer entries."""
    entries = (phi.a, phi.b, phi.c, phi.d)
    den = math.lcm(*(e.denominator for e in entries))
    a, b, c, d = (e.numerator * (den // e.denominator) for e in entries)
    return ((a, b), (c, d))


def conjugate(F: HomogeneousLift, phi: Mobius) -> HomogeneousLift:
    """Content-normalized integer lift of phi o f o phi^{-1}.

    Scaling phi's matrix does not change the projective map, so the integer
    matrix of phi is used and all arithmetic is over Z.
    """
    return _normalized_lift(*_conjugate_forms(F, _integral_matrix(phi)))


# ---------------------------------------------------------------------------
# Milnor coordinates for quadratic maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MilnorInvariants:
    """Elementary symmetric functions of the three fixed-point multipliers.

    sigma3 is redundant (sigma3 = sigma1 - 2 identically on quadratic maps)
    and returned for consistency checking.  moduli_height is the Weil height
    of [sigma1 : sigma2 : 1], the standard height on the quadratic moduli
    plane A^2.
    """

    sigma1: Fraction
    sigma2: Fraction
    sigma3: Fraction
    moduli_height: CertifiedValue

    def relation_holds(self) -> bool:
        return self.sigma3 == self.sigma1 - 2


def _multiplier_resultant_values(p_asc, q_asc, nodes) -> list:
    """Res_t(p - t q, num - w q^2) at the given w nodes, formal degrees (3, 4).

    p, q are ascending Fraction coefficient lists of an affine chart in which
    infinity is not fixed (so deg(p - t q) is exactly 3).
    """
    phi = [
        p_asc[0],
        p_asc[1] - q_asc[0],
        p_asc[2] - q_asc[1],
        -q_asc[2],
    ]
    dp = [p_asc[1], 2 * p_asc[2]]
    dq = [q_asc[1], 2 * q_asc[2]]
    num = [Fraction(0)] * 5
    for i, a in enumerate(dp):
        for j, b in enumerate(q_asc):
            num[i + j] += a * b
    for i, a in enumerate(p_asc):
        for j, b in enumerate(dq):
            num[i + j] -= a * b
    q2 = [Fraction(0)] * 5
    for i, a in enumerate(q_asc):
        for j, b in enumerate(q_asc):
            q2[i + j] += a * b
    phi_desc = phi[::-1]
    values = []
    for w in nodes:
        b_desc = [num[i] - w * q2[i] for i in range(5)][::-1]
        rows = []
        for i in range(4):
            rows.append([Fraction(0)] * i + phi_desc + [Fraction(0)] * (4 - 1 - i))
        for i in range(3):
            rows.append([Fraction(0)] * i + b_desc + [Fraction(0)] * (3 - 1 - i))
        values.append(det_fraction(rows))
    return values


def milnor_invariants(F: HomogeneousLift) -> MilnorInvariants:
    """Exact (sigma1, sigma2, sigma3) of a quadratic map, no root extraction.

    The three fixed points are the roots of y*P - x*Q; their multipliers are
    values of f' = (p'q - pq')/q^2 there.  Eliminating the fixed point via a
    formal resultant in the multiplier variable w gives a cubic proportional
    to (lambda1 - w)(lambda2 - w)(lambda3 - w), whose coefficient ratios are
    the sigma_i as exact rationals.  The map is first conjugated by
    z -> 1/(z - s), for the smallest non-fixed integer s >= 0, so that
    infinity is not a fixed point of the chart; the sigma_i are conjugation
    invariants, so this does not affect the result.
    """
    if F.d != 2:
        raise UnsupportedDegreeError("Milnor coordinates are defined for degree 2 only")
    s = None
    for cand in range(5):
        ps = F.P.evaluate(Fraction(cand), Fraction(1))
        qs = F.Q.evaluate(Fraction(cand), Fraction(1))
        if ps != cand * qs:
            s = cand
            break
    if s is None:  # three fixed points at most; cannot happen
        raise InputError("could not find a non-fixed base point")
    chart = conjugate(F, Mobius(0, 1, 1, -s))
    p_asc = [Fraction(c) for c in chart.P.coeffs]
    q_asc = [Fraction(c) for c in chart.Q.coeffs]
    if q_asc[2] == 0:  # infinity fixed would mean s was fixed after all
        raise InputError("chart normalization failed")
    nodes = [Fraction(w) for w in range(4)]
    vals = _multiplier_resultant_values(p_asc, q_asc, nodes)
    # Lagrange interpolation of the cubic M(w) = m0 + m1 w + m2 w^2 + m3 w^3
    m = [Fraction(0)] * 4
    for i, yi in enumerate(vals):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(4):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, bk in enumerate(basis):
                new[k] += bk * (-j)
                new[k + 1] += bk
            basis = new
            denom *= i - j
        for k in range(4):
            m[k] += yi * basis[k] / denom
    if m[3] == 0:
        raise InputError("degenerate multiplier cubic")
    sigma1 = -m[2] / m[3]
    sigma2 = m[1] / m[3]
    sigma3 = -m[0] / m[3]
    den = sigma1.denominator
    den = den * sigma2.denominator // math.gcd(den, sigma2.denominator)
    coords = (int(sigma1 * den), int(sigma2 * den), den)
    g = math.gcd(math.gcd(abs(coords[0]), abs(coords[1])), coords[2])
    height = log_abs_certified(max(abs(c) for c in coords) // g)
    return MilnorInvariants(sigma1, sigma2, sigma3, height)
