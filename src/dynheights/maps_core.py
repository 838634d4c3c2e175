"""Exact representations of rational self-maps of P^1 over Q.

A degree-d rational map f is carried by a homogeneous lift F = (P, Q):
two degree-d integer binary forms with nonzero Sylvester resultant.
Points of P^1(Q) are coprime sign-canonical integer pairs.  Conjugation
acts through invertible 2x2 integer matrices.  All operations are pure
functions of immutable values.

Conventions fixed here and used by every other module:

* ``BinaryForm.coeffs[i]`` is the coefficient of x^i y^(d-i).
* Every ``HomogeneousLift`` is the canonical lift of its map: construction
  divides both forms by their signed content, so the coefficient gcd is 1
  and the first nonzero entry of the descending vector (a_d, ..., a_0,
  b_d, ..., b_0) is positive.  Two lifts are equal exactly when they
  define the same map.
* ``sylvester_resultant`` is the determinant of the 2d x 2d Sylvester
  matrix of the dehomogenized forms, zero leading coefficients kept, so
  e.g. Res(x^2, y^2) = 1 and Res(c*P, Q) = c^d Res(P, Q).  It takes raw
  ``BinaryForm``s, so it also gives Res of forms that are not canonical.
* ``conjugate(F, phi)`` is the canonical lift of phi o f o phi^{-1};
  computed over the integers as M o F o adj(M), with M the matrix of phi
  (adj(M) is the same projective map as M^{-1}).  Its resultant follows
  from Res(F) by the transformation law, so a conjugate costs no
  determinant.
* A ``HomogeneousLift`` is the per-map context: its resultant, its factored
  resultant and the cofactor bound A' are computed once, on first use, and
  cached on the (immutable) lift, as is each place's context (built by
  ``local_heights`` on first use there, never when a map is parsed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import bareiss_det, content, is_prime, prime_factors_abs
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
        """Exact value at a pair of ints or Fractions: an int at an int pair."""
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
    """Invertible 2x2 integer matrix acting on P^1 by [x:y] -> [ax+by : cx+dy].

    A nonzero multiple of the matrix is the same map; the entries are kept
    as given, not divided by their content.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not all(isinstance(e, int) for e in (self.a, self.b, self.c, self.d)):
            raise InputError("Moebius matrix entries must be integers")
        if self.det == 0:
            raise InputError("Moebius matrix must be invertible")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, u, v) -> "Mobius":
        return cls(u, 0, 0, v)

    def rows(self) -> tuple:
        return ((self.a, self.b), (self.c, self.d))

    def inverse(self) -> "Mobius":
        """The adjugate, det times the inverse matrix: the inverse map."""
        return Mobius(self.d, -self.b, -self.c, self.a)

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
        return ProjPoint(self.a * x.x0 + self.b * x.x1, self.c * x.x0 + self.d * x.x1)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


# ---------------------------------------------------------------------------
# Homogeneous lifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousLift:
    """The canonical lift (P, Q) of a degree-d rational map, Res(P, Q) != 0.

    Construction divides both forms by the signed content of the lift, as
    ``ProjPoint`` does for points: the coefficients have gcd 1 and the first
    nonzero entry of ``coefficient_vector()`` is positive.  Res(F), the
    local heights and everything built on them are then functions of the
    map, and two lifts are equal exactly when they define the same map.
    """

    P: BinaryForm
    Q: BinaryForm

    def __post_init__(self):
        if self.P.degree != self.Q.degree:
            raise InputError(
                f"degree mismatch: deg P = {self.P.degree}, deg Q = {self.Q.degree}"
            )
        if self.P.degree < 2:
            raise InputError("rational-map lifts need degree >= 2")
        if self.P.is_zero or self.Q.is_zero:
            raise DegenerateMapError("zero form in a lift")
        g = _canonical_scale(self.coefficient_vector())
        if g != 1:
            object.__setattr__(self, "P", BinaryForm(tuple(c // g for c in self.P.coeffs)))
            object.__setattr__(self, "Q", BinaryForm(tuple(c // g for c in self.Q.coeffs)))
            vars(self).pop("resultant", None)  # a given Res was that of the unscaled forms
        if self.resultant == 0:
            raise DegenerateMapError("Res(P, Q) = 0: the forms share a root")

    @property
    def d(self) -> int:
        return self.P.degree

    @cached_property
    def resultant(self) -> int:
        return sylvester_resultant(self.P, self.Q)

    @cached_property
    def resultant_factorization(self) -> dict:
        """{p: ord_p Res}, factored once; code at one given prime uses ord_int."""
        return prime_factors_abs(self.resultant)

    @cached_property
    def resultant_primes(self) -> tuple:
        """Sorted primes dividing Res: the only places where the lift can
        reduce badly, or a coprime point have a nonzero local height."""
        return tuple(sorted(self.resultant_factorization))

    @cached_property
    def place_contexts(self) -> dict:
        """{p: context}, p = None for infinity: what ``local_heights`` needs at
        each place met so far, built there on first use and kept with the lift."""
        return {}

    @cached_property
    def places(self) -> tuple:
        """The archimedean place, then the primes of Res ascending: the
        places where a coprime point can have a nonzero local height."""
        return (Place.archimedean(), *map(Place.finite, self.resultant_primes))

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
    def from_coeffs(cls, p_asc, q_asc) -> "HomogeneousLift":
        """The canonical lift of the forms with these ascending coefficient lists."""
        return cls(BinaryForm(tuple(p_asc)), BinaryForm(tuple(q_asc)))

    @classmethod
    def _with_resultant(cls, P: BinaryForm, Q: BinaryForm, resultant: int) -> "HomogeneousLift":
        """The lift (P, Q) when Res(P, Q) is already known: every check of the
        constructor runs, but the resultant is not recomputed."""
        lift = cls.__new__(cls)
        vars(lift)["resultant"] = resultant
        lift.__init__(P, Q)
        return lift

    def __getstate__(self) -> dict:  # place contexts hold compiled code: rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "place_contexts"}

    def coefficient_vector(self) -> tuple:
        """(a_d, ..., a_0, b_d, ..., b_0): the 2d+2 coordinates of the lift."""
        return self.P.descending() + self.Q.descending()

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


def apply_map(F: HomogeneousLift, x: ProjPoint) -> ProjPoint:
    """Canonical representative of f(x); defined everywhere since Res != 0."""
    return ProjPoint(F.P.evaluate(x.x0, x.x1), F.Q.evaluate(x.x0, x.x1))


def _canonical_scale(vec) -> int:
    """The signed content g of a coefficient vector: vec / g has content 1 and
    a positive first nonzero entry."""
    g = content(vec)
    return -g if next(c for c in vec if c != 0) < 0 else g


def _conjugate_forms(F: HomogeneousLift, m: tuple) -> tuple:
    """Ascending integer forms (g0, g1) = M o F o adj(M) for M = ((a, b), (c, d)) over Z.

    adj(M) = det(M) * M^{-1}, so this is det(M)^d times the lift through
    M^{-1} and defines phi o f o phi^{-1}; Res(g0, g1) = det(M)^(d^2+d) Res(F).
    The powers of u = dx - by and v = -cx + ay are built once, by the
    Pascal recurrence, and P(u, v), Q(u, v) are accumulated in one pass.
    """
    (a, b), (c, d) = m
    n = F.d
    upow, vpow = [[1]], [[1]]  # ascending in x
    for _ in range(n):
        u, v = upow[-1], vpow[-1]
        upow.append([d * lo - b * hi for lo, hi in zip([0] + u, u + [0])])
        vpow.append([a * hi - c * lo for lo, hi in zip([0] + v, v + [0])])
    Pw, Qw = [0] * (n + 1), [0] * (n + 1)
    for i, (pi, qi) in enumerate(zip(F.P.coeffs, F.Q.coeffs)):
        if pi == 0 and qi == 0:
            continue
        v = vpow[n - i]
        for k1, u1 in enumerate(upow[i]):
            if u1 == 0:
                continue
            for k, v2 in enumerate(v, k1):
                t = u1 * v2
                Pw[k] += pi * t
                Qw[k] += qi * t
    g0 = [a * p + b * q for p, q in zip(Pw, Qw)]
    g1 = [c * p + d * q for p, q in zip(Pw, Qw)]
    return g0, g1


def conjugate(F: HomogeneousLift, phi: Mobius) -> HomogeneousLift:
    """The canonical lift of phi o f o phi^{-1}.

    All arithmetic is over Z, on the integer matrix M of phi.  The content is
    divided out here, so each form is built once.  The resultant is not
    recomputed: Res(M o F) = det(M)^d Res(F) and Res(F o A) = det(A)^(d^2)
    Res(F), so the raw conjugate M o F o adj(M) has Res = det(M)^(d^2+d)
    Res(F), and dividing both forms by their signed content g gives

        Res(conjugate(F, phi)) = det(M)^(d^2+d) Res(F) / g^(2d),

    an exact division.  Both exponents are even, so the sign is that of
    Res(F).
    """
    g0, g1 = _conjugate_forms(F, phi.rows())
    g = _canonical_scale(g0[::-1] + g1[::-1])
    d = F.d
    return HomogeneousLift._with_resultant(
        BinaryForm(tuple(c // g for c in g0)),
        BinaryForm(tuple(c // g for c in g1)),
        phi.det ** (d * d + d) * F.resultant // g ** (2 * d),
    )


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


def milnor_invariants(F: HomogeneousLift) -> MilnorInvariants:
    """Exact (sigma1, sigma2, sigma3) of a quadratic map, no root extraction.

    The map is first conjugated by z -> 1/(z - s), for the smallest
    non-fixed integer s >= 0 (there are at most d + 1 fixed points), so that
    infinity is not fixed in the chart f = p/q; the sigma_i are conjugation
    invariants, so this does not affect the result.  The fixed points are
    then the d + 1 roots of phi = p - z q, and at each of them p = z q gives
    f' = (p'q - pq')/q^2 = 1 + phi'/q.  Hence

        Res_z(phi, (w - 1) q - phi') = c * prod_i (w - lambda_i),

    with c = lc(phi)^2 * prod_i q(z_i) != 0 (q has no common root with p).
    phi has z-degree 3 (q_2 != 0 as infinity is not fixed) and the z^2
    coefficient of the second form is q_2 (w + 2), so at w = 0, 1, 2, 3 the
    resultant is a 5 x 5 Sylvester determinant; forward differences give
    6 (m_0 w^3 + ... + m_3) exactly, and sigma_k = (-1)^k m_k / m_0.
    """
    if F.d != 2:
        raise UnsupportedDegreeError("Milnor coordinates are defined for degree 2 only")
    s = next(s for s in range(F.d + 2) if F.P.evaluate(s, 1) != s * F.Q.evaluate(s, 1))
    chart = conjugate(F, Mobius(0, 1, 1, -s))
    p, q = chart.P.coeffs, chart.Q.coeffs
    a = [-q[2], p[2] - q[1], p[1] - q[0], p[0]]  # phi = p - z q, descending in z
    r = []
    for w in range(4):
        b = [(w - 1) * q[k] - (k + 1) * a[2 - k] for k in (2, 1, 0)]  # (w - 1) q - phi'
        rows = [a + [0], [0] + a] + [[0] * i + b + [0] * (2 - i) for i in range(3)]
        r.append(bareiss_det(rows))
    d1, d2, d3 = r[1] - r[0], r[2] - 2 * r[1] + r[0], r[3] - 3 * r[2] + 3 * r[1] - r[0]
    m = [d3, 3 * d2 - 3 * d3, 6 * d1 - 3 * d2 + 2 * d3, 6 * r[0]]
    sigma1 = Fraction(-m[1], m[0])
    sigma2 = Fraction(m[2], m[0])
    sigma3 = Fraction(-m[3], m[0])
    den = sigma1.denominator
    den = den * sigma2.denominator // math.gcd(den, sigma2.denominator)
    coords = (int(sigma1 * den), int(sigma2 * den), den)
    g = math.gcd(math.gcd(abs(coords[0]), abs(coords[1])), coords[2])
    height = log_abs_certified(max(abs(c) for c in coords) // g)
    return MilnorInvariants(sigma1, sigma2, sigma3, height)
