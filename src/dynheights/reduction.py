"""Bad reduction, per-prime minimal resultants, and the resultant height.

The p-adic size of a rational map is measured by ord_p of the resultant of
its canonical (content-1) lift.  For a conjugator phi, the quantity
ord_p |res at phi| = ord_p Res(phi f phi^-1) is unchanged by replacing phi
with u phi for any p-adically unimodular u (Gauss's lemma on the forms,
unit determinant on Res), so it is a function on the left-coset tree
GL_2(Z_(p)) \\ GL_2(Q) of PGL_2(Q_p).  The p+1 neighbors of the vertex of
phi are reached by left-composing phi with z -> (z+j)/p (j = 0..p-1) and
z -> pz, the homothety-scaled inverses of the elementary moves z -> pz+j
and z -> z/p that generate the walk.  ord_p Res is a convex function on
the tree, so greedy neighbor descent terminates at the vertex minimum, after
at most ord_p Res(F) moves; an exhaustive small-radius ball search over the
same generators serves as an independent oracle.  Every conjugator is an
integer ``Mobius`` matrix: the moves are integral, and the inverse of a
move is taken as its adjugate, the same map.

No candidate costs a determinant.  For any integer matrix M the raw
conjugate M o F o adj(M) has Res = det(M)^(d^2+d) Res(F) (``conjugate``),
and the canonical lift divides it by g^(2d), g the content of the raw
forms, so

    ord_p Res(conjugate(F, M)) = ord_p Res(F) + (d^2+d) ord_p det M - 2d ord_p g,

which is how ``ord_res_at`` scores a vertex: one raw conjugate and one
content, on the cached Res(F).

The descent evaluates only the neighbors at the reduction holes of the
current conjugate G (Bruin-Molnar, "Minimal models for rational functions
in a dynamical setting", LMS J. Comput. Math. 2012; Rumely, "The minimal
resultant locus", Acta Arith. 2015), and scores each as a move from G,
not from F: conjugate(G, M) and conjugate(F, M phi) are the canonical lift
of the same map, so they have the same resultant, and the move M has
entries below p where M phi has entries near p^k.  For a neighbor move M
(det p), the law above reads ord_p Res = ord_p Res(G) + d^2 + d - 2dk,
with k the valuation of the content.  A neighbor with k <= 1 is worse
than G by at least d^2 - d, so only k >= 2 can keep or lower the value,
and k >= 2 needs

* for z -> (z+j)/p, that -j is a common root of P(x,1) and Q(x,1) mod p:
  the raw conjugate is (P' + jQ', pQ') with P', Q' = P, Q at (px-jy, y),
  which are y^d P(-j,1), y^d Q(-j,1) mod p;
* for z -> pz, that both x^d coefficients of G vanish mod p: the raw
  conjugate is (pP(x,py), Q(x,py)), which is (0, b_d x^d) mod p and has
  first entry a_d x^d mod p^2.

These holes, at most d of them, hold every neighbor that does not raise
ord_p Res, so their best, under the same tie-break, is the best of all
p + 1 neighbors.

Each vertex is identified by the canonical Hermite form of its coset over
the localization Z_(p), which makes deduplication and loop detection exact.

The archimedean term of ``h_res`` runs over a finite family of integer
matrices N.  Res(N o F o adj(N)) = det(N)^(d^2+d) Res(F), and the content
of the raw conjugate and the scale of N cancel in |Res|/max|coeff|^(2d),
so each member costs at most one raw conjugate and no resultant.  Most
members cost less: with N = [[a, b], [c, d]], the raw conjugate H has
H(x, 0) = x^d N F(d, -c) and H(0, y) = y^d N F(-b, a), so its two x^d and
two y^d coefficients are read off F at two integer points.  The largest of
those four absolute values, low, bounds max|coeff H| from below, so
|det N|^(d^2+d) / low^(2d) bounds the member's ratio from above.  A member
whose bound does not exceed the running maximum cannot replace it under
the strict comparison of the scan, and is skipped unconjugated.  Every
member that could replace the maximum is still conjugated exactly, in the
family's order, so the maximum, and the Fraction returned, are those of a
scan of every member; the identity always is, since the running maximum
starts at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .arith import content, is_prime, ord_fraction, ord_int
from .errors import InputError, OracleRadiusError
from .maps_core import (
    HomogeneousLift,
    Mobius,
    _conjugate_forms,
    conjugate,
    sylvester_resultant,
)

_ORACLE_MAX_RADIUS = 6

#: move radius and size cap of the archimedean conjugator family of ``h_res``
_ARCH_FAMILY_RADIUS = 2
_ARCH_FAMILY_CAP = 600


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinResCertificate:
    """Per-prime record of the minimal resultant search.

    ``conjugator`` achieves ``ord_min``: recomputing ord_p of the resultant
    of the conjugated (canonical) lift reproduces it exactly.
    ``method`` records which search produced the certificate.  The
    conjugator is an integer matrix, a product of elementary moves of
    determinant p (the GL_2 convention), printed as it is: its content is
    not divided out.  ``descent_steps`` and ``ord_res_evals`` count the
    moves taken and the candidates scored; they are work counters for the
    run manifest, left out of equality and of ``to_json_dict()``.
    """

    p: int
    ord_start: int
    ord_min: int
    conjugator: Mobius
    method: str = "descent"
    descent_steps: int = field(default=0, compare=False)
    ord_res_evals: int = field(default=0, compare=False)

    def verify(self, F: HomogeneousLift) -> bool:
        """Recompute ord_p Res through the conjugator, by the Sylvester
        determinant of the conjugated lift; must equal ord_min."""
        G = conjugate(F, self.conjugator)
        return ord_int(sylvester_resultant(G.P, G.Q), self.p) == self.ord_min

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "ord_start": self.ord_start,
            "ord_min": self.ord_min,
            "conjugator": [[str(e) for e in row] for row in self.conjugator.rows()],
            "method": self.method,
        }


@dataclass(frozen=True)
class BadReductionReport:
    """Places of bad reduction of f, archimedean place always included."""

    bad_primes: tuple  # ((p, ord_min), ...) with ord_min > 0
    includes_archimedean: bool
    s: int
    certificates: tuple = ()

    def stats(self) -> dict:
        """Work counters of the descents, for the run manifest only."""
        return {
            "descent_steps": sum(c.descent_steps for c in self.certificates),
            "ord_res_evals": sum(c.ord_res_evals for c in self.certificates),
        }

    def to_json_dict(self) -> dict:
        return {
            "bad_primes": [[p, o] for (p, o) in self.bad_primes],
            "includes_archimedean": self.includes_archimedean,
            "s": self.s,
            "certificates": [c.to_json_dict() for c in self.certificates],
            "warnings": [],  # every descent ends certified
        }


@dataclass(frozen=True)
class ResultantHeight:
    """h_res(f) = sum over places of log^+(1/|res(f)|_v).

    The finite part is exact (integers ord_min(p) times log p).  The
    archimedean term is a best-found value over a finite conjugator family:
    the true |res(f)|_inf is a supremum over all of SL_2(R), so the reported
    term is only an upper bound on the true archimedean contribution and is
    flagged as such.
    """

    finite_terms: tuple  # ((p, ord_min), ...)
    finite_part: float
    arch_term: float
    arch_upper_bound_only: bool
    total: float
    #: work counters of the archimedean family, for the run manifest only
    arch_family: int
    arch_conjugated: int

    def to_json_dict(self) -> dict:
        return {
            "finite_terms": [[p, o] for (p, o) in self.finite_terms],
            "finite_part": self.finite_part,
            "arch_term": self.arch_term,
            "arch_upper_bound_only": self.arch_upper_bound_only,
            "total": self.total,
            "total_finite_only": self.finite_part,
            "warnings": [],
        }


# ---------------------------------------------------------------------------
# Tree vertices
# ---------------------------------------------------------------------------


def neighbor_moves(p: int):
    """Left-composition moves realizing the p+1 tree neighbors of any vertex.

    These are the adjugates (homothety-scaled inverses) of the elementary
    moves: z -> pz and z -> (z+j)/p for j = 0..p-1.  Left-composing the
    current conjugator with them reaches exactly the p+1 adjacent lattice
    classes, whichever vertex the walk is at.  Generated one at a time, so
    a scan holds one move, not p+1.
    """
    yield Mobius(p, 0, 0, 1)
    for j in range(p):
        yield Mobius(1, j, 0, p)


def _canonical_residue(b: Fraction, p: int, n: int) -> Fraction:
    """Canonical representative of b modulo p^n Z_(p), as an exact Fraction.

    For ord(b) >= n the class is 0.  Otherwise the class is determined by
    the p-adic digits of b in positions ord(b)..n-1, computed by one modular
    inverse of the prime-to-p denominator.
    """
    if b == 0:
        return Fraction(0)
    beta = ord_fraction(b, p)
    if beta >= n:
        return Fraction(0)
    scaled = b / Fraction(p) ** beta  # ord 0
    mod = p ** (n - beta)
    num = scaled.numerator % mod
    den = scaled.denominator % mod
    digits = (num * pow(den, -1, mod)) % mod
    return digits * Fraction(p) ** beta


def _column_hermite_key(a, b, c, d, p: int) -> tuple:
    """Canonical key of the right coset m * GL_2(Z_(p)) of m = [[a,b],[c,d]].

    Column Hermite reduction over the DVR Z_(p) brings m to the unique
    shape [[p^n, r], [0, 1]] up to homothety, with r a canonical residue
    mod p^n Z_(p); the key is (n, r).  The entries are taken as Fractions,
    since the reduction divides.
    """
    a, b, c, d = map(Fraction, (a, b, c, d))
    if c != 0:
        if d == 0 or ord_fraction(c, p) < ord_fraction(d, p):
            a, b = b, a
            c, d = d, c
        t = c / d  # ord >= 0, so a unit-column operation over Z_(p)
        a, c = a - t * b, Fraction(0)
    alpha = ord_fraction(a, p)
    delta = ord_fraction(d, p)
    b = b * (Fraction(p) ** delta / d)  # scale col2 so its pivot is p^delta
    n = alpha - delta
    res = _canonical_residue(b / Fraction(p) ** delta, p, n)
    return (n, res)


def vertex_key(phi: Mobius, p: int) -> tuple:
    """Canonical key of the conjugation vertex GL_2(Z_(p)) * phi (up to scalars).

    ord_res_at is constant on these left cosets; transposing turns them into
    right cosets, where column Hermite reduction gives the canonical form.
    """
    return _column_hermite_key(phi.a, phi.c, phi.b, phi.d, p)


def ord_res_at(F: HomogeneousLift, p: int, phi: Mobius) -> int:
    """ord_p of 1/|res at the vertex|: ord_p Res of the (canonical) conjugate.

    By the transformation law (module docstring), ord_p Res(F) +
    (d^2+d) ord_p det(phi) - 2d ord_p g, g the content of the raw conjugate
    ``_conjugate_forms(F, phi)``: no lift is built and no determinant taken.
    """
    d = F.d
    g0, g1 = _conjugate_forms(F, phi.rows())
    return (
        ord_int(F.resultant, p)
        + (d * d + d) * ord_int(phi.det, p)
        - 2 * d * ord_int(content(g0 + g1), p)
    )


def _fp_trim(f, p: int) -> list:
    """f reduced mod p as a descending list without leading zeros ([] for 0)."""
    f = [c % p for c in f]
    while f and f[0] == 0:
        del f[0]
    return f


def _fp_divmod(a: list, b: list, p: int) -> tuple:
    """Quotient and remainder of a by the monic b over F_p (descending lists)."""
    a, n = list(a), len(b) - 1
    for i in range(len(a) - n):
        if a[i]:
            for j in range(1, n + 1):
                a[i + j] = (a[i + j] - a[i] * b[j]) % p
    k = max(len(a) - n, 0)
    return a[:k], _fp_trim(a[k:], p)


def _fp_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over F_p of two trimmed lists, not both zero."""
    a, b = (a, b) if b else (b, a)
    while b:
        inv = pow(b[0], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_mulmod(a: list, b: list, g: list, p: int) -> list:
    """a * b mod the monic g over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fp_divmod(out, g, p)[1]


def _fp_powmod(f: list, e: int, g: list, p: int) -> list:
    """f^e mod the monic g over F_p, by square-and-multiply."""
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _fp_mulmod(acc, acc, g, p)
        if bit == "1":
            acc = _fp_mulmod(acc, f, g, p)
    return acc


def _fp_split(h: list, p: int, a: int) -> list:
    """Roots of a monic h over F_p, p odd, whose roots are distinct and in F_p.

    gcd(h, (x + a)^((p-1)/2) - 1) holds the roots r with r + a a nonzero
    square; a runs a, a + 1, ... until that gcd is a proper factor."""
    if len(h) <= 2:
        return [-h[1] % p] if h[1:] else []
    while True:
        t = [0] + _fp_powmod([1, a % p], (p - 1) // 2, h, p)
        t[-1] -= 1
        s = _fp_gcd(h, _fp_trim(t, p), p)
        a += 1
        if 1 < len(s) < len(h):
            return _fp_split(s, p, a) + _fp_split(_fp_divmod(h, s, p)[0], p, a)


def hole_moves(G: HomogeneousLift, p: int) -> list:
    """The neighbor moves at the reduction holes of the canonical lift G.

    z -> (z+j)/p for each root -j of gcd(P(x,1), Q(x,1)) over F_p, and
    z -> pz when both x^d coefficients vanish mod p.  These are the only
    neighbors whose conjugate can have ord_p Res <= ord_p Res(G) (module
    docstring).  There are at most d of them, whatever the size of p: the
    gcd has degree <= d, and <= d - 1 when both x^d coefficients vanish.
    For p > deg >= 2 the gcd is first replaced by g / gcd(g, g'), the
    product of its distinct irreducible factors (g' != 0 as p > deg), which
    has the same roots: a hole of multiplicity m is one simple root.  A
    constant gcd then has no root and a monic linear one x + c has the root
    -c.  The roots of a gcd of degree >= 2 are those of its gcd with
    x^p - x, split by (x + a)^((p-1)/2) - 1 (Rabin 1980; Cantor-Zassenhaus
    1981); for p <= deg + 1 each residue is tried instead.
    """
    moves = []
    if G.P.coeffs[-1] % p == 0 and G.Q.coeffs[-1] % p == 0:
        moves.append(Mobius(p, 0, 0, 1))
    g = _fp_gcd(_fp_trim(G.P.descending(), p), _fp_trim(G.Q.descending(), p), p)
    n = len(g) - 1
    if 2 <= n < p:
        dg = _fp_trim([c * (n - i) for i, c in enumerate(g[:-1])], p)
        g = _fp_divmod(g, _fp_gcd(g, dg, p), p)[0]
    if len(g) <= 2:
        roots = [-g[1] % p] if len(g) == 2 else []
    elif p <= len(g):
        roots = [r for r in range(p) if not _fp_divmod(g, [1, -r % p], p)[1]]
    else:
        xp = [0, 0] + _fp_powmod([1, 0], p, g, p)
        xp[-2] -= 1
        roots = _fp_split(_fp_gcd(g, _fp_trim(xp, p), p), p, 0)
    return moves + [Mobius(1, j, 0, p) for j in sorted(-r % p for r in roots)]


# ---------------------------------------------------------------------------
# Descent and oracle
# ---------------------------------------------------------------------------


def minimal_resultant_ord(F: HomogeneousLift, p: int) -> MinResCertificate:
    """Greedy neighbor descent for the vertex minimum of ord_p Res.

    From the current conjugator phi, evaluates the neighbors at the holes of
    G = conjugate(F, phi) (``hole_moves``) and moves to the strictly best one
    (ties broken by the lexicographic order of the resulting matrix
    entries); stops when no hole improves.  Every other neighbor has
    ord_p Res >= current + d^2 - d (module docstring), so this is the move,
    and the certificate, that a scan of all p+1 neighbors would give, with
    at most d evaluations per step for any p.  A neighbor mv phi is scored
    as ``ord_res_at(G, p, mv)`` and the next G is ``conjugate(G, mv)``, the
    same canonical lift as conjugate(F, mv phi), so every conjugation is by
    a move with entries below p.  Every move strictly decreases a
    nonnegative integer, so at most ord_start moves occur and the
    certificate is always minimal.  ord_start is read from the lift's
    cached resultant, so a prime that does not divide Res costs no
    resultant and builds no neighbor, whatever its size.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    phi = Mobius.identity()
    G = F
    current = ord_int(F.resultant, p)
    ord_start = current
    steps = evals = 0
    while current > 0:
        best = None
        for mv in hole_moves(G, p):
            cand = mv.compose(phi)
            o = ord_res_at(G, p, mv)
            evals += 1
            key = (o, cand.a, cand.b, cand.c, cand.d)
            if best is None or key < best[0]:
                best = (key, mv, cand, o)
        if best is None or best[3] >= current:
            break
        _, mv, phi, current = best
        G = conjugate(G, mv)
        steps += 1
    return MinResCertificate(
        p=p, ord_start=ord_start, ord_min=current, conjugator=phi,
        descent_steps=steps, ord_res_evals=evals,
    )


def _oracle_vertices(F: HomogeneousLift, p: int, radius: int):
    """All tree vertices reachable by <= radius neighbor moves or inverses."""
    moves = list(neighbor_moves(p))
    gens = moves + [m.inverse() for m in moves]
    start = Mobius.identity()
    seen = {vertex_key(start, p): start}
    frontier = [start]
    for _ in range(radius):
        new_frontier = []
        for phi in frontier:
            for g in gens:
                cand = g.compose(phi)
                key = vertex_key(cand, p)
                if key not in seen:
                    seen[key] = cand
                    new_frontier.append(cand)
        frontier = new_frontier
    return seen


def minimal_resultant_oracle(F: HomogeneousLift, p: int, radius: int) -> int:
    """Exhaustive minimum of ord_res_at over the radius-ball of conjugators.

    Independent verifier for the descent; vertices are deduplicated by their
    lattice class before any resultant is computed.
    """
    if radius > _ORACLE_MAX_RADIUS:
        raise OracleRadiusError(
            f"oracle radius {radius} exceeds the cost guard {_ORACLE_MAX_RADIUS}"
        )
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    vertices = _oracle_vertices(F, p, radius)
    return min(ord_res_at(F, p, phi) for phi in vertices.values())


def bad_places(F: HomogeneousLift) -> BadReductionReport:
    """All places of bad reduction of f.

    Only primes dividing Res of the canonical lift can be bad (elsewhere
    ord_p Res is already 0); each candidate is settled by the
    minimal-resultant descent.  The archimedean place counts as bad by
    convention, so s >= 1 always.
    """
    certs = tuple(minimal_resultant_ord(F, p) for p in F.resultant_primes)
    bad = tuple((c.p, c.ord_min) for c in certs if c.ord_min > 0)
    return BadReductionReport(
        bad_primes=bad, includes_archimedean=True, s=len(bad) + 1, certificates=certs
    )


def _arch_generators(primes):
    """(a, b, c, d, D) for [[a, b], [c, d]] / D, D > 0, gcd 1: the unit shears
    and the coordinate swap, then prime by prime the moves z -> z/q and
    z -> qz+j (j = 0..q-1) and their inverses, one at a time."""
    yield from ((1, 1, 0, 1, 1), (1, -1, 0, 1, 1), (1, 0, 1, 1, 1), (1, 0, -1, 1, 1))
    yield (0, 1, 1, 0, 1)
    for q in primes:
        yield (1, 0, 0, q, 1)
        yield from ((q, j, 0, 1, 1) for j in range(q))
        yield (q, 0, 0, 1, q)
        yield from ((1, -j, 0, q, q) for j in range(q))


def _arch_conjugator_family(F: HomogeneousLift) -> list:
    """Finite conjugator family used to probe sup |Res|_inf (documented, not exhaustive).

    Products of <= _ARCH_FAMILY_RADIUS elementary moves (and inverses) at
    2, 3 and the primes dividing Res(F), together with unit shears and the
    coordinate swap, as reduced 5-tuples of ``_arch_generators``: N/D has
    one such form, so they deduplicate the matrices exactly.  Size-capped
    for cost.  The generators are pairwise distinct and none is the
    identity, so the first ring adds one member per generator and the cap
    is met before more than _ARCH_FAMILY_CAP of them are needed: taking
    only those keeps the work bounded when a prime of Res is large.
    The size only grows on an insertion, so the cap is tested there.
    """
    primes = sorted({2, 3} | set(F.resultant_primes))
    gens = list(islice(_arch_generators(primes), _ARCH_FAMILY_CAP))
    family = {(1, 0, 0, 1, 1): None}  # insertion-ordered set
    frontier = list(family)
    for _ in range(_ARCH_FAMILY_RADIUS):
        new_frontier = []
        for a, b, c, d, den in frontier:
            for a2, b2, c2, d2, den2 in gens:
                e0, e1 = a * a2 + b * c2, a * b2 + b * d2
                e2, e3, e4 = c * a2 + d * c2, c * b2 + d * d2, den * den2
                g = math.gcd(e0, e1, e2, e3, e4)
                if g == 1:
                    cand = (e0, e1, e2, e3, e4)
                else:
                    cand = (e0 // g, e1 // g, e2 // g, e3 // g, e4 // g)
                if cand not in family:
                    family[cand] = None
                    new_frontier.append(cand)
                    if len(family) >= _ARCH_FAMILY_CAP:
                        return list(family)
        frontier = new_frontier
    return list(family)


def _arch_scan(F: HomogeneousLift) -> tuple:
    """(ratio, family size, members conjugated): ratio is the max over the
    family of |Res G| / max|coeff G|^(2d), G = conjugate(F, phi), exactly:
    |Res F| |det N|^(d^2+d) / max|coeff H|^(2d) for the raw conjugate H of
    the member's integer matrix N (module docstring), compared by
    cross-multiplication.

    A member is conjugated only when |det N|^(d^2+d) * best_den >
    best_num * low^(2d), low the largest |x^d or y^d coefficient of H|.
    Otherwise its ratio num/den, den >= low^(2d), is at most
    best_num/best_den, and the strict update below would not take it.  So
    the members that can update the maximum are all evaluated, in order,
    and best_num, best_den and the Fraction are those of a full scan.  The
    identity comes first and is always conjugated, since best_num is 0.
    F(x, y) is evaluated once per point and call, both forms in one
    homogeneous Horner pass: members share the columns of their adjugates.
    """
    d = F.d
    e_det, e_coeff = d * d + d, 2 * d
    (head_p, *tail_p), (head_q, *tail_q) = F.P.coeffs[::-1], F.Q.coeffs[::-1]
    tail = tuple(zip(tail_p, tail_q))
    values = {}  # (x, y) -> (P(x, y), Q(x, y))

    def forms_at(x, y):
        s, t, yk = head_p, head_q, 1
        for c_p, c_q in tail:
            yk *= y
            s = s * x + c_p * yk
            t = t * x + c_q * yk
        values[x, y] = (s, t)
        return s, t

    family = _arch_conjugator_family(F)
    best_num, best_den = 0, 1
    conjugated = 0
    for a, b, c, dd, _ in family:
        num = abs(a * dd - b * c) ** e_det
        # H(1, 0) = N F(adj(N) e1) and H(0, 1) = N F(adj(N) e2): the x^d and
        # y^d coefficients of H
        p0, q0 = values.get((dd, -c)) or forms_at(dd, -c)
        p1, q1 = values.get((-b, a)) or forms_at(-b, a)
        low = max(
            abs(a * p0 + b * q0), abs(c * p0 + dd * q0), abs(a * p1 + b * q1), abs(c * p1 + dd * q1)
        )
        if num * best_den <= best_num * low**e_coeff:
            continue
        conjugated += 1
        g0, g1 = _conjugate_forms(F, ((a, b), (c, dd)))
        den = max(map(abs, g0 + g1)) ** e_coeff
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(abs(F.resultant) * best_num, best_den), len(family), conjugated


def _arch_best_ratio(F: HomogeneousLift) -> Fraction:
    """The exact archimedean ratio of ``h_res`` (``_arch_scan``)."""
    return _arch_scan(F)[0]


def h_res(F: HomogeneousLift) -> ResultantHeight:
    """Nonnegative resultant height: sum_v log^+(1/|res(f)|_v).

    Finite part: ord_min(p) * log p over the bad primes, exact integers.
    Archimedean part: log^+(1/best-found |res|_inf) over a finite conjugator
    family (exact, ``_arch_best_ratio``); flagged upper-bound-only since the
    true sup is over SL_2(R).
    """
    report = bad_places(F)
    finite_part = 0.0
    for p, o in report.bad_primes:
        finite_part += o * math.log(p)
    best, family, conjugated = _arch_scan(F)
    value = best.numerator / best.denominator
    # the float underflows to 0 only on huge coefficients; the exact log is
    # finite there, since the identity is in the family and Res != 0
    if value:
        arch_term = max(0.0, -math.log(value))
    else:
        arch_term = math.log(best.denominator) - math.log(best.numerator)
    return ResultantHeight(
        finite_terms=report.bad_primes,
        finite_part=finite_part,
        arch_term=arch_term,
        arch_upper_bound_only=True,
        total=finite_part + arch_term,
        arch_family=family,
        arch_conjugated=conjugated,
    )
