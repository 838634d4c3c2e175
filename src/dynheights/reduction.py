"""Bad reduction, per-prime minimal resultants, and the resultant height.

The p-adic size of a rational map is measured by ord_p of the resultant of
its content-normalized lift.  For a conjugator phi, the quantity
ord_p |res at phi| = ord_p Res(phi f phi^-1) is unchanged by replacing phi
with u phi for any p-adically unimodular u (Gauss's lemma on the forms,
unit determinant on Res), so it is a function on the left-coset tree
GL_2(Z_(p)) \\ GL_2(Q) of PGL_2(Q_p).  The p+1 neighbors of the vertex of
phi are reached by left-composing phi with z -> (z+j)/p (j = 0..p-1) and
z -> pz, the homothety-scaled inverses of the elementary moves z -> pz+j
and z -> z/p that generate the walk.  ord_p Res is a convex function on
the tree, so greedy neighbor descent terminates at the vertex minimum; an
exhaustive small-radius ball search over the same generators serves as an
independent oracle.

Each vertex is identified by the canonical Hermite form of its coset over
the localization Z_(p), which makes deduplication and loop detection exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, ord_fraction
from .errors import InputError, OracleRadiusError
from .maps_core import HomogeneousLift, Mobius, Place, conjugate, normalized_resultant_abs

#: descent gives up after 4*ord_start + 4 moves (defensive: each move strictly
#: decreases a nonnegative integer, so the cap is never reached in practice)
_DESCENT_CAP_SLOPE = 4
_DESCENT_CAP_OFFSET = 4

_ORACLE_MAX_RADIUS = 6


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinResCertificate:
    """Per-prime record of the minimal resultant search.

    ``conjugator`` achieves ``ord_min``: recomputing ord_p of the resultant
    of the content-normalized conjugated lift reproduces it exactly.
    ``method`` records which search produced the certificate; conjugators
    range over all invertible rational matrices (the elementary moves have
    determinant p, so this is the GL_2 convention).
    """

    p: int
    ord_start: int
    ord_min: int
    conjugator: Mobius
    method: str = "descent"
    capped: bool = False
    warning: str | None = None

    def verify(self, F: HomogeneousLift) -> bool:
        """Recompute ord_p Res through the conjugator; must equal ord_min."""
        return ord_res_at(F.normalized(), self.p, self.conjugator) == self.ord_min

    def to_json_dict(self) -> dict:
        rows = [[str(e) for e in row] for row in self.conjugator.rows()]
        out = {
            "p": self.p,
            "ord_start": self.ord_start,
            "ord_min": self.ord_min,
            "conjugator": rows,
            "method": self.method,
        }
        if self.capped:
            out["warning"] = self.warning or "descent cap reached; minimality not certified"
        return out


@dataclass(frozen=True)
class BadReductionReport:
    """Places of bad reduction of f, archimedean place always included."""

    bad_primes: tuple  # ((p, ord_min), ...) with ord_min > 0
    includes_archimedean: bool
    s: int
    certificates: tuple = ()
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "bad_primes": [[p, o] for (p, o) in self.bad_primes],
            "includes_archimedean": self.includes_archimedean,
            "s": self.s,
            "certificates": [c.to_json_dict() for c in self.certificates],
            "warnings": list(self.warnings),
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
    warnings: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "finite_terms": [[p, o] for (p, o) in self.finite_terms],
            "finite_part": self.finite_part,
            "arch_term": self.arch_term,
            "arch_upper_bound_only": self.arch_upper_bound_only,
            "total": self.total,
            "total_finite_only": self.finite_part,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# Tree vertices
# ---------------------------------------------------------------------------


def elementary_moves(p: int) -> list:
    """The generating moves z -> pz+j and z -> z/p, in a fixed order."""
    moves = [Mobius(1, 0, 0, p)]
    moves.extend(Mobius(p, j, 0, 1) for j in range(p))
    return moves


def neighbor_moves(p: int) -> list:
    """Left-composition moves realizing the p+1 tree neighbors of any vertex.

    These are the adjugates (homothety-scaled inverses) of the elementary
    moves: z -> pz and z -> (z+j)/p for j = 0..p-1.  Left-composing the
    current conjugator with them reaches exactly the p+1 adjacent lattice
    classes, whichever vertex the walk is at.
    """
    moves = [Mobius(p, 0, 0, 1)]
    moves.extend(Mobius(1, j, 0, p) for j in range(p))
    return moves


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
    mod p^n Z_(p); the key is (n, r).
    """
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
    """ord_p of 1/|res at the vertex|: ord_p Res of the normalized conjugate."""
    if not F.content_normalized:
        raise InputError("ord_res_at expects a content-normalized lift")
    G = conjugate(F, phi)
    frac = normalized_resultant_abs(G, Place.finite(p))
    return -ord_fraction(frac, p)


# ---------------------------------------------------------------------------
# Descent and oracle
# ---------------------------------------------------------------------------


def minimal_resultant_ord(F: HomogeneousLift, p: int) -> MinResCertificate:
    """Greedy neighbor descent for the vertex minimum of ord_p Res.

    From the current conjugator, evaluates all p+1 neighbors and moves to
    the strictly best one (ties broken by the lexicographic order of the
    resulting matrix entries); stops when no neighbor improves.  Since every
    move strictly decreases a nonnegative integer, at most ord_start moves
    can occur; the 4*ord_start + 4 cap is defensive and, if ever reached,
    the certificate is flagged rather than silently claimed minimal.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    F = F.normalized()
    phi = Mobius.identity()
    current = ord_res_at(F, p, phi)
    ord_start = current
    moves = neighbor_moves(p)
    cap = _DESCENT_CAP_SLOPE * ord_start + _DESCENT_CAP_OFFSET
    steps = 0
    capped = False
    while current > 0:
        if steps >= cap:
            capped = True
            break
        best = None
        for mv in moves:
            cand = mv.compose(phi)
            o = ord_res_at(F, p, cand)
            key = (o,) + tuple((cand.a, cand.b, cand.c, cand.d))
            if best is None or key < best[0]:
                best = (key, cand, o)
        if best is None or best[2] >= current:
            break
        phi, current = best[1], best[2]
        steps += 1
    return MinResCertificate(
        p=p,
        ord_start=ord_start,
        ord_min=current,
        conjugator=phi,
        method="descent",
        capped=capped,
        warning="descent cap reached; minimality not certified" if capped else None,
    )


def _oracle_vertices(F: HomogeneousLift, p: int, radius: int):
    """All tree vertices reachable by <= radius neighbor moves or inverses."""
    moves = neighbor_moves(p)
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
    F = F.normalized()
    vertices = _oracle_vertices(F, p, radius)
    return min(ord_res_at(F, p, phi) for phi in vertices.values())


def bad_places(F: HomogeneousLift) -> BadReductionReport:
    """All places of bad reduction of f.

    Only primes dividing Res of the content-normalized lift can be bad
    (elsewhere ord_p Res is already 0); each candidate is settled by the
    minimal-resultant descent.  The archimedean place counts as bad by
    convention, so s >= 1 always.
    """
    F = F.normalized()
    certs = []
    warnings = []
    bad = []
    for p in F.resultant_primes:
        cert = minimal_resultant_ord(F, p)
        certs.append(cert)
        if cert.capped:
            warnings.append(f"p={p}: {cert.warning}")
        if cert.ord_min > 0:
            bad.append((p, cert.ord_min))
    return BadReductionReport(
        bad_primes=tuple(bad),
        includes_archimedean=True,
        s=len(bad) + 1,
        certificates=tuple(certs),
        warnings=tuple(warnings),
    )


def _arch_conjugator_family(F: HomogeneousLift, radius: int = 2) -> list:
    """Finite conjugator family used to probe sup |Res|_inf (documented, not exhaustive).

    Products of <= radius elementary moves (and inverses) at 2, 3 and the
    primes dividing Res(F), together with unit shears and the coordinate
    swap.  Deduplicated by matrix entries; size-capped for cost.
    """
    primes = sorted({2, 3} | set(F.resultant_primes))
    gens = [
        Mobius(1, 1, 0, 1),
        Mobius(1, -1, 0, 1),
        Mobius(1, 0, 1, 1),
        Mobius(1, 0, -1, 1),
        Mobius(0, 1, 1, 0),
    ]
    for q in primes:
        moves = elementary_moves(q)
        gens.extend(moves)
        gens.extend(m.inverse() for m in moves)
    family = {}
    frontier = [Mobius.identity()]
    family[(Fraction(1), Fraction(0), Fraction(0), Fraction(1))] = frontier[0]
    for _ in range(radius):
        new_frontier = []
        for phi in frontier:
            for g in gens:
                cand = phi.compose(g)
                key = (cand.a, cand.b, cand.c, cand.d)
                if key not in family:
                    family[key] = cand
                    new_frontier.append(cand)
                if len(family) >= 600:
                    return list(family.values())
        frontier = new_frontier
    return list(family.values())


def h_res(F: HomogeneousLift, arch_radius: int = 2) -> ResultantHeight:
    """Nonnegative resultant height: sum_v log^+(1/|res(f)|_v).

    Finite part: ord_min(p) * log p over the bad primes, exact integers.
    Archimedean part: log^+(1/best-found |res|_inf) over a finite conjugator
    family; flagged upper-bound-only since the true sup is over SL_2(R).
    """
    F = F.normalized()
    report = bad_places(F)
    finite_part = 0.0
    for p, o in report.bad_primes:
        finite_part += o * math.log(p)
    best = 0.0
    for phi in _arch_conjugator_family(F, radius=arch_radius):
        val = normalized_resultant_abs(conjugate(F, phi), Place.archimedean()).value
        if val > best:
            best = val
    arch_term = max(0.0, -math.log(best))
    return ResultantHeight(
        finite_terms=report.bad_primes,
        finite_part=finite_part,
        arch_term=arch_term,
        arch_upper_bound_only=True,
        total=finite_part + arch_term,
        warnings=report.warnings,
    )
