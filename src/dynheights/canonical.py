"""Global canonical heights over Q by place decomposition.

For the canonical lift F of a map and the canonical coprime lift of a point,
the canonical height is the sum of the local heights over the contributing
places: the archimedean place plus the primes dividing Res(F).  Everywhere
else the local height of a coprime pair under a unit-content good-reduction
lift is exactly zero, so skipping those places is exact, not an
approximation.  The defining limit d^-n h(f^n x) is kept as an independent
test oracle only; the place decomposition carries a certified geometric
error instead of exponentially growing coefficients.

Pairwise Green energies split the same way, one closed-form sum per place
(``place_energies``): the wedges of all pairs enter through their exact
product, and the places of good reduction through one certified log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .arith import ord_int
from .certified import CertifiedValue, log_abs_certified, log_rational_multiple
from .errors import InputError
from .local_heights import LocalHeights, step_error_constants
from .maps_core import HomogeneousLift, Place, ProjPoint, apply_map

DEFAULT_ITERS = 30


@dataclass(frozen=True)
class HeightBreakdown:
    """Canonical height of a point with its per-place decomposition.

    Only contributing places are listed; every other place contributes
    exactly 0.  total is the sum of the listed values with summed error
    radii.
    """

    point: ProjPoint
    total: CertifiedValue
    per_place: tuple  # ((Place, CertifiedValue), ...)

    def to_json_dict(self) -> dict:
        return {
            "point": str(self.point),
            "total": self.total.to_json_dict(),
            "per_place": [[str(v), cv.to_json_dict()] for (v, cv) in self.per_place],
        }


@dataclass(frozen=True)
class ResidualReport:
    """|lhs - rhs| of an identity that must hold up to the error budget."""

    residual: float
    budget: float
    lhs: float
    rhs: float

    def holds(self, slack: float = 0.0) -> bool:
        return self.residual <= self.budget + slack


def weil_height(x: ProjPoint) -> float:
    """log max(|x0|, |x1|) of the canonical coprime representative."""
    return math.log(max(abs(x.x0), abs(x.x1)))


def canonical_height(
    F: HomogeneousLift, x: ProjPoint, n_iter: int = DEFAULT_ITERS
) -> HeightBreakdown:
    """Certified canonical height of x as a sum of local heights."""
    return canonical_height_from_heights(F, x, LocalHeights(F, n_iter))


def canonical_height_from_heights(F: HomogeneousLift, x: ProjPoint, height) -> HeightBreakdown:
    """The place sum of ``canonical_height``, with height(x, v) = H_v(x)."""
    rows = [(v, height(x, v)) for v in F.places]
    total = reduce(add, [cv for _, cv in rows])
    return HeightBreakdown(point=x, total=total, per_place=tuple(rows))


def height_gap_constant(F: HomogeneousLift) -> float:
    """Explicit bound on |canonical height - Weil height| over all of P^1(Q).

    Summing the per-place step bounds: (max(|L_inf|, U_inf) + log|Res F|)
    divided by (d - 1); the finite-place contributions total log|Res F|
    because L_p = -ord_p(Res) log p.  Rounded outward.
    """
    arch = step_error_constants(F, Place.archimedean())
    gap = (arch.magnitude() + math.log(abs(F.resultant))) / (F.d - 1)
    return math.nextafter(gap * (1.0 + 1e-12), math.inf)


def functional_check(
    F: HomogeneousLift, x: ProjPoint, n_iter: int = DEFAULT_ITERS
) -> ResidualReport:
    """Residual of the functional equation: canonical height multiplies by d under f."""
    hx = canonical_height(F, x, n_iter)
    hfx = canonical_height(F, apply_map(F, x), n_iter)
    lhs = hfx.total.value
    rhs = F.d * hx.total.value
    budget = hfx.total.err + F.d * hx.total.err
    return ResidualReport(abs(lhs - rhs), budget, lhs, rhs)


def wedge_product(pts) -> int:
    """W = prod over i < j of x_i ^ x_j on the canonical lifts; nonzero
    exactly when the points are pairwise distinct."""
    return math.prod(x.wedge(y) for i, x in enumerate(pts) for y in pts[i + 1 :])


def place_energy(pts, W: int, v: Place, height) -> CertifiedValue:
    """E_v = sum over i < j of g_v(x_i, x_j) for distinct pts with wedge
    product W, in closed form:

        E_v = -log|W|_v + (N - 1) sum_i H_v(x_i) + C(N, 2) r_v,

    r_v = height.resultant_term(v).  At a prime p not dividing Res(F) the
    canonical coprime lifts have H_p = 0 and r_p = 0 exactly, so E_p is
    ord_p(W) log p and no local height is read.
    """
    if v.is_archimedean:
        wedge_term = -log_abs_certified(W)
    else:
        p = v.prime
        wedge_term = log_rational_multiple(ord_int(W, p), p)  # -log|W|_p
        if height.F.resultant % p:
            return wedge_term
    n = len(pts)
    heights = height(pts[0], v)
    for x in pts[1:]:
        heights = heights + height(x, v)
    rest = heights.mul_int(n - 1) + height.resultant_term(v).mul_int(n * (n - 1) // 2)
    return wedge_term + rest


def place_energies(F: HomogeneousLift, pts, height) -> tuple:
    """(((v, E_v) for v in F.places), E_good) for distinct pts: the energy
    sum at infinity and at each prime of Res, and the sum E_good over every
    other prime.  E_good is log|W'|, W' the wedge product with the primes of
    Res divided out: one certified log, >= 0, and no wedge is factored.  By
    the product formula the total is (N - 1) sum_i hhat(x_i).
    """
    W = wedge_product(pts)
    rows = tuple((v, place_energy(pts, W, v, height)) for v in F.places)
    good = abs(W)
    for p in F.resultant_primes:
        good //= p ** ord_int(good, p)
    return rows, log_abs_certified(good)


def pairing_identity_check(
    F: HomogeneousLift, x: ProjPoint, y: ProjPoint, n_iter: int = DEFAULT_ITERS
) -> ResidualReport:
    """Residual of: sum over places of g_v(x, y) = h(x) + h(y).

    The place sum is ``place_energies`` with N = 2: g_v at infinity and at
    each prime of Res, plus log|w'| for all other primes.  The identity is
    the product formula applied to the wedge and resultant terms of the
    pairing.  Each local height is computed once.
    """
    if x == y:
        raise InputError("pairing identity needs distinct points")
    height = LocalHeights(F, n_iter)
    rows, good = place_energies(F, [x, y], height)
    lhs = reduce(add, [cv for _, cv in rows] + [good])
    hx = canonical_height_from_heights(F, x, height).total
    hy = canonical_height_from_heights(F, y, height).total
    rhs = hx + hy
    return ResidualReport(
        abs(lhs.value - rhs.value), lhs.err + rhs.err, lhs.value, rhs.value
    )
