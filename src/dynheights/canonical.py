"""Global canonical heights over Q by place decomposition.

For a content-normalized lift F and the canonical coprime lift of a point,
the canonical height is the sum of the local heights over the contributing
places: the archimedean place plus the primes dividing Res(F).  Everywhere
else the local height of a coprime pair under a unit-content good-reduction
lift is exactly zero, so skipping those places is exact, not an
approximation.  The defining limit d^-n h(f^n x) is kept as an independent
test oracle only; the place decomposition carries a certified geometric
error instead of exponentially growing coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import prime_factors_abs
from .certified import CertifiedValue
from .errors import InputError
from .local_heights import green_pairing, hom_local_height, step_error_constants
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
    if not F.content_normalized:
        raise InputError("canonical height requires a content-normalized lift")
    return canonical_height_from_heights(
        F, x, lambda z, place: hom_local_height(F, z.lift(), place, n_iter)
    )


def canonical_height_from_heights(F: HomogeneousLift, x: ProjPoint, height) -> HeightBreakdown:
    """The place sum of ``canonical_height``, with height(x, v) = H_v(x)."""
    places = [Place.archimedean()] + [Place.finite(p) for p in F.resultant_primes]
    rows = [(v, height(x, v)) for v in places]
    total = rows[0][1]
    for _, cv in rows[1:]:
        total = total + cv
    return HeightBreakdown(point=x, total=total, per_place=tuple(rows))


def height_gap_constant(F: HomogeneousLift) -> float:
    """Explicit bound on |canonical height - Weil height| over all of P^1(Q).

    Summing the per-place step bounds: (max(|L_inf|, U_inf) + log|Res F|)
    divided by (d - 1); the finite-place contributions total log|Res F|
    because L_p = -ord_p(Res) log p.  Rounded outward.
    """
    if not F.content_normalized:
        raise InputError("height gap constant requires a content-normalized lift")
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


def pair_places(F: HomogeneousLift, x: ProjPoint, y: ProjPoint) -> list:
    """The places where g_v(x, y) can be nonzero, archimedean first.

    These are the archimedean place, the primes dividing Res(F) and the
    primes dividing the wedge of the canonical lifts; every other g_v
    vanishes exactly.
    """
    primes = set(F.resultant_primes) | set(prime_factors_abs(x.wedge(y)))
    return [Place.archimedean()] + [Place.finite(p) for p in sorted(primes)]


def pairing_identity_check(
    F: HomogeneousLift, x: ProjPoint, y: ProjPoint, n_iter: int = DEFAULT_ITERS
) -> ResidualReport:
    """Residual of: sum over places of g_v(x, y) = h(x) + h(y).

    The place sum runs over ``pair_places``; all other places vanish
    exactly.  The identity is the product formula applied to the wedge and
    resultant terms of the pairing.
    """
    if x == y:
        raise InputError("pairing identity needs distinct points")
    lhs = CertifiedValue.exact_zero()
    for v in pair_places(F, x, y):
        lhs = lhs + green_pairing(F, x, y, v, n_iter)
    hx = canonical_height(F, x, n_iter).total
    hy = canonical_height(F, y, n_iter).total
    rhs = hx + hy
    return ResidualReport(
        abs(lhs.value - rhs.value), lhs.err + rhs.err, lhs.value, rhs.value
    )
