"""Global canonical heights over Q by place decomposition.

For the canonical lift F of a map and the canonical coprime lift of a point,
the canonical height is the sum of the local heights over the contributing
places: the archimedean place plus the primes dividing Res(F).  Everywhere
else the local height of a coprime pair under a unit-content good-reduction
lift is exactly zero, so skipping those places is exact, not an
approximation.  The defining limit d^-n h(f^n x) is kept as an independent
test oracle only; the place decomposition carries a certified geometric
error instead of exponentially growing coefficients.

``canonical_height`` reads its local heights from a ``LocalHeights`` memo:
a caller that needs many heights of one map (the census, the gap probe, the
energy sums) passes its own through ``heights=``, so each H_v(x) is
computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .certified import CertifiedValue
from .local_heights import DEFAULT_ITERS, LocalHeights, heights_memo, step_error_constants
from .maps_core import HomogeneousLift, Place, ProjPoint

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


def weil_height(x: ProjPoint) -> float:
    """log max(|x0|, |x1|) of the canonical coprime representative."""
    return math.log(max(abs(x.x0), abs(x.x1)))


def canonical_height(
    F: HomogeneousLift,
    x: ProjPoint,
    n_iter: int = DEFAULT_ITERS,
    *,
    heights: LocalHeights | None = None,
) -> HeightBreakdown:
    """Certified canonical height of x as a sum of local heights.

    heights is a ``LocalHeights`` memo of F at n_iter, shared by several
    calls; without one, a new memo is built.  A memo of another map or
    n_iter raises ``InputError``.
    """
    heights = heights_memo(F, n_iter, heights)
    rows = [(v, heights(x, v)) for v in F.places]
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
