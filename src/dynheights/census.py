"""Orbits, preperiodic enumeration, small-height censuses and energy sums.

Orbit decisions are proofs, not heuristics: a point is declared preperiodic
on an exact cycle equation, and declared escaped only once an iterate's
Weil height exceeds the computed bound on the height of any preperiodic
point (every iterate of a preperiodic point is preperiodic, so one large
iterate rules the starting point out).  "undecided" can only mean the
iteration budget ran out.

The preperiodic listing, the census and the gap probe read one scan of the
search box: each point's orbit record, in enumeration order.  The listing
clips its box to the preperiodic height bound, above which nothing is
preperiodic.  The census and the gap probe pass one ``LocalHeights`` memo
per map to ``canonical_height`` (and the census to ``energy_sum``), so each
local height H_v(x) is computed once, shared by the rows' canonical heights
and the energy table.

The energy table is one closed-form sum per place, as Baker's argument
splits it: at infinity and at each prime of Res, the wedges enter through
their exact product W, and each point's local height once, with weight
N - 1; every other prime contributes exactly ord_p(W) log p, so together
they are one certified log of W with the Res primes divided out, which is
>= 0.  No wedge is factored, and the total still meets the product formula
2 (N - 1) sum of hhat.

The census and gap probe report observational data: the uniform constants
they would be compared against are not effective, so counts are emitted
next to their s log s context rather than checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .arith import ord_fraction, ord_int, prime_factors_abs
from .canonical import canonical_height, height_gap_constant, weil_height
from .certified import CertifiedValue, log_abs_certified, log_rational_multiple
from .errors import DuplicatePointsError, InputError
from .formats import map_hash
from .local_heights import DEFAULT_ITERS, LocalHeights, heights_memo
from .maps_core import (
    HomogeneousLift,
    Place,
    ProjPoint,
    apply_map,
    milnor_invariants,
)
from .reduction import ResultantHeight, h_res

_ENERGY_TABLE_CAP = 60
_ORBIT_BUDGET_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit classification of a starting point.

    preperiodic: f^(tail+cycle)(start) = f^tail(start) exactly.
    escaped: some iterate's Weil height exceeded height_bound (recorded in
    escape_step), which certifies non-preperiodicity when height_bound
    dominates the preperiodic height bound of the map.
    undecided: iteration budget exhausted.
    """

    start: ProjPoint
    status: str  # "preperiodic" | "escaped" | "undecided"
    tail_length: int = 0
    cycle_length: int = 0
    escape_step: int = 0
    budget: int = 0
    height_bound: float = 0.0

    def to_json_dict(self) -> dict:
        out = {"start": str(self.start), "status": self.status}
        if self.status == "preperiodic":
            out["tail"] = self.tail_length
            out["cycle"] = self.cycle_length
        elif self.status == "escaped":
            out["escape_step"] = self.escape_step
            out["height_bound"] = self.height_bound
        else:
            out["budget"] = self.budget
        return out


def preperiodic_height_bound(F: HomogeneousLift) -> float:
    """Weil height that no preperiodic point of f can exceed (plus safety margin)."""
    return height_gap_constant(F) + 1e-9


def orbit(
    F: HomogeneousLift,
    x: ProjPoint,
    budget: int = 10_000,
    height_bound: float | None = None,
) -> OrbitRecord:
    """Iterate exactly with cycle detection on canonical representatives.

    height_bound defaults to the map's preperiodic height bound; passing a
    smaller bound voids the escape certificate (escapes then only mean "left
    the window").
    """
    if budget < 1:
        raise InputError("orbit budget must be >= 1")
    if height_bound is None:
        height_bound = preperiodic_height_bound(F)
    seen = {x: 0}
    y = x
    for k in range(1, budget + 1):
        y = apply_map(F, y)
        if weil_height(y) > height_bound:
            return OrbitRecord(
                x, "escaped", escape_step=k, budget=budget, height_bound=height_bound
            )
        j = seen.get(y)
        if j is not None:
            return OrbitRecord(
                x,
                "preperiodic",
                tail_length=j,
                cycle_length=k - j,
                budget=budget,
                height_bound=height_bound,
            )
        seen[y] = k
    return OrbitRecord(x, "undecided", budget=budget, height_bound=height_bound)


# ---------------------------------------------------------------------------
# Point enumeration
# ---------------------------------------------------------------------------


def _box_radius(height_bound: float) -> int:
    """Largest integer N with log N <= height_bound (0 if bound < 0)."""
    if height_bound < 0:
        return 0
    n = max(1, int(math.exp(height_bound)))
    while math.log(n + 1) <= height_bound:
        n += 1
    while n > 1 and math.log(n) > height_bound:
        n -= 1
    return n


def enumerate_points(height_bound: float) -> list:
    """All canonical points with Weil height <= bound, by max coordinate then lex.

    Only canonical representatives are generated (x1 > 0, or [1:0]), so the
    listing is duplicate-free by construction.
    """
    n = _box_radius(height_bound)
    points = []
    for m in range(1, n + 1):
        for x0 in range(-m, m + 1):
            for x1 in range(0, m + 1):
                if max(abs(x0), x1) == m and (x1 > 0 or x0 == 1) and math.gcd(x0, x1) == 1:
                    points.append(ProjPoint(x0, x1))
    return points


def _orbit_budget(height_bound: float) -> int:
    """Budget large enough that orbits below the bound must close up."""
    if height_bound > math.log(_ORBIT_BUDGET_CAP):  # the box alone has more points
        return _ORBIT_BUDGET_CAP
    n = _box_radius(height_bound)
    states = (2 * n + 1) * (n + 1) + 2
    return min(states + 2, _ORBIT_BUDGET_CAP)


def _scan(F: HomogeneousLift, search_bound: float) -> list:
    """(x, orbit record) for every point of the search box, in enumeration order.

    Every orbit runs against the map's preperiodic height bound, so each
    "escaped" record certifies that its point is not preperiodic.
    """
    bound = preperiodic_height_bound(F)
    budget = _orbit_budget(bound)
    return [
        (x, orbit(F, x, budget=budget, height_bound=bound))
        for x in enumerate_points(search_bound)
    ]


def preperiodic_points(F: HomogeneousLift, search_bound: float) -> list:
    """All preperiodic points of f with Weil height <= search_bound.

    Complete for the searched box; globally complete exactly when
    search_bound >= preperiodic_height_bound(F).  No preperiodic point lies
    above that bound, so the scan stops there.
    """
    bound = min(search_bound, preperiodic_height_bound(F))
    return [x for x, rec in _scan(F, bound) if rec.status == "preperiodic"]


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    point: ProjPoint
    weil: float
    hhat: CertifiedValue
    preperiodic: bool
    tail: int
    cycle: int
    borderline: bool

    def to_json_dict(self) -> dict:
        return {
            "point": str(self.point),
            "weil_h": self.weil,
            "hhat": self.hhat.value,
            "hhat_err": self.hhat.err,
            "preperiodic": self.preperiodic,
            "tail": self.tail,
            "cycle": self.cycle,
            "borderline": self.borderline,
        }


@dataclass(frozen=True)
class EnergyReport:
    """Pairwise Green energy of a point set, both pair conventions.

    For the place "all", per_place splits the ordered sum by place: infinity
    and each prime of Res (in ``resultant_primes`` order), then
    "good_places", the sum over every other prime, which is >= 0.
    """

    place: str
    n_points: int
    ordered: CertifiedValue
    unordered: CertifiedValue
    n_log_n: float
    identity_expected: float | None = None
    identity_residual: float | None = None
    identity_budget: float | None = None
    per_place: tuple = ()  # (("inf" | p | "good_places", ordered sum), ...) for "all"
    terms: int = 0  # per-place sums formed; a work counter, not output

    def to_json_dict(self) -> dict:
        out = {
            "place": self.place,
            "n_points": self.n_points,
            "ordered_sum": self.ordered.to_json_dict(),
            "unordered_sum": self.unordered.to_json_dict(),
            "n_log_n": self.n_log_n,
        }
        if self.identity_expected is not None:
            out["identity_expected_ordered"] = self.identity_expected
            out["identity_residual"] = self.identity_residual
            out["identity_budget"] = self.identity_budget
        if self.per_place:
            out["per_place"] = [[label, cv.to_json_dict()] for label, cv in self.per_place]
        return out


@dataclass(frozen=True)
class CensusReport:
    map_hash: str
    d: int
    s: int
    resultant_height: ResultantHeight
    t_fraction: float
    threshold: float
    threshold_moduli: float | None
    search_bound: float
    searched: int
    count: int
    s_log_s: float
    rows: tuple
    energy: EnergyReport | None
    comparison_row: tuple | None  # (h_res finite part, moduli height) at d = 2
    complete_global: bool
    preperiodic_count: int
    warnings: tuple = ()

    def stats(self) -> dict:
        """Work counters of the h_res family and the energy table, for the run
        manifest only."""
        n, terms = (self.energy.n_points, self.energy.terms) if self.energy else (0, 0)
        rh = self.resultant_height
        return {
            "arch_family": rh.arch_family,
            "arch_conjugated": rh.arch_conjugated,
            "energy_pairs": n * (n - 1) // 2,
            "energy_terms": terms,
        }

    def to_json_dict(self) -> dict:
        return {
            "map_hash": self.map_hash,
            "d": self.d,
            "s": self.s,
            "h_res": self.resultant_height.to_json_dict(),
            "t_fraction": self.t_fraction,
            "threshold": self.threshold,
            "threshold_moduli": self.threshold_moduli,
            "search_bound": self.search_bound,
            "searched": self.searched,
            "count": self.count,
            "s_log_s": self.s_log_s,
            "points": [r.to_json_dict() for r in self.rows],
            "energy": self.energy.to_json_dict() if self.energy else None,
            "comparison_row": list(self.comparison_row) if self.comparison_row else None,
            "complete_global": self.complete_global,
            "preperiodic_count": self.preperiodic_count,
            "observational": True,
            "warnings": list(self.warnings),
        }


def small_height_census(
    F: HomogeneousLift,
    t_fraction: float,
    search_bound: float,
    n_iter: int = DEFAULT_ITERS,
) -> CensusReport:
    """Count searched points with certified canonical height <= threshold.

    threshold = t_fraction * h_res(f) / s; at d = 2 a second threshold from
    the Milnor moduli height is reported alongside.  A point is counted when
    its height cannot be certified above the threshold, and flagged
    borderline when it also cannot be certified below.  Observational: the
    uniform comparison constants are not effective.  Each local height is
    computed once per call and shared by the rows and the energy table.
    """
    rh = h_res(F)
    s = len(rh.finite_terms) + 1
    threshold = t_fraction * rh.total / s
    threshold_moduli = None
    comparison_row = None
    if F.d == 2:
        inv = milnor_invariants(F)
        threshold_moduli = t_fraction * inv.moduli_height.value / s
        comparison_row = (rh.finite_part, inv.moduli_height.value)
    scan = _scan(F, search_bound)
    height = LocalHeights(F, n_iter)
    warnings = [f"orbit budget exhausted at {x}" for x, r in scan if r.status == "undecided"]
    rows = []
    for x, rec in scan:
        hhat = canonical_height(F, x, n_iter, heights=height).total
        if hhat.value <= threshold + hhat.err:
            rows.append(
                CensusRow(
                    point=x,
                    weil=weil_height(x),
                    hhat=hhat,
                    preperiodic=rec.status == "preperiodic",
                    tail=rec.tail_length,
                    cycle=rec.cycle_length,
                    borderline=hhat.value + hhat.err > threshold,
                )
            )
    energy = None
    if len(rows) >= 2:
        pts = [r.point for r in rows]
        if len(pts) > _ENERGY_TABLE_CAP:
            warnings.append(
                f"energy table truncated to the first {_ENERGY_TABLE_CAP} counted points"
            )
            pts = pts[:_ENERGY_TABLE_CAP]
        energy = energy_sum(F, pts, "all", n_iter, heights=height)
    return CensusReport(
        map_hash=map_hash(F),
        d=F.d,
        s=s,
        resultant_height=rh,
        t_fraction=t_fraction,
        threshold=threshold,
        threshold_moduli=threshold_moduli,
        search_bound=search_bound,
        searched=len(scan),
        count=len(rows),
        s_log_s=s * math.log(s) if s > 1 else 0.0,
        rows=tuple(rows),
        energy=energy,
        comparison_row=comparison_row,
        complete_global=search_bound >= preperiodic_height_bound(F),
        preperiodic_count=sum(rec.status == "preperiodic" for _, rec in scan),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Height gap probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapProbe:
    """Smallest certified positive canonical height among searched points."""

    min_certified: float
    witness: ProjPoint
    hhat: CertifiedValue
    searched: int
    non_preperiodic: int
    context_bound: float

    def to_json_dict(self) -> dict:
        return {
            "min_certified": self.min_certified,
            "witness": str(self.witness),
            "hhat": self.hhat.to_json_dict(),
            "searched": self.searched,
            "non_preperiodic": self.non_preperiodic,
            "context_bound": self.context_bound,
            "observational": True,
        }


def height_gap_probe(
    F: HomogeneousLift, search_bound: float, n_iter: int = DEFAULT_ITERS
) -> GapProbe:
    """min over searched non-preperiodic points of (hhat - err), with witness.

    Context only: the reported bound h_res / d^(s log s) uses ineffective
    constants and is not checked.
    """
    scan = _scan(F, search_bound)
    if not scan:
        raise InputError("empty search box")
    height = LocalHeights(F, n_iter)
    candidates = [
        (x, canonical_height(F, x, n_iter, heights=height).total)
        for x, r in scan
        if r.status != "preperiodic"
    ]
    if not candidates:
        raise InputError("no non-preperiodic point in the search box")
    witness, hhat = min(candidates, key=lambda c: c[1].value - c[1].err)
    rh = h_res(F)
    s = len(rh.finite_terms) + 1
    slogs = s * math.log(s) if s > 1 else 0.0
    context = rh.total / (F.d ** max(slogs, 1.0))
    return GapProbe(
        min_certified=hhat.value - hhat.err,
        witness=witness,
        hhat=hhat,
        searched=len(scan),
        non_preperiodic=len(candidates),
        context_bound=context,
    )


# ---------------------------------------------------------------------------
# Energy sums
# ---------------------------------------------------------------------------


def _place_energy(pts, W: int, v: Place, height) -> CertifiedValue:
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


def energy_sum(
    F: HomogeneousLift,
    points,
    v,
    n_iter: int = DEFAULT_ITERS,
    *,
    heights: LocalHeights | None = None,
) -> EnergyReport:
    """Pairwise Green energy of distinct points at a place, or over all places.

    ordered = sum over i != j, unordered = sum over i < j (the pairing is
    symmetric, so ordered = 2 * unordered).  Each sum is one closed form per
    place (``_place_energy``); with v = "all" the primes outside Res enter
    together, as one certified log.  The "all" total is split by place in
    ``per_place`` and compared against 2 (N-1) * sum of canonical heights,
    which it must match within the accumulated error.  heights is a
    ``LocalHeights`` memo of F at n_iter, as for ``canonical_height``.
    """
    pts = list(points)
    if len(pts) < 2:
        raise InputError("energy sums need at least two points")
    if len(set(pts)) != len(pts):
        raise DuplicatePointsError("energy sum points must be pairwise distinct")
    height = heights_memo(F, n_iter, heights)
    n = len(pts)
    # the wedge product over i < j: nonzero, as the points are distinct
    W = math.prod(x.wedge(y) for i, x in enumerate(pts) for y in pts[i + 1 :])
    if v != "all":
        unordered = _place_energy(pts, W, v, height)
        return EnergyReport(
            place=str(v),
            n_points=n,
            ordered=unordered.scale(2.0),
            unordered=unordered,
            n_log_n=n * math.log(n),
            terms=1,
        )
    good = abs(W)
    for p in F.resultant_primes:
        good //= p ** ord_int(good, p)
    per_place = tuple(
        (str(place), _place_energy(pts, W, place, height)) for place in F.places
    ) + (("good_places", log_abs_certified(good)),)
    unordered = reduce(add, [cv for _, cv in per_place])
    ordered = unordered.scale(2.0)
    total_h = reduce(add, [canonical_height(F, x, n_iter, heights=height).total for x in pts])
    expected = 2.0 * (n - 1) * total_h.value
    return EnergyReport(
        place="all",
        n_points=n,
        ordered=ordered,
        unordered=unordered,
        n_log_n=n * math.log(n),
        identity_expected=expected,
        identity_residual=abs(ordered.value - expected),
        identity_budget=ordered.err + 2.0 * (n - 1) * total_h.err,
        per_place=tuple((label, cv.scale(2.0)) for label, cv in per_place),
        terms=len(per_place),
    )


# ---------------------------------------------------------------------------
# d = 2 comparison scatter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    map_hash: str
    sigma1: str
    sigma2: str
    moduli_height: float
    hres_finite: float
    hres_total: float
    local: tuple  # ((place str, -log|res|_v, log+ |moduli|_v), ...)
    flagged: bool

    def to_json_dict(self) -> dict:
        return {
            "map_hash": self.map_hash,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "moduli_height": self.moduli_height,
            "hres_finite": self.hres_finite,
            "hres_total": self.hres_total,
            "local": [list(row) for row in self.local],
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple
    fitted_A_nonarch: float | None
    fitted_B_arch: float | None
    any_flagged: bool

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "fitted_A_nonarch": self.fitted_A_nonarch,
            "fitted_B_arch": self.fitted_B_arch,
            "any_flagged": self.any_flagged,
            "observational": True,
        }


def _logplus_moduli(sigma1: Fraction, sigma2: Fraction, v: Place) -> float:
    if v.is_archimedean:
        m = max(Fraction(1), abs(sigma1), abs(sigma2))
        try:
            return math.log(float(m))
        except OverflowError:  # the exact ratio is beyond the float range
            return math.log(m.numerator) - math.log(m.denominator)
    p = v.prime
    worst = 0
    for s in (sigma1, sigma2):
        if s != 0:
            worst = max(worst, -min(0, ord_fraction(s, p)))
    return worst * math.log(p)


def comparison_scatter(maps) -> ComparisonTable:
    """Affine-domination scatter for quadratic maps: -log|res| vs moduli size.

    Emits, per map and per relevant place, the pair (-log|res(f)|_v,
    log+ |moduli point|_v).  On finite data a row-wise dominating (A, B)
    always exists unless some finite place has -log|res| = 0 with a large
    moduli coordinate; such rows are flagged.  Sanity scatter only.
    """
    rows = []
    ratios = []
    arch_gaps = []
    any_flag = False
    for F in maps:
        if F.d != 2:
            raise InputError("comparison scatter is defined for quadratic maps only")
        inv = milnor_invariants(F)
        rh = h_res(F)
        bad = dict(rh.finite_terms)
        primes = set(F.resultant_primes)
        for s in (inv.sigma1, inv.sigma2):
            primes |= set(prime_factors_abs(s.denominator))
        local = []
        flagged = False
        for p in sorted(primes):
            minus_log = bad.get(p, 0) * math.log(p)
            logplus = _logplus_moduli(inv.sigma1, inv.sigma2, Place.finite(p))
            local.append((str(p), minus_log, logplus))
            if minus_log == 0.0 and logplus > 0.0:
                flagged = True
            elif minus_log > 0.0:
                ratios.append(logplus / minus_log)
        arch_logplus = _logplus_moduli(inv.sigma1, inv.sigma2, Place.archimedean())
        local.append(("inf", rh.arch_term, arch_logplus))
        arch_gaps.append((rh.arch_term, arch_logplus))
        any_flag = any_flag or flagged
        rows.append(
            ComparisonRow(
                map_hash=map_hash(F),
                sigma1=str(inv.sigma1),
                sigma2=str(inv.sigma2),
                moduli_height=inv.moduli_height.value,
                hres_finite=rh.finite_part,
                hres_total=rh.total,
                local=tuple(local),
                flagged=flagged,
            )
        )
    fitted_a = max(ratios) if ratios else (0.0 if rows else None)
    fitted_b = None
    if rows:
        a = fitted_a or 0.0
        fitted_b = max(max(0.0, lp - a * ml) for (ml, lp) in arch_gaps)
    return ComparisonTable(
        rows=tuple(rows),
        fitted_A_nonarch=fitted_a,
        fitted_B_arch=fitted_b,
        any_flagged=any_flag,
    )
