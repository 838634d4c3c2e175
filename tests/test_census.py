import math
import random

import mpmath
import pytest

import dynheights.census as census
import dynheights.local_heights as lh
from dynheights import telemetry
from dynheights import (
    CertifiedValue,
    DuplicatePointsError,
    InputError,
    Mobius,
    Place,
    ProjPoint,
    canonical_height,
    comparison_scatter,
    conjugate,
    energy_sum,
    enumerate_points,
    height_gap_probe,
    orbit,
    preperiodic_height_bound,
    preperiodic_points,
    small_height_census,
)

from conftest import lift, random_lift
from oracles import energy_by_formula, hhat_limit, verify_cycle


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def test_orbit_examples(monomial, z2_minus_1):
    rec = orbit(monomial, ProjPoint(-1, 1))
    assert (rec.status, rec.tail_length, rec.cycle_length) == ("preperiodic", 1, 1)
    rec = orbit(z2_minus_1, ProjPoint(0, 1))
    assert (rec.status, rec.tail_length, rec.cycle_length) == ("preperiodic", 0, 2)
    rec = orbit(monomial, ProjPoint(2, 1))
    assert rec.status == "escaped"


def test_orbit_undecided_on_tiny_budget(z2_minus_1):
    rec = orbit(z2_minus_1, ProjPoint(2, 1), budget=1)
    assert rec.status == "undecided"


def test_verify_cycle(monomial, z2_minus_1):
    assert verify_cycle(monomial, orbit(monomial, ProjPoint(-1, 1)))
    assert verify_cycle(z2_minus_1, orbit(z2_minus_1, ProjPoint(1, 1)))
    assert not verify_cycle(monomial, orbit(monomial, ProjPoint(2, 1)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_points_order_and_completeness():
    pts = enumerate_points(math.log(2))
    assert pts[:4] == [ProjPoint(-1, 1), ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1)]
    assert len(pts) == len(set(pts))  # canonical and duplicate-free
    assert all(max(abs(p.x0), p.x1) <= 2 for p in pts)
    count_h2 = sum(1 for p in pts if max(abs(p.x0), p.x1) == 2)
    assert count_h2 == 4  # [-2:1], [-1:2], [1:2], [2:1]
    assert enumerate_points(-1.0) == []


def test_search_boxes_above_the_radius_cap_are_refused():
    # the test on the bound agrees with _box_radius on both sides of the cap,
    # and preperiodic_points applies it after clipping to the proven bound
    cap = census._BOX_RADIUS_CAP
    edge = math.log(cap + 1)
    assert census._box_radius(edge) == cap + 1
    assert census._box_radius(math.nextafter(edge, 0)) == cap
    F = lift([1, 0, -1], [0, 0, 1])  # z^2 - 1: no preperiodic point above height 1.1
    assert len(preperiodic_points(F, 1e300)) == 4
    big = lift([596070, 0, 0, -1], [-11, 36, 17, -35])  # proven bound about 32.6
    for call in (
        lambda: small_height_census(F, 1.0, edge),
        lambda: height_gap_probe(F, 1e300),
        lambda: preperiodic_points(big, 1e300),
    ):
        with pytest.raises(ArithmeticError, match=f"exceeds the cap {cap}"):
            call()


def test_library_calls_outside_counting_count_nothing(z2_plus_half):
    telemetry.count("descent_steps")  # no sink: nothing is kept
    outside = small_height_census(z2_plus_half, 1.0, 1.4).to_json_dict()
    assert telemetry._sink is None
    with telemetry.counting() as counts:
        inside = small_height_census(z2_plus_half, 1.0, 1.4).to_json_dict()
    assert telemetry._sink is None
    assert inside == outside
    assert counts["descent_steps"] == 1 and counts["arch_family"] > 0
    with telemetry.counting() as counts:
        pass
    assert counts == {}


# ---------------------------------------------------------------------------
# Preperiodic enumeration
# ---------------------------------------------------------------------------


def test_preperiodic_monomial(monomial):
    pts = preperiodic_points(monomial, math.log(5))
    assert set(pts) == {ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)}


def test_preperiodic_z2m1(z2_minus_1):
    # the golden-ratio fixed points are irrational; only the 2-cycle and its
    # tail plus infinity are rational
    pts = preperiodic_points(z2_minus_1, math.log(5))
    assert set(pts) == {ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)}


def test_preperiodic_conjugated_monomial(three_z2, monomial):
    # 3z^2 = phi^{-1} (z^2) phi for phi = diag(3,1): preperiodic points are
    # the images of {0, 1, -1, inf} under z -> z/3
    pts = preperiodic_points(three_z2, math.log(5))
    assert set(pts) == {ProjPoint(0, 1), ProjPoint(1, 3), ProjPoint(-1, 3), ProjPoint(1, 0)}


def test_preperiodic_monomial_census_stable_for_any_bound(monomial):
    for bound in (0.0, math.log(5), math.log(40)):
        assert len(preperiodic_points(monomial, bound)) == 4


def test_preperiodic_equivariance_under_unimodular_conjugation():
    rng = random.Random(31)
    F = lift([1, 0, -1], [0, 0, 1])
    for phi in (Mobius(1, 1, 0, 1), Mobius(0, 1, 1, 0), Mobius(1, 0, 1, 1)):
        G = conjugate(F, phi)
        for x in preperiodic_points(F, math.log(8)):
            assert orbit(G, phi.apply(x)).status == "preperiodic"
        for y in preperiodic_points(G, math.log(8)):
            assert orbit(F, phi.inverse().apply(y)).status == "preperiodic"


def test_every_enumerated_preperiodic_point_reverifies(z2_plus_half):
    bound = preperiodic_height_bound(z2_plus_half)
    for x in preperiodic_points(z2_plus_half, min(bound, math.log(12))):
        rec = orbit(z2_plus_half, x)
        assert rec.status == "preperiodic" and verify_cycle(z2_plus_half, rec)


def test_preperiodic_points_have_tiny_height(z2_minus_1):
    for x in preperiodic_points(z2_minus_1, math.log(10)):
        hb = canonical_height(z2_minus_1, x)
        assert hb.total.value <= hb.total.err


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


def test_census_monomial_counts_preperiodic(monomial):
    rep = small_height_census(monomial, 0.5, math.log(5))
    assert rep.count >= 4
    assert rep.s == 1
    assert rep.preperiodic_count == 4
    assert rep.complete_global  # log 5 > gap constant of the monomial map
    assert rep.comparison_row == (0.0, rep.comparison_row[1])
    assert rep.threshold_moduli is not None  # d = 2 gets the second threshold


def test_census_zero_threshold_is_preperiodic_set(z2_minus_1):
    rep = small_height_census(z2_minus_1, 0.0, math.log(5))
    counted = {r.point for r in rep.rows}
    assert counted == {ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)}
    assert all(r.borderline for r in rep.rows)  # hhat = 0 cannot be certified < 0


def test_census_recount_against_limit_oracle(z2_plus_half):
    rep = small_height_census(z2_plus_half, 0.1, math.log(10))
    gap = preperiodic_height_bound(z2_plus_half)
    recount = 0
    for x in enumerate_points(math.log(10)):
        oracle = hhat_limit(z2_plus_half, x, 13)
        if oracle <= rep.threshold + gap / 2**13 + 1e-9:
            recount += 1
    assert rep.count == recount


def test_census_cubic_has_no_moduli_threshold():
    F = lift([1, 0, 0, -1], [0, 0, 0, 1])  # z^3 - 1
    rep = small_height_census(F, 0.2, math.log(3))
    assert rep.d == 3
    assert rep.threshold_moduli is None and rep.comparison_row is None
    assert rep.searched == len(enumerate_points(math.log(3)))


def test_census_computes_each_local_height_once(z2_plus_half, monkeypatch):
    keys = []
    inner = lh.hom_local_height

    def counting(F, xt, v, n_iter):
        keys.append((tuple(xt), v))
        return inner(F, xt, v, n_iter)

    monkeypatch.setattr(lh, "hom_local_height", counting)
    rep = small_height_census(z2_plus_half, 30, 2.0)
    assert rep.energy is not None and rep.energy.n_points >= 2
    assert len(keys) == len(set(keys))


def _count_calls(monkeypatch, module, name):
    """Wrap module.name; return the list of keyword arguments of its calls."""
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_census_reaches_the_public_height_and_energy_entries(monkeypatch):
    heights = _count_calls(monkeypatch, census, "canonical_height")
    energies = _count_calls(monkeypatch, census, "energy_sum")
    F = lift([6, 0, 1], [0, 0, 6])  # z^2 + 1/6: 72 counted points, a full table
    rep = small_height_census(F, 30, 2.0)
    assert (rep.searched, rep.count, rep.energy.n_points) == (72, 72, 60)
    assert len(energies) == 1
    # one call per scanned point, then one per table point inside energy_sum
    assert len(heights) == rep.searched + rep.energy.n_points
    memos = {id(kw["heights"]) for kw in heights + energies}
    assert len(memos) == 1 and energies[0]["heights"] is not None


# ---------------------------------------------------------------------------
# Gap probe
# ---------------------------------------------------------------------------


def test_gap_probe_monomial(monomial):
    probe = height_gap_probe(monomial, math.log(3))
    assert probe.min_certified == pytest.approx(math.log(2), abs=1e-8)
    assert probe.hhat.value == pytest.approx(math.log(2), abs=1e-10)
    assert probe.non_preperiodic > 0


def test_gap_probe_z2m1_positive(z2_minus_1):
    probe = height_gap_probe(z2_minus_1, math.log(3))
    assert probe.min_certified > 0


def test_gap_probe_reads_one_memo_per_map(z2_minus_1, monkeypatch):
    heights = _count_calls(monkeypatch, census, "canonical_height")
    probe = height_gap_probe(z2_minus_1, math.log(3))
    assert len(heights) == probe.non_preperiodic
    assert len({id(kw["heights"]) for kw in heights}) == 1
    assert heights[0]["heights"] is not None


def test_gap_probe_empty_box(monomial):
    with pytest.raises(InputError):
        height_gap_probe(monomial, -1.0)


# ---------------------------------------------------------------------------
# Energy sums
# ---------------------------------------------------------------------------


def test_energy_two_points_all_places(monomial):
    rep = energy_sum(monomial, [ProjPoint(2, 1), ProjPoint(3, 1)], "all")
    assert rep.ordered.value == pytest.approx(2 * math.log(6), abs=1e-9)
    assert rep.unordered.value == pytest.approx(math.log(6), abs=1e-9)
    assert rep.identity_residual <= rep.identity_budget


def test_energy_preperiodic_triple_is_zero(monomial):
    rep = energy_sum(monomial, [ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 1)], "all")
    assert abs(rep.ordered.value) <= rep.ordered.err + 1e-12


def test_energy_identity_on_random_points(z2_minus_1):
    rng = random.Random(8)
    pts = []
    while len(pts) < 5:
        x = ProjPoint(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        if x not in pts:
            pts.append(x)
    inf_rep = energy_sum(z2_minus_1, pts, __import__("dynheights").Place.archimedean())
    assert math.isfinite(inf_rep.ordered.value)
    rep = energy_sum(z2_minus_1, pts, "all")
    assert rep.identity_residual <= rep.identity_budget + 1e-12


def test_energy_rejects_duplicates_and_singletons(monomial):
    with pytest.raises(DuplicatePointsError):
        energy_sum(monomial, [ProjPoint(2, 1), ProjPoint(4, 2)], "all")
    with pytest.raises(InputError):
        energy_sum(monomial, [ProjPoint(2, 1)], "all")


def _within(new, oracle):
    """The two certified values overlap: |new - oracle| <= new.err + oracle.err."""
    return abs(new.value - oracle.value) <= new.err + oracle.err


def _oracle_panel():
    """(F, pts, p, q) on 30 seeded maps, d = 2-4: [0:1]^[p:1] = -p shares a
    Res prime, [0:1]^[q:1] = -q is a wedge prime of good reduction."""
    rng = random.Random(14)
    panel = []
    while len(panel) < 30:
        F = random_lift(rng, 2 + len(panel) % 3, coeff_bound=6)
        if not F.resultant_primes:
            continue
        p = F.resultant_primes[0]
        q = next(r for r in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if F.resultant % r)
        pts = [ProjPoint(0, 1), ProjPoint(p, 1), ProjPoint(q, 1)]
        while len(pts) < 7:
            x = ProjPoint(rng.randint(-6, 6), rng.randint(0, 6) or 1)
            if x not in pts:
                pts.append(x)
        panel.append((F, pts, p, q))
    return panel


def test_energy_table_matches_per_pair_oracle():
    # the closed form regroups the oracle's float additions: the two agree
    # within their radii, and the closed form's radius is no wider
    for F, pts, p, q in _oracle_panel():
        for v in ("all", Place.archimedean(), Place.finite(p), Place.finite(q)):
            new = energy_sum(F, pts, v, n_iter=12).unordered
            oracle = energy_by_formula(F, pts, v, 12)
            assert _within(new, oracle), (F, v)
            assert new.err <= (1 + 1e-6) * oracle.err, (F, v)


def test_energy_per_place_entries_match_the_oracle():
    for F, pts, _, _ in _oracle_panel():
        rep = energy_sum(F, pts, "all", n_iter=12)
        labels = [label for label, _ in rep.per_place]
        assert labels == ["inf", *map(str, F.resultant_primes), "good_places"]
        per_place = dict(rep.per_place)
        for v in F.places:
            oracle = energy_by_formula(F, pts, v, 12).scale(2.0)
            assert _within(per_place[str(v)], oracle), (F, v)
        good = per_place["good_places"]
        assert good.value >= -good.err
        assert _within(good, energy_by_formula(F, pts, "good", 12).scale(2.0)), F
        total = CertifiedValue.exact_zero()
        for _, cv in rep.per_place:
            total = total + cv
        assert _within(total, rep.ordered)
        assert rep.identity_residual <= rep.identity_budget
        assert rep.to_json_dict()["per_place"] == [
            [label, cv.to_json_dict()] for label, cv in rep.per_place
        ]


def test_energy_single_good_place_is_an_exact_zero():
    # Res = -4725 = -3^3 5^2 7 and W = -2: 11 divides neither
    F = lift([9, 5, -7], [6, -5, -8])
    pts = [ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(2, 1), ProjPoint(1, 0)]
    rep = energy_sum(F, pts, Place.finite(11))
    assert rep.unordered == CertifiedValue.exact_zero()
    assert rep.ordered == CertifiedValue.exact_zero()
    assert "per_place" not in rep.to_json_dict()


def test_energy_sixty_large_points_against_the_oracle():
    # coordinates up to 10^30: W is a product of 1,770 wedges of about 60
    # digits; the good-place sum is checked against 60-digit logs of each
    # wedge with the Res primes divided out, not by factoring the wedges
    rng = random.Random(60)
    F = random_lift(rng, 2, coeff_bound=9)
    while len(F.resultant_primes) < 2:
        F = random_lift(rng, 2, coeff_bound=9)
    pts = []
    while len(pts) < 60:
        x = ProjPoint(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
        if x not in pts:
            pts.append(x)
    rep = energy_sum(F, pts, "all", n_iter=12)
    per_place = dict(rep.per_place)
    for v in F.places:
        assert _within(per_place[str(v)], energy_by_formula(F, pts, v, 12).scale(2.0)), v
    with mpmath.workdps(60):
        good = mpmath.mpf(0)
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                w = abs(x.wedge(y))
                for p in F.resultant_primes:
                    while w % p == 0:
                        w //= p
                good += mpmath.log(w)
        expected = float(2 * good)
    assert abs(per_place["good_places"].value - expected) <= per_place["good_places"].err
    assert rep.identity_residual <= rep.identity_budget


def test_full_energy_table_factors_only_the_resultant(monkeypatch):
    import dynheights.arith as arith
    import dynheights.maps_core as maps_core

    calls = []
    inner = arith.prime_factors_abs

    def counting(n):
        calls.append(n)
        return inner(n)

    for module in (arith, maps_core):
        monkeypatch.setattr(module, "prime_factors_abs", counting)
    F = lift([6, 0, 1], [0, 0, 6])  # z^2 + 1/6: 72 counted points, a full table
    rep = small_height_census(F, 30, 2.0)
    assert rep.energy.n_points == 60
    assert len(calls) <= 1


# ---------------------------------------------------------------------------
# Comparison scatter
# ---------------------------------------------------------------------------


def test_comparison_scatter_monomial(monomial):
    table = comparison_scatter([monomial])
    row = table.rows[0]
    assert (row.sigma1, row.sigma2) == ("2", "0")
    assert row.hres_finite == 0.0
    assert not row.flagged


def test_comparison_scatter_z2m1(z2_minus_1):
    table = comparison_scatter([z2_minus_1])
    assert table.rows[0].hres_finite == 0.0
    assert not table.any_flagged


def test_comparison_scatter_empty_and_refusals():
    table = comparison_scatter([])
    assert table.rows == () and table.fitted_A_nonarch is None
    with pytest.raises(InputError):
        comparison_scatter([lift([1, 0, 0, 0], [0, 0, 0, 1])])
