import math
import random

import pytest

from dynheights import (
    DuplicatePointsError,
    InputError,
    Mobius,
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
    verify_cycle,
)

from conftest import lift
from oracles import hhat_limit


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
