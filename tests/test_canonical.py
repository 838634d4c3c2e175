import hashlib
import math
import random

import pytest
from sympy import factorint, primerange

from dynheights import (
    InputError,
    Mobius,
    HomogeneousLift,
    Place,
    ProjPoint,
    apply_map,
    canonical_height,
    conjugate,
    energy_sum,
    height_gap_constant,
    weil_height,
)
from dynheights.local_heights import LocalHeights

from conftest import random_lift, random_point
from oracles import energy_by_formula, functional_check, hhat_limit

INF = Place.archimedean()


# ---------------------------------------------------------------------------
# Weil height
# ---------------------------------------------------------------------------


def test_weil_height_examples():
    assert weil_height(ProjPoint(2, 1)) == pytest.approx(math.log(2), rel=1e-15)
    assert weil_height(ProjPoint(0, 1)) == 0.0
    assert weil_height(ProjPoint(3, 2)) == pytest.approx(math.log(3), rel=1e-15)


# ---------------------------------------------------------------------------
# Canonical height
# ---------------------------------------------------------------------------


def test_canonical_monomial(monomial):
    hb = canonical_height(monomial, ProjPoint(2, 1))
    assert hb.total.value == pytest.approx(math.log(2), abs=1e-12)
    # Res = 1: only the archimedean place contributes
    assert len(hb.per_place) == 1 and hb.per_place[0][0].is_archimedean


def test_canonical_preperiodic_is_zero(monomial, z2_minus_1):
    hb = canonical_height(monomial, ProjPoint(1, 1))
    assert abs(hb.total.value) <= hb.total.err + 1e-12
    hb = canonical_height(z2_minus_1, ProjPoint(0, 1))
    assert abs(hb.total.value) <= hb.total.err + 1e-12
    # independent oracle: the defining limit tends to 0 on the 2-cycle
    assert abs(hhat_limit(z2_minus_1, ProjPoint(0, 1), 12)) <= 1e-9


def test_canonical_against_defining_limit():
    rng = random.Random(314)
    for _ in range(6):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=5)
        x = random_point(rng, 8)
        hb = canonical_height(F, x, 35)
        n = 13 if d == 2 else 9
        oracle = hhat_limit(F, x, n)
        tol = height_gap_constant(F) / d**n + hb.total.err + 1e-9
        assert abs(hb.total.value - oracle) <= tol


_PRIMES_TO_1000 = list(primerange(2, 1000))


def _res_primes_up_to_1000(res: int):
    """The distinct primes of res if they are all below 1000, else None."""
    res, primes = abs(res), []
    for p in _PRIMES_TO_1000:
        if res % p == 0:
            primes.append(p)
            while res % p == 0:
                res //= p
    return primes if res == 1 else None


def test_heights_shaped_maps_factor_and_satisfy_the_functional_equation():
    # the shape of the heights benchmark: d = 2, 3, 4, coefficients in
    # [-12, 12], exactly two or three primes of Res, all below 1000 (prime
    # powers up to about 15), points of 100/d digits and their images
    rng = random.Random(1818)
    for _ in range(40):
        for d, n_primes in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)):
            while True:
                p = [rng.randint(-12, 12) for _ in range(d + 1)]
                q = [rng.randint(-12, 12) for _ in range(d + 1)]
                if not any(p) or not any(q):
                    continue
                try:
                    F = HomogeneousLift.from_coeffs(p, q)
                except Exception:
                    continue
                primes = _res_primes_up_to_1000(F.resultant)
                if primes is not None and len(primes) == n_primes:
                    break
            assert F.resultant_factorization == factorint(abs(F.resultant))
            assert F.resultant_primes == tuple(sorted(factorint(abs(F.resultant))))
            top = 10 ** (100 // d)
            x = ProjPoint(rng.randint(-top, top), rng.randint(1, top))
            h_x = canonical_height(F, x).total
            h_fx = canonical_height(F, apply_map(F, x)).total
            slack = 8 * 2.0**-52 * (abs(h_fx.value) + d * abs(h_x.value))
            assert abs(h_fx.value - d * h_x.value) <= h_fx.err + d * h_x.err + slack, (F, x)


def test_canonical_nonnegative_sampled():
    rng = random.Random(2718)
    for _ in range(8):
        F = random_lift(rng, 2, coeff_bound=8)
        x = random_point(rng, 12)
        hb = canonical_height(F, x)
        assert hb.total.value >= -hb.total.err


def _heights_panel():
    """(map, point) pairs: for d = 2, 3, 4 one map with two Res primes and one
    with three, each with 10 seeded points of up to 100 digits and their images."""
    rng = random.Random(2026)
    panel = []
    for d in (2, 3, 4):
        for n_primes in (2, 3):
            while True:
                p = [rng.randint(-9, 9) for _ in range(d + 1)]
                q = [rng.randint(-9, 9) for _ in range(d + 1)]
                if not any(p) or not any(q):
                    continue
                try:
                    F = HomogeneousLift.from_coeffs(p, q)
                except InputError:
                    continue
                if len(F.resultant_primes) == n_primes:
                    break
            for _ in range(10):
                cap = 10 ** rng.randint(1, 100)
                x = ProjPoint(rng.randint(-cap, cap), rng.randint(1, cap))
                panel += [(F, x), (F, apply_map(F, x))]
    return panel


def test_canonical_height_bits_are_pinned():
    # every (value, err) float of the panel, to the last bit: a change of the
    # orbit kernels that moves one rounding shows here
    panel = _heights_panel()
    assert len(panel) == 120
    text = "\n".join(repr(tuple(canonical_height(F, x).total[:2])) for F, x in panel)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "6438c1f11cf070e361530252a025ba13f725487f926ace4bd758bf00c37a2c5e"


def test_total_equals_sum_of_per_place(z2_minus_1):
    hb = canonical_height(z2_minus_1, ProjPoint(7, 5))
    assert hb.total.value == pytest.approx(
        sum(cv.value for _, cv in hb.per_place), abs=1e-14
    )


# ---------------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------------


def test_functional_check_examples(monomial, z2_minus_1, three_z2):
    r = functional_check(monomial, ProjPoint(2, 1))
    assert r.lhs == pytest.approx(math.log(4), abs=1e-10)
    assert r.rhs == pytest.approx(2 * math.log(2), abs=1e-10)
    assert r.holds(1e-12)
    assert functional_check(z2_minus_1, ProjPoint(2, 1)).holds(1e-12)
    assert functional_check(three_z2, ProjPoint(1, 1)).holds(1e-12)


def test_functional_check_random():
    rng = random.Random(111)
    for _ in range(10):
        d = rng.choice([2, 3])
        F = random_lift(rng, d)
        x = random_point(rng)
        r = functional_check(F, x, 35)
        assert r.residual <= r.budget + 1e-12


# ---------------------------------------------------------------------------
# Pairing identity: energy_sum at N = 2 over all places, whose unordered sum
# is sum_v g_v(x, y) and whose ordered sum must equal 2 (h(x) + h(y))
# ---------------------------------------------------------------------------


def _holds(rep, slack=0.0):
    return rep.identity_residual <= rep.identity_budget + slack


def test_pairing_identity_monomial(monomial):
    rep = energy_sum(monomial, [ProjPoint(2, 1), ProjPoint(3, 1)], "all")
    assert rep.unordered.value == pytest.approx(math.log(6), abs=1e-10)
    assert rep.identity_expected == pytest.approx(2 * math.log(6), abs=1e-10)
    assert _holds(rep, 1e-12)
    rep = energy_sum(monomial, [ProjPoint(0, 1), ProjPoint(1, 0)], "all")
    assert abs(rep.unordered.value) <= 1e-10 and abs(rep.identity_expected) <= 1e-10


def test_pairing_identity_rejects_diagonal(monomial):
    with pytest.raises(InputError):
        energy_sum(monomial, [ProjPoint(2, 1), ProjPoint(2, 1)], "all")


def test_pairing_identity_z2m1_with_limit_oracle(z2_minus_1):
    rng = random.Random(42)
    gap = height_gap_constant(z2_minus_1)
    for _ in range(5):
        x, y = random_point(rng, 20), random_point(rng, 20)
        if x == y:
            continue
        rep = energy_sum(z2_minus_1, [x, y], "all", 35)
        assert _holds(rep, 1e-12)
        oracle = hhat_limit(z2_minus_1, x, 13) + hhat_limit(z2_minus_1, y, 13)
        assert abs(rep.unordered.value - oracle) <= 2 * gap / 2**13 + 1e-6


def test_pairing_identity_lhs_matches_the_factored_place_sum():
    # the closed form at N = 2 against the fold of g_v over infinity and the
    # primes of Res and of the wedge, found by factoring
    rng = random.Random(20)
    for _ in range(40):
        F = random_lift(rng, rng.choice([2, 3]), coeff_bound=9)
        x, y = random_point(rng, 30), random_point(rng, 30)
        if x == y:
            continue
        rep = energy_sum(F, [x, y], "all", 12)
        oracle = energy_by_formula(F, [x, y], "all", 12)
        gap = abs(rep.unordered.value - oracle.value)
        assert gap <= rep.unordered.err + oracle.err, (F, x, y)


@pytest.mark.parametrize("d", [2, 3])
def test_pairing_identity_random_maps(d):
    rng = random.Random(2024 + d)
    for _ in range(100):
        F = random_lift(rng, d)
        x, y = random_point(rng), random_point(rng)
        if x == y:
            continue
        assert _holds(energy_sum(F, [x, y], "all", 35), 1e-12)


def test_height_memo_must_match_the_map_and_n_iter(monomial, z2_minus_1):
    x, y = ProjPoint(2, 1), ProjPoint(3, 1)
    memo = LocalHeights(monomial, 20)
    shared = canonical_height(monomial, x, 20, heights=memo)
    assert shared == canonical_height(monomial, x, 20)
    assert energy_sum(monomial, [x, y], "all", 20, heights=memo) == energy_sum(
        monomial, [x, y], "all", 20
    )
    for F, n_iter in ((z2_minus_1, 20), (monomial, 30)):
        with pytest.raises(InputError):
            canonical_height(F, x, n_iter, heights=memo)
        with pytest.raises(InputError):
            energy_sum(F, [x, y], "all", n_iter, heights=memo)


# ---------------------------------------------------------------------------
# Conjugation invariance and the height gap
# ---------------------------------------------------------------------------


def test_canonical_conjugation_invariance():
    rng = random.Random(77)
    shears = [Mobius(1, 1, 0, 1), Mobius(1, 0, -1, 1), Mobius(0, 1, 1, 0)]
    for _ in range(6):
        F = random_lift(rng, 2, coeff_bound=6)
        phi = shears[rng.randrange(3)].compose(shears[rng.randrange(3)])
        G = conjugate(F, phi)
        x = random_point(rng, 10)
        a = canonical_height(F, x, 35).total
        b = canonical_height(G, phi.apply(x), 35).total
        assert abs(a.value - b.value) <= a.err + b.err + 1e-10


def test_height_gap_bounds_hhat_minus_weil():
    rng = random.Random(13)
    for _ in range(5):
        F = random_lift(rng, 2, coeff_bound=7)
        gap = height_gap_constant(F)
        for _ in range(12):
            x = random_point(rng, 25)
            hb = canonical_height(F, x)
            assert abs(hb.total.value - weil_height(x)) <= gap + hb.total.err


def test_degree_four_pipeline():
    # the machinery is degree-generic; spot-check z^4 and a dense quartic
    from conftest import lift

    F = lift([1, 0, 0, 0, 0], [0, 0, 0, 0, 1])  # z^4
    hb = canonical_height(F, ProjPoint(3, 1))
    assert hb.total.value == pytest.approx(math.log(3), abs=1e-11)
    G = lift([2, 1, 0, -1, 3], [1, 0, 2, 0, 1])
    x, y = ProjPoint(2, 1), ProjPoint(5, 3)
    assert _holds(energy_sum(G, [x, y], "all", 25), 1e-12)
    assert functional_check(G, x, 25).holds(1e-12)


def test_preperiodic_vs_positive_certification(z2_minus_1):
    # every preperiodic point sits below err; a wandering point clears it
    for pt in (ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)):
        hb = canonical_height(z2_minus_1, pt)
        assert hb.total.value <= hb.total.err
    hb = canonical_height(z2_minus_1, ProjPoint(2, 1))
    assert hb.total.value > hb.total.err
