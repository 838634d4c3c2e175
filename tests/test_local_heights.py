import math
import random
from fractions import Fraction

import pytest

from dynheights import (
    DiagonalPairingError,
    EscapePreconditionError,
    InputError,
    Mobius,
    Place,
    ProjPoint,
    conjugate,
    escape_radius,
    green_pairing,
    hom_local_height,
    minimal_resultant_ord,
    step_error_constants,
    verify_escape,
)
from dynheights.maps_core import sylvester_cofactor_pair

from conftest import lift, random_lift
from oracles import local_height_arch_oracle, local_height_padic_oracle

INF = Place.archimedean()


# ---------------------------------------------------------------------------
# Step error constants and the cofactor identity behind them
# ---------------------------------------------------------------------------


def test_step_constants_good_prime(monomial):
    c = step_error_constants(monomial, Place.finite(5))
    assert (c.U, c.L) == (0.0, 0.0)


def test_step_constants_bad_prime(three_z2):
    c = step_error_constants(three_z2, Place.finite(3))
    assert c.U == 0.0
    assert c.L == pytest.approx(-2 * math.log(3), rel=1e-12)


def test_step_constants_monomial_arch(monomial):
    c = step_error_constants(monomial, INF)
    assert c.U == pytest.approx(math.log(3), rel=1e-12)
    # exact minors give A' = 1, so L = log(|Res| / 2A') = -log 2
    assert monomial.cofactor_bound == 1
    assert c.L == pytest.approx(-math.log(2), rel=1e-9)


def test_cofactor_identity_exact():
    # u*P + v*Q == Res * x^(2d-1) (and the y-target), verified by raw
    # polynomial multiplication on descending coefficient lists
    rng = random.Random(515)
    for _ in range(12):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=7)
        for target_x in (True, False):
            u, v = sylvester_cofactor_pair(F, target_x)
            prod = [0] * (2 * d)
            for i, ui in enumerate(u):
                for j, pj in enumerate(F.P.descending()):
                    prod[i + j] += ui * pj
            for i, vi in enumerate(v):
                for j, qj in enumerate(F.Q.descending()):
                    prod[i + j] += vi * qj
            expect = [0] * (2 * d)
            expect[0 if target_x else 2 * d - 1] = F.resultant
            assert prod == expect


def test_step_bound_actually_bounds_steps():
    # log||F(z)|| - d log||z|| must lie in [L, U] for sampled z at inf and p
    rng = random.Random(99)
    for _ in range(8):
        F = random_lift(rng, 2, coeff_bound=9)
        c_inf = step_error_constants(F, INF)
        for _ in range(20):
            z = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)), Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            if z == (0, 0):
                continue
            w = (F.P.evaluate(*z), F.Q.evaluate(*z))
            t = math.log(float(max(map(abs, w)))) - 2 * math.log(float(max(map(abs, z))))
            assert c_inf.L - 1e-9 <= t <= c_inf.U + 1e-9


# ---------------------------------------------------------------------------
# Local heights
# ---------------------------------------------------------------------------


def test_local_height_monomial_arch(monomial):
    cv = hom_local_height(monomial, (2, 1), INF, 25)
    assert cv.value == pytest.approx(math.log(2), abs=1e-12)
    c = step_error_constants(monomial, INF)
    assert cv.err <= c.magnitude() / (2**25 * 1) * (1 + 1e-6) + 1e-12


def test_local_height_monomial_2adic(monomial):
    cv = hom_local_height(monomial, (2, 1), Place.finite(2), 10)
    # ||(2,1)||_2 = 1 and the lift has good reduction: exactly zero
    assert cv.value == 0.0 and cv.exact


def test_local_height_against_exact_iteration_oracle(three_z2):
    cv = hom_local_height(three_z2, (1, 1), Place.finite(3), 20)
    oracle = local_height_padic_oracle(three_z2, (1, 1), 3, 20)
    assert abs(cv.value - oracle) <= cv.err + 1e-12


def test_padic_height_oracle_stress():
    # the truncated-modulus iteration must track the raw Fraction iteration
    # across random bad-reduction maps, points with mixed valuations, and
    # several primes; the oracle shares nothing with the modular code path
    rng = random.Random(1234)
    checked = 0
    while checked < 25:
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=9)
        from dynheights.arith import ord_int, prime_factors_abs

        primes = [p for p in prime_factors_abs(F.resultant) if p <= 13]
        if not primes:
            continue
        p = primes[rng.randrange(len(primes))]
        e = ord_int(F.resultant, p)
        z = (
            Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)),
            Fraction(rng.randint(1, 20) * p ** rng.randint(0, 2)),
        )
        if z[0] == 0:
            continue
        n = rng.randint(4, 9)
        cv = hom_local_height(F, z, Place.finite(p), n)
        oracle = local_height_padic_oracle(F, z, p, n)
        # both are the same partial telescoping up to the oracle's missing
        # tail, which the certified radius dominates
        tail = e * math.log(p) / (d**n * (d - 1))
        assert abs(cv.value - oracle) <= cv.err + tail + 1e-12, (F, p, z, n)
        checked += 1


def test_arch_height_oracle_stress():
    # float iteration with binary renormalization vs raw Fraction iteration
    rng = random.Random(555)
    for _ in range(12):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=9)
        z = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9)))
        if z[0] == 0:
            continue
        n = 8 if d == 2 else 6
        cv = hom_local_height(F, z, INF, n)
        oracle = local_height_arch_oracle(F, z, n)
        # the oracle is the exact partial value; the computed one must agree
        # to float accuracy, well inside the certified radius
        assert abs(cv.value - oracle) <= cv.err + 1e-12, (F, z, n)
        assert abs(cv.value - oracle) <= 1e-10


def test_local_height_homogeneity():
    # H(lambda z) = H(z) + log|lambda|_v, archimedean and 3-adic
    F = lift([3, 1, 2], [1, 0, 5])
    lam = Fraction(6, 5)
    a = hom_local_height(F, (2, 3), INF, 30)
    b = hom_local_height(F, (2 * lam, 3 * lam), INF, 30)
    assert abs(b.value - a.value - math.log(6 / 5)) <= a.err + b.err + 1e-12
    v3 = Place.finite(3)
    a = hom_local_height(F, (2, 3), v3, 30)
    b = hom_local_height(F, (2 * lam, 3 * lam), v3, 30)
    assert abs(b.value - a.value - (-math.log(3))) <= a.err + b.err + 1e-12


def test_local_height_functional_equation():
    # H(F(z)) = d H(z) within errors
    rng = random.Random(7)
    for _ in range(5):
        F = random_lift(rng, 2, coeff_bound=6)
        z = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
        for v in (INF, Place.finite(2), Place.finite(3)):
            a = hom_local_height(F, z, v, 35)
            w = (F.P.evaluate(*z), F.Q.evaluate(*z))
            b = hom_local_height(F, w, v, 35)
            assert abs(b.value - 2 * a.value) <= 2 * a.err + b.err + 1e-10


def test_truncation_nesting():
    # doubling n_iter moves the value by at most the old error radius
    rng = random.Random(23)
    for _ in range(6):
        F = random_lift(rng, rng.choice([2, 3]), coeff_bound=8)
        z = (rng.randint(1, 10), rng.randint(1, 10))
        for v in (INF, Place.finite(2)):
            a = hom_local_height(F, z, v, 12)
            b = hom_local_height(F, z, v, 24)
            assert abs(b.value - a.value) <= a.err + 1e-12


def test_local_height_rejects_origin_and_bad_iters(monomial):
    with pytest.raises(InputError):
        hom_local_height(monomial, (0, 0), INF, 10)
    with pytest.raises(InputError):
        hom_local_height(monomial, (1, 1), INF, 0)


# ---------------------------------------------------------------------------
# Green pairings
# ---------------------------------------------------------------------------


def test_green_monomial_poles(monomial):
    cv = green_pairing(monomial, ProjPoint(0, 1), ProjPoint(1, 0), INF, 20)
    assert abs(cv.value) <= cv.err + 1e-12


def test_green_monomial_log6(monomial):
    cv = green_pairing(monomial, ProjPoint(2, 1), ProjPoint(3, 1), INF, 30)
    assert cv.value == pytest.approx(math.log(6), abs=1e-10)


def test_green_finite_place_vanishes_exactly(monomial):
    cv = green_pairing(monomial, ProjPoint(2, 1), ProjPoint(3, 1), Place.finite(5), 30)
    assert cv.value == 0.0 and cv.exact


def test_green_diagonal_rejected(monomial):
    with pytest.raises(DiagonalPairingError):
        green_pairing(monomial, ProjPoint(2, 1), ProjPoint(4, 2), INF, 10)


def test_green_lift_scaling_invariance():
    # the pairing uses canonical lifts, so scaled inputs collapse to the same
    # value; across lifts of f itself, normalization fixes the representative
    F = lift([1, 0, -1], [0, 0, 1])
    a = green_pairing(F, ProjPoint(2, 1), ProjPoint(5, 3), INF, 30)
    b = green_pairing(F, ProjPoint(4, 2), ProjPoint(-5, -3), INF, 30)
    assert a == b


def test_green_mobius_equivariance(z2_minus_1):
    x, y = ProjPoint(2, 1), ProjPoint(5, 3)
    for phi in (Mobius(1, 1, 0, 1), Mobius(0, 1, 1, 0), Mobius(1, 0, 2, 1)):
        G = conjugate(z2_minus_1, phi)
        for v in (INF, Place.finite(2), Place.finite(7)):
            a = green_pairing(z2_minus_1, x, y, v, 35)
            b = green_pairing(G, phi.apply(x), phi.apply(y), v, 35)
            assert abs(a.value - b.value) <= a.err + b.err + 1e-10


def test_green_good_reduction_nonnegative(three_z2):
    # ord_min at 3 is 0 (potential good reduction), so pairings at 3 are >= 0
    assert minimal_resultant_ord(three_z2, 3).ord_min == 0
    pts = [ProjPoint(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    seen_nonzero = False
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if x == y:
                continue
            cv = green_pairing(three_z2, x, y, Place.finite(3), 25)
            assert cv.value >= -cv.err - 1e-12
            if cv.value > cv.err:
                seen_nonzero = True
    assert seen_nonzero  # 3 divides Res, so some pairs genuinely contribute


# ---------------------------------------------------------------------------
# Escape radii
# ---------------------------------------------------------------------------


def test_escape_radius_values(monomial, three_z2):
    assert escape_radius(monomial, Place.finite(7)).R == 1.0
    assert escape_radius(three_z2, Place.finite(3)).R == pytest.approx(9.0, rel=1e-12)
    assert escape_radius(monomial, INF).R == pytest.approx(2.0, rel=1e-9)


def test_verify_escape_examples(monomial, three_z2):
    # ||z||_3 = 27 > (1 + 1/2) * 9
    assert verify_escape(three_z2, Place.finite(3), (Fraction(1, 27), 1), 10, 0.5)
    # ||z||_5 = 1 equals R = 1: refused for any positive delta
    with pytest.raises(EscapePreconditionError):
        verify_escape(monomial, Place.finite(5), (1, 1), 5, 0.1)
    # archimedean: R = 2 for the monomial map, so (5,1) qualifies at delta=0.1
    assert verify_escape(monomial, INF, (5, 1), 10, 0.1)
    # (2,1) sits exactly at R = 2 and is refused by the gate
    with pytest.raises(EscapePreconditionError):
        verify_escape(monomial, INF, (2, 1), 10, 0.1)


def test_verify_escape_random_maps():
    rng = random.Random(606)
    for _ in range(10):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=8)
        for v in (INF, Place.finite(2), Place.finite(3)):
            R = escape_radius(F, v).R
            if v.is_archimedean:
                n = int(math.ceil(1.2 * R)) + rng.randint(1, 3)
                z = (Fraction(n), Fraction(1))
            else:
                p = v.prime
                m = 1
                while p**m <= 1.15 * R:
                    m += 1
                z = (Fraction(1, p**m), Fraction(1))
            assert verify_escape(F, v, z, 6, 0.1)
