import math
import pickle
import random
from fractions import Fraction

import pytest

from dynheights import (
    DiagonalPairingError,
    EscapePreconditionError,
    HomogeneousLift,
    InputError,
    Mobius,
    Place,
    ProjPoint,
    apply_map,
    canonical_height,
    conjugate,
    escape_radius,
    green_pairing,
    hom_local_height,
    minimal_resultant_ord,
    small_height_census,
    step_error_constants,
    verify_escape,
)
import dynheights.local_heights as local_heights
from dynheights.arith import ord_fraction, ord_int
from dynheights.certified import log_rational_multiple
from dynheights.local_heights import _arch_steps, _coprime_split, _padic_steps, _residue
from dynheights.maps_core import BinaryForm, sylvester_cofactor_pair
from dynheights.telemetry import counting

from conftest import lift, random_lift
from oracles import (
    arch_steps_by_forms,
    exact_padic_escape,
    local_height_arch_oracle,
    local_height_padic_oracle,
    padic_steps_by_forms,
)

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
        from dynheights.arith import prime_factors_abs

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


@pytest.mark.xfail(
    strict=True,
    reason="archimedean fault (ROADMAP item 1): the float orbit drifts past the asserted pad",
)
@pytest.mark.parametrize(
    "p_desc, q_desc, res, point, reference",
    [
        # misses by 3.4e-13 with err 3.8e-14 (heights workload, seed 42)
        ([5, -10, -12, 5, 3], [5, 0, -4, 3, 2], -74625, (-160385, 174311),
         11.973025005859461966),
        # misses by 9.5e-13 with err 1.99e-13 (heights workload, seed 6)
        ([7, -7, -8, 5], [5, -2, -8, 1], -1003,
         (80933562095533097031203029766, 208832790925770614102609228991),
         67.90913242100914257),
    ],
)
def test_arch_height_contains_the_reference_off_cycle(p_desc, q_desc, res, point, reference):
    # Points that are not preperiodic, where the benchmark's heights
    # workload sees hhat(f x) = d hhat(x) fail.  On the quartic the float
    # orbit's step terms drift from the exact ones by 1.7e-13 at step 2 and
    # 4e-10 at step 4, beyond the pad 1e-14 (1 + |t|).  The reference is the
    # same 30-step series on a renormalized orbit in 300-digit mpmath; its
    # truncation tail is below 1e-16.
    F = lift(p_desc, q_desc)
    assert F.resultant == res
    cv = hom_local_height(F, point, INF, 30)
    assert abs(cv.value - reference) <= cv.err


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


@pytest.mark.parametrize("d, many", [(2, 1100), (4, 600)])
def test_local_height_runs_past_the_float_range_of_d_to_the_n(d, many):
    # d^n (d - 1) is above the float range here; the tail divides exactly
    F = lift([2] + [0] * (d - 1) + [1], [0] * d + [2])  # z^d + 1/2, Res = 2^(2d)
    for v in (INF, Place.finite(2)):
        a = hom_local_height(F, (-3, 2), v, 60)
        b = hom_local_height(F, (-3, 2), v, many)
        assert b.err <= a.err
        assert abs(b.value - a.value) <= a.err


def test_padic_orbit_carries_only_the_digits_it_needs():
    # the residues need sum m_k + e + 1 digits, not (n + 1) e + 2: a fresh
    # lift's first run ends within twice that, and a run that starts from
    # the lift's hint within the larger of the hint and twice its need.
    # Every pass starts by reducing y mod p^r, and the modulus only shrinks
    # inside a pass, so the largest modulus y is reduced by bounds every
    # residue the kernel multiplies.  9 z^2 at 3 fixes [1:0], whose disc is
    # a hole that is not rigid (Q(1, 3 s) = 9 s^2), so every step is Horner's
    biggest = 0

    class Recording(int):
        def __mod__(self, modulus):
            nonlocal biggest
            biggest = max(biggest, modulus)
            return int(self) % modulus

    def digits(modulus):
        r = round(math.log(modulus, 3))
        assert 3**r == modulus
        return r

    F, e = lift([9, 0, 0], [0, 0, 1]), 4  # Res = 3^4
    ctx, restarts = local_heights._context(F, 3), 0
    for n, hint, fresh in ((2000, None, True), (1500, "kept", False), (2000, e + 1, False),
                           (700, 3000, False)):
        if hint != "kept":
            ctx.hint = hint
        start, biggest = ctx.hint, 0
        with counting() as counts:
            steps = _padic_steps(F, Recording(1), Recording(9), 3, n)
        assert steps == [2] * n and counts["horner_steps"] >= n
        restarts += counts.get("restarts", 0)
        need = sum(steps[:-1]) + e + 1
        if fresh:
            assert digits(biggest) <= 2 * (sum(steps) + e + 1)
            # 4,009 digits here, against (n + 1) e + 2 = 8,006 at full precision
            assert digits(biggest) < (n + 1) * e + 2
        else:
            assert digits(biggest) <= max(start, 2 * need), (n, start, digits(biggest))
    assert restarts > 0


def _check_padic_steps(F, p, x0, x1, n, hint=None):
    """The kernel's (m0, steps) on the coprime part of (x0, x1), started at
    the given precision hint, against the per-form loop on (x0, x1) at full
    precision; returns m0, the steps and the kernel's work counters."""
    lam, y0, y1 = _coprime_split((x0, x1))
    local_heights._context(F, p).hint = hint
    with counting() as counts:
        steps = _padic_steps(F, y0, y1, p, n)
    m0 = ord_fraction(lam, p)
    assert (m0, steps) == padic_steps_by_forms(F, x0, x1, p, n), (F, x0, x1, p, n, hint)
    return m0, steps, counts


def test_padic_steps_match_per_form_oracle():
    # the one-pass Horner kernel with its zero-valuation exit and division
    # loop, on the coprime part y of x = lam * y, must give the step lists of
    # the per-form loop on x, and ord_p lam its m0, on every (map, point,
    # prime, n).  The first cases cover d = 2-4, e = 1 to beyond 4 and points
    # with m0 < 0 and m0 > 0; the second run p = 2, 3 at e >= 6 and primes
    # near 1000 into holes, at n = 1, 5, 30, 200.  Half the runs start at
    # e + 1 digits, so precision restarts happen
    rng = random.Random(1313)
    seen_e, seen_d, signs, restarts, cases = set(), set(), set(), 0, 0
    while cases < 2000:
        d = rng.choice([2, 3, 4])
        p = rng.choice([2, 3, 5, 7])
        scale = p ** rng.choice([0, 0, 1, 2])  # raises ord_p Res by d per power
        P = [rng.randint(-9, 9) for _ in range(d + 1)]
        Q = [scale * rng.randint(-9, 9) for _ in range(d + 1)]
        try:
            F = lift(P, Q)
        except InputError:
            continue
        e = ord_int(F.resultant, p)
        if e == 0:
            continue
        for _ in range(10):
            x0, x1 = (
                Fraction(rng.randint(-30, 30), rng.randint(1, 30)) * Fraction(p) ** rng.randint(-3, 3)
                for _ in range(2)
            )
            if x0 == 0 and x1 == 0:
                continue
            n = rng.randint(100, 200) if rng.random() < 0.1 else rng.randint(1, 30)
            hint = rng.choice([None, e + 1])
            m0, steps, counts = _check_padic_steps(F, p, x0, x1, n, hint)
            seen_e.add(e)
            seen_d.add(d)
            signs.add((m0 > 0) - (m0 < 0))
            restarts += counts.get("restarts", 0)
            cases += 1
    assert seen_d == {2, 3, 4} and {1, 2, 3, 4} <= seen_e and signs == {-1, 0, 1}
    assert restarts >= 100

    rng = random.Random(1414)
    restarts, deep, near, seen_n = 0, 0, 0, set()
    while deep + near < 2000:
        d = rng.choice([2, 3, 4])
        if rng.random() < 0.5:  # Q divisible by p^k: ord_p Res >= k d
            p = rng.choice([2, 3])
            P = [rng.randint(-9, 9) for _ in range(d + 1)]
            Q = [p ** rng.choice([2, 3]) * rng.randint(-9, 9) for _ in range(d + 1)]
            r = rng.randrange(p + 1)
        else:  # a hole at r: both forms divisible by x - r y mod p, plus noise
            p = rng.choice([991, 997, 1009, 1013])
            r = rng.randrange(p)
            P, Q = ([rng.randint(-9, 9) for _ in range(d)] for _ in range(2))
            P, Q = ([a - r * b for a, b in zip([0] + f, f + [0])] for f in (P, Q))
            P, Q = ([a + p * rng.randint(-2, 2) for a in f] for f in (P, Q))
        try:
            F = HomogeneousLift.from_coeffs(P, Q)
        except (InputError, ArithmeticError):
            continue
        e = ord_int(F.resultant, p)
        if e < (6 if p < 5 else 1):
            continue
        for _ in range(8):
            n = rng.choice([1, 5, 30, 200])
            y0, y1 = _pair_over(rng, p, r) if rng.random() < 0.7 else (rng.randint(-99, 99), 1)
            scale = Fraction(p) ** rng.randint(-2, 2)
            hint = rng.choice([None, e + 1])
            _, steps, counts = _check_padic_steps(F, p, y0 * scale, y1 * scale, n, hint)
            if p < 5:
                deep += 1
                restarts += counts.get("restarts", 0)
            else:
                near += any(steps)
            seen_n.add(n)
    assert seen_n == {1, 5, 30, 200}
    assert deep >= 900 and restarts >= 100 and near >= 300, (deep, restarts, near)


def _holed_map(rng, p, d):
    """A lift whose forms share the factor x - r y mod p (r = p: y), plus noise
    divisible by p: a hole at r, rarely rigid (its Taylor coefficient a_1 is
    most often a unit).  Returns (lift, r), the lift None when it is refused."""
    r = rng.randrange(p + 1)
    P, Q = ([rng.randint(-9, 9) for _ in range(d)] for _ in range(2))
    factor = (1, 0) if r == p else (-r, 1)  # ascending in x
    P, Q = ([factor[0] * a + factor[1] * b for a, b in zip(f + [0], [0] + f)] for f in (P, Q))
    P, Q = ([a + p * rng.randint(-2, 2) for a in f] for f in (P, Q))
    try:
        return HomogeneousLift.from_coeffs(P, Q), r
    except (InputError, ArithmeticError):
        return None, r


def test_padic_steps_do_not_depend_on_the_start_precision():
    # the precision a run starts at is a cost only: from every hint between
    # e + 1 digits and full precision, (n + 1) e + 2, the kernel gives the
    # per-form oracle's list, restarting where the hint falls short
    rng = random.Random(1515)
    cases, horner, restarts, hints = 0, 0, 0, set()
    while cases < 500:
        d, p = rng.choice([2, 3, 4]), rng.choice([2, 3, 5, 991, 997])
        F, r = _holed_map(rng, p, d)
        if F is None or ord_int(F.resultant, p) == 0:
            continue
        e = ord_int(F.resultant, p)
        for _ in range(4):
            n = rng.choice([1, 2, 5, 30, 60])
            y0, y1 = _pair_over(rng, p, r) if rng.random() < 0.7 else (rng.randint(-99, 99), 1)
            x0, x1 = (y * Fraction(p) ** rng.randint(-2, 2) for y in (y0, y1))
            if x0 == x1 == 0:
                continue
            full = (n + 1) * e + 2
            for hint in {e + 1, e + 2, rng.randint(e + 1, full), full}:
                counts = _check_padic_steps(F, p, x0, x1, n, hint)[2]
                restarts += counts.get("restarts", 0)
                horner += counts.get("horner_steps", 0) > 0
                hints.add(hint - e)
            cases += 1
    assert horner >= 500 and restarts >= 100 and {1, 2} <= hints, (horner, restarts)


def _rigid_cycle_map(rng, p, d):
    """A lift with a cycle of rigid discs of step valuation m >= 1: [1:0]
    fixed, or (d = 4) swapped with [0:1], moved by a random unimodular
    conjugation.  Each coefficient constrained by the rigidity condition
    ord_p a_j + j > m sits at its least allowed valuation half the time.
    Returns (lift, residues of the cycle), the lift None when refused."""
    swap = d == 4 and rng.random() < 0.5
    m = 1 if swap else rng.randint(1, d - 1)
    low = {}  # (form, index of x^i y^(d-i)) -> (least valuation, whether exact)
    for j in range(1, m + 1):  # the Taylor coefficients at [1:0]: x^(d-j) y^j
        low[0, d - j] = low[1, d - j] = (m - j + 1, False)
    if swap:  # [1:0] -> [0:1] and back, both at m = 1
        low.update({(0, d): (2, False), (1, d): (1, True), (0, 0): (1, True),
                    (1, 0): (2, False), (0, 1): (1, False), (1, 1): (1, False)})
    else:
        low.update({(0, d): (m, True), (1, d): (m + 1, False)})

    def coeff(form, i):
        k, exact = low.get((form, i), (0, False))
        if (form, i) not in low:
            return rng.randint(-9, 9)
        unit = rng.choice([u for u in range(-5, 6) if u % p])
        return p**k * (unit if exact or rng.random() < 0.5 else rng.randint(-5, 5))

    phi = Mobius(1, 0, 0, 1)
    for _ in range(rng.randint(0, 3)):
        t = rng.randrange(p)
        step = rng.choice([Mobius(1, t, 0, 1), Mobius(0, 1, 1, 0), Mobius(1, 0, t, 1)])
        phi = Mobius(step.a * phi.a + step.b * phi.c, step.a * phi.b + step.b * phi.d,
                     step.c * phi.a + step.d * phi.c, step.c * phi.b + step.d * phi.d)
    try:
        F = HomogeneousLift.from_coeffs(*([coeff(f, i) for i in range(d + 1)] for f in (0, 1)))
        F = conjugate(F, phi)
    except (InputError, ArithmeticError):
        return None, ()
    cycle = [(phi.a, phi.c)] + [(phi.b, phi.d)] * swap  # phi([1:0]), phi([0:1])
    return F, [_residue(a, c, p) for a, c in cycle]


def test_rigid_discs_give_the_orbit_valuations():
    # every list read off the rigid-disc table equals the per-form oracle's,
    # on maps with rigid cycles of positive valuation, with holes that are
    # not rigid and with holes at [1:0]; p = 2, 3 and primes near 1000
    rng = random.Random(1616)
    cases, read, positive, horner, seen = 0, 0, 0, 0, set()
    while cases < 2000:
        d, p = rng.choice([2, 3, 4]), rng.choice([2, 3, 991, 997, 1009])
        rigid = rng.random() < 0.6
        F, starts = _rigid_cycle_map(rng, p, d) if rigid else _holed_map(rng, p, d)
        if F is None or ord_int(F.resultant, p) == 0:
            continue
        starts = list(starts) if rigid else [starts]
        ctx = local_heights._context(F, p)
        for _ in range(6):
            n = rng.choice([1, 5, 30, 60])
            y0, y1 = (_pair_over(rng, p, rng.choice(starts)) if rng.random() < 0.7
                      else (rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
            g = math.gcd(y0, y1)
            y0, y1 = y0 // g, y1 // g
            scale = Fraction(p) ** rng.randint(-2, 2)
            _, steps, counts = _check_padic_steps(F, p, y0 * scale, y1 * scale, n)
            horner += counts.get("horner_steps", 0) > 0
            r = _residue(y0, y1, p)
            m, _, reach, _ = ctx.settle(r, n)
            if abs(reach) >= n:
                assert ctx.walk(r, n) == steps, (F, p, y0, y1, n)
                read += 1
            if reach == math.inf:  # the walk ends on a rigid cycle: find it
                walk = [r]
                while walk[-1] not in walk[:-1]:
                    walk.append(ctx.discs[walk[-1]][1])
                cycle = walk[walk.index(walk[-1]):-1]
                positive += any(ctx.discs[c][0] for c in cycle)
            seen.add((d, p < 5, rigid))
            cases += 1
    assert len(seen) == 12
    assert positive >= 500 and read >= 1000 and horner >= 300, (positive, read, horner)


def _residue_image(F, p, r):
    """F mod p at the residue r of P^1(F_p) (r = p is [1:0]); -1 at a hole."""
    x0, x1 = (1, 0) if r == p else (r, 1)
    a, b = F.P.evaluate(x0, x1) % p, F.Q.evaluate(x0, x1) % p
    if a == b == 0:
        return -1
    return p if b == 0 else a * pow(b, -1, p) % p


def _pair_over(rng, p, r):
    """A random coprime integer pair (sign and size vary) reducing to residue r."""
    k, j = rng.randint(0, 10**rng.randint(1, 30)), rng.randint(0, 9)
    y0, y1 = (1 + p * k, p * j) if r == p else (r + p * k, 1 + p * j)
    g = rng.choice([1, -1]) * math.gcd(y0, y1)  # a unit at p: [y0:y1] mod p stays r
    return y0 // g, y1 // g


def test_to_hole_is_exactly_an_all_zero_orbit():
    # a residue's table entry must say to_hole >= n exactly when the residue
    # kernel's step valuations are all 0.  Each map gets one or two holes mod p (roots of
    # a factor H of both forms mod p, at infinity too), and the starting
    # residues include the holes, points that reach a hole at the last step
    # checked (n - 1 steps away) or just after it (n steps away), and
    # random ones
    rng = random.Random(2828)
    cases, seen = 0, {True: 0, False: 0}
    edges = set()
    while cases < 2400:
        d = rng.choice([2, 3, 4])
        p = rng.choice([2, 3, 991, 997, 1009])
        roots = [rng.choice([p] + list(range(p))) for _ in range(rng.randint(1, 2))]
        H = [1]  # ascending in x: the product of x - r y, or of y for r = p
        for r in roots:
            factor = [1, 0] if r == p else [-r, 1]
            H = [sum(H[i] * factor[k - i] for i in range(len(H)) if 0 <= k - i < len(factor))
                 for k in range(len(H) + len(factor) - 1)]
        H += [0] * (d + 1 - len(H))
        deg_h = len(roots)

        def times_h(rest):  # H * rest, rest of degree d - deg_h, ascending
            return [sum(H[i] * rest[k - i] for i in range(k + 1) if k - i < len(rest))
                    for k in range(d + 1)]

        P = times_h([rng.randint(-5, 5) for _ in range(d - deg_h + 1)])
        Q = times_h([rng.randint(-5, 5) for _ in range(d - deg_h + 1)])
        P = [a + p * rng.randint(-2, 2) for a in P]
        Q = [b + p * rng.randint(-2, 2) for b in Q]
        try:
            F = HomogeneousLift.from_coeffs(P, Q)
        except (InputError, ArithmeticError):
            continue
        e = ord_int(F.resultant, p)
        if e == 0:  # the lift's content swallowed the holes
            continue
        image = {r: _residue_image(F, p, r) for r in range(p + 1)}
        dist = {}
        for r in image:  # steps from r to its first hole, None if it never gets there
            seen_r, k, cur = set(), 0, r
            while image[cur] >= 0 and cur not in seen_r:
                seen_r.add(cur)
                cur, k = image[cur], k + 1
            dist[r] = k if image[cur] < 0 else None
        for _ in range(12):
            n = rng.choice([1, 5, 30])
            wanted = rng.choice([0, n - 1, n, None, "random"])
            pool = [r for r in image if wanted == "random" or dist[r] == wanted]
            r = rng.choice(pool or list(image))
            y0, y1 = _pair_over(rng, p, r)
            steps = _padic_steps(F, y0, y1, p, n)
            got = abs(local_heights._context(F, p).settle(_residue(y0, y1, p), n)[3]) >= n
            assert got == (not any(steps)), (F, p, y0, y1, n, steps)
            cur, walk = r, True  # the n-step walk in F mod p
            for _ in range(n):
                cur = image[cur]
                if cur < 0:
                    walk = False
                    break
            assert got == walk
            if not got:  # the first positive valuation sits at the first hole
                assert next(k for k, m in enumerate(steps) if m) == dist[r]
            seen[got] += 1
            if dist[r] is not None and dist[r] in (n - 1, n):
                edges.add((n, dist[r] - n))
            cases += 1
        # every distance the walks recorded is exact (p < 2^16 walks to the end)
        table = local_heights._context(F, p).discs
        assert table and all(entry[3] == (math.inf if dist[r] is None else dist[r])
                             for r, entry in table.items())
    assert min(seen.values()) >= 600
    assert {(5, -1), (5, 0), (30, -1), (30, 0), (1, 0), (1, -1)} <= edges


def test_arch_steps_are_the_per_form_floats_bit_for_bit():
    # the one-pass kernel against two BinaryForm.evaluate calls per step,
    # on maps with zero coefficients and coefficients above 2^53, and points
    # of up to 300 digits; a coefficient above the float range must stop
    # both with the same error at the same step
    rng = random.Random(2929)
    big, zeros, errors, cases, degrees = 0, 0, 0, 0, set()
    while cases < 1200:
        d = rng.choice([2, 3, 4, 5])
        bound = rng.choice([9, 2**53, 2**80, 10**40, 10**40, 10**40, 10**40, 10**400])

        def coeff():
            return 0 if rng.random() < 0.3 else rng.randint(-bound, bound)

        try:
            F = HomogeneousLift.from_coeffs([coeff() for _ in range(d + 1)],
                                            [coeff() for _ in range(d + 1)])
        except (InputError, ArithmeticError):
            continue
        y0, y1 = (rng.randint(-10**rng.randint(1, 300), 10**rng.randint(1, 300)) for _ in range(2))
        g = math.gcd(y0, y1)
        if g == 0:
            continue
        y0, y1, n = y0 // g, y1 // g, rng.randint(1, 40)
        runs = []
        for kernel in (_arch_steps, arch_steps_by_forms):
            out = []
            try:
                out.extend(repr(t) for t in kernel(F, y0, y1, n))
            except ArithmeticError as exc:  # OverflowError included
                out.append(type(exc).__name__)
            runs.append(out)
        assert runs[0] == runs[1], (F, y0, y1, n)
        if runs[0][-1:] == ["OverflowError"]:  # from the first height, on a fresh lift
            with pytest.raises(OverflowError):
                hom_local_height(HomogeneousLift(F.P, F.Q), (y0, y1), INF, n)
            errors += 1
        big += F.max_abs_coeff() > 2**53
        zeros += 0 in F.P.coeffs + F.Q.coeffs
        degrees.add(d)
        cases += 1
    assert big >= 300 and zeros >= 300 and errors >= 20 and degrees == {2, 3, 4, 5}


def test_residue_tables_stay_within_their_bounds(monkeypatch):
    # after the points of one map each prime's table holds at most p + 1
    # residues; a second pass over the same points evaluates F mod p zero
    # times; and one height on the map with a 10-digit Res prime stores at
    # most n_iter + 1 residues for it
    calls = 0
    evaluate = BinaryForm.evaluate

    def counting(self, x, y):
        nonlocal calls
        calls += 1
        return evaluate(self, x, y)

    monkeypatch.setattr(BinaryForm, "evaluate", counting)
    F = lift([-7, 3, -1, 0], [-3, 7, -3, -2])  # Res = 5544 = 2^3 3^2 7 11
    assert F.resultant_factorization == {2: 3, 3: 2, 7: 1, 11: 1}
    rng = random.Random(3030)
    points = [ProjPoint(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range(150)]
    for x in points:
        canonical_height(F, x)
    tables = {p: ctx.discs for p, ctx in F.place_contexts.items() if p is not None}
    assert calls > 0 and set(tables) == set(F.resultant_primes)
    for p, table in tables.items():
        assert len(table) <= p + 1 and set(table) <= set(range(p + 1))
        for m, image, reach, to_hole in table.values():  # exact counts, or a hole's zeros
            assert (m, image, reach, to_hole) == (None, None, 0, 0) or (
                0 <= m <= F.resultant_factorization[p] and 0 <= image <= p)
            assert {reach, to_hole} <= {*range(p + 2), math.inf} and to_hole <= reach
    calls = 0
    for x in points:
        canonical_height(F, x)
    assert calls == 0
    G = HomogeneousLift.from_coeffs([-513, 213, 114], [-733, -243, 875])
    assert G.resultant_factorization == {3: 2, 8149259477: 1}
    for n_iter in (5, 30):
        H = HomogeneousLift(G.P, G.Q)  # a fresh lift: an empty table
        canonical_height(H, ProjPoint(123456789, 1000003), n_iter)
        assert 0 < len(H.place_contexts[8149259477].discs) <= n_iter + 1
    # above 2^16 a walk stops after n residues and records lower bounds; a
    # longer query walks again, and every answer is the n-step walk's
    ctx, p = local_heights._context(H, 8149259477), 8149259477
    for k, n in enumerate((5, 30, 5, 60, 1)):
        y0, y1 = 123456789 + k % 2, 1000003
        r = y0 * pow(y1, -1, p) % p
        walk = True
        for _ in range(n):
            r = _residue_image(H, p, r)
            if r < 0:
                walk = False
                break
        assert (abs(ctx.settle(_residue(y0, y1, p), n)[3]) >= n) == walk


def test_one_place_never_factors_the_resultant(monkeypatch, tmp_path, capsys):
    # a height, pairing, step constant, radius or escape at one finite place
    # reads ord_p Res alone: factoring Res can stall (a 1,040-digit Res with
    # a large composite cofactor does), and nothing at one place needs it
    import dynheights.maps_core as maps_core
    from dynheights.cli import main
    from dynheights.formats import load_map

    def refuse(n):
        raise AssertionError("Res was factored")

    monkeypatch.setattr(maps_core, "prime_factors_abs", refuse)
    F = lift([2, 0, 1], [0, 0, 2])  # z^2 + 1/2, Res = 2^4
    for p in (2, 3):
        v = Place.finite(p)
        hom_local_height(F, (Fraction(1, 4), 3), v, 30)
        green_pairing(F, ProjPoint(1, 2), ProjPoint(2, 1), v)
        step_error_constants(F, v)
        escape_radius(F, v)
    assert verify_escape(F, Place.finite(2), (Fraction(1, 64), 1), 20, 0.5)
    assert "resultant_factorization" not in vars(F)
    # on that map a height at one prime in process, and green and escape at
    # one prime through the CLI (its height sums over every place of Res)
    path = tmp_path / "huge.json"
    path.write_text('{"d": 2, "P": ["1%s", "7", "1"], "Q": ["3", "0", "1%s"]}' % ("0" * 320, "0" * 200))
    G = load_map(str(path))
    assert len(str(abs(G.resultant))) == 1040
    for p, m0 in ((2, -2), (3, 0)):  # good reduction: H = -m0 log p exactly
        assert hom_local_height(G, (Fraction(1, 4), 3), Place.finite(p), 30) == (
            log_rational_multiple(-m0, p))
    assert main(["green", "--map", str(path), "--x", "[1:2]", "--y", "[2:1]", "--place", "2"]) == 0
    assert main(["escape", "--map", str(path), "--place", "3", "--z", "[1/9:1]",
                 "--steps", "20", "--delta", "0.5"]) == 0
    assert '"escapes":true' in capsys.readouterr().out


def test_place_invariants_are_built_once_per_lift(monkeypatch):
    # 140 heights of one map (70 points and their images, as in the heights
    # workload) read ord_p Res once per prime and the archimedean step
    # constants once: both live in the lift's place contexts
    F = lift([-7, 3, -1, 0], [-3, 7, -3, -2])  # Res = 5544 = 2^3 3^2 7 11
    counts = {}  # p: ord_int(Res, p) calls; INF: step_error_constants calls
    ord_int_, constants = local_heights.ord_int, local_heights.step_error_constants

    def counting_ord_int(n, p):
        if n == F.resultant:
            counts[p] = counts.get(p, 0) + 1
        return ord_int_(n, p)

    def counting_constants(G, v):
        counts[v] = counts.get(v, 0) + 1
        return constants(G, v)

    monkeypatch.setattr(local_heights, "ord_int", counting_ord_int)
    monkeypatch.setattr(local_heights, "step_error_constants", counting_constants)
    rng = random.Random(3131)
    points = [ProjPoint(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(70)]
    for x in points + [apply_map(F, x) for x in points]:
        canonical_height(F, x)
    assert counts == {INF: 1, 2: 1, 3: 1, 7: 1, 11: 1}
    # the contexts stay out of a pickle, and the copy builds its own
    G = pickle.loads(pickle.dumps(F))
    assert G == F and "place_contexts" not in vars(G)
    assert canonical_height(G, points[0]) == canonical_height(F, points[0])


def test_padic_step_above_its_bound_raises():
    # every m_k <= e = ord_p Res (cofactor identity); a context that
    # understates e makes the kernel raise rather than return a larger step
    F = lift([9, 0, 0], [0, 0, 1])  # 9 z^2, Res = 3^4; F(1, 9) = 9 (1, 9)
    assert _padic_steps(F, 1, 9, 3, 5) == [2] * 5
    local_heights._context(F, 3).e = 1
    with pytest.raises(ArithmeticError, match="exceeded its certified bound"):
        _padic_steps(F, 1, 9, 3, 1)  # one step: its (n + 1) e + 2 = 4 digits hold m = 2


@pytest.mark.parametrize(
    "xt, m0",
    [
        ((9, 2), 0),
        ((9, 3), 1),
        ((27, 0), 3),
        ((Fraction(1, 9), 1), -2),
        ((Fraction(2, 3), Fraction(4, 9)), -2),
        ((Fraction(2, 7), 5), 0),
        ((Fraction(3, 2), Fraction(9, 5)), 1),
    ],
)
def test_good_reduction_height_runs_no_orbit(z2_plus_half, monkeypatch, xt, m0):
    def no_orbit(*args):
        raise AssertionError("_padic_steps ran at a prime of good reduction")

    monkeypatch.setattr(local_heights, "_padic_steps", no_orbit)
    for F in (z2_plus_half, lift([1, 0, -1], [0, 0, 1])):
        assert F.resultant % 3 != 0
        got = hom_local_height(F, xt, Place.finite(3), 30)
        assert got == log_rational_multiple(-m0, 3) and got.exact == (m0 == 0)


def test_kernels_take_coprime_integer_pairs(monkeypatch):
    # a census and escapes of rational pairs, at infinity and at a prime:
    # every pair an orbit kernel receives is a coprime pair of ints
    pairs = []

    def recording(name):
        kernel = getattr(local_heights, name)

        def wrapped(F, y0, y1, *rest):
            pairs.append((name, y0, y1))
            return kernel(F, y0, y1, *rest)

        return wrapped

    for name in ("_arch_steps", "_padic_steps"):
        monkeypatch.setattr(local_heights, name, recording(name))
    sixth = lift([6, 0, 1], [0, 0, 6])  # z^2 + 1/6, Res = 2^4 3^4
    assert small_height_census(sixth, 1.0, 1.4).searched > 0
    three_z2 = lift([3, 0, 0], [0, 0, 1])
    assert verify_escape(three_z2, INF, (Fraction(81, 2), Fraction(1, 3)), 10, 0.1)
    assert verify_escape(three_z2, Place.finite(3), (Fraction(2, 243), Fraction(4)), 12, 0.1)
    assert verify_escape(three_z2, Place.finite(3), (Fraction(10, 27), 6), 8, 0.1)
    assert pairs[-3:] == [("_arch_steps", 243, 2), ("_padic_steps", 1, 486),
                          ("_padic_steps", 5, 81)]
    assert {name for name, _, _ in pairs[:-3]} == {"_arch_steps", "_padic_steps"}
    for _, y0, y1 in pairs:
        assert type(y0) is int and type(y1) is int and math.gcd(y0, y1) == 1, (y0, y1)


def test_memo_hands_canonical_pairs_to_the_kernels_unsplit(monkeypatch):
    # LocalHeights passes a point's canonical lift, coprime already, so no
    # gcd runs per place; a bare pair is still split, to the same bits
    rng = random.Random(4141)
    F = lift([5, -10, -12, 5, 3], [5, 0, -4, 3, 2])  # Res = -3 5^3 199
    points = {ProjPoint(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(30)}
    points |= {ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(-7, 3)}
    want = {(x, v): hom_local_height(F, (x.x0, x.x1), v, 30) for x in points for v in F.places}
    splits = []
    real = local_heights._coprime_split

    def counting(z):
        splits.append(z)
        return real(z)

    monkeypatch.setattr(local_heights, "_coprime_split", counting)
    memo = local_heights.LocalHeights(F, 30)
    for (x, v), cv in want.items():
        assert memo(x, v) == cv, (x, v)
    assert splits == []
    assert hom_local_height(F, (-7, 3), INF, 30) == want[ProjPoint(-7, 3), INF]
    assert splits == [(-7, 3)]


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


def test_verify_escape_matches_exact_fraction_oracle():
    # ||z||_p = p^a just above the radius and delta up to the precondition's
    # edge, so the required growth p^k_min is often met with equality
    rng = random.Random(808)
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        F = random_lift(rng, d, coeff_bound=10)
        for p in (2, 3, 5, 7):
            v = Place.finite(p)
            R = escape_radius(F, v).R
            a = 1
            while p**a <= 1.01 * R:
                a += 1
            a += rng.randint(0, 1)
            num = rng.choice([c for c in range(1, 30) if c % p])
            z = (Fraction(num, p**a), Fraction(rng.randint(-9, 9)))
            delta = rng.uniform(0.0, 0.999) * (p**a / R - 1.0) or 0.01
            n = rng.randint(1, 6)
            expected = exact_padic_escape(F, z, p, n, delta)
            assert verify_escape(F, v, z, n, delta) is expected is True
