"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from dynheights import (
    Mobius,
    Place,
    ProjPoint,
    canonical_height,
    energy_sum,
    escape_radius,
    green_pairing,
    milnor_invariants,
    minimal_resultant_ord,
    minimal_resultant_oracle,
    orbit,
    preperiodic_points,
    verify_escape,
)
from dynheights.maps_core import conjugate

from conftest import lift, random_lift
from oracles import functional_check, sigma_numeric, verify_cycle
from test_reduction import REGRESSION_PRIMES, regression_lifts

INF = Place.archimedean()


def _report(n, ok, detail=""):
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _sample_maps_and_points(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=10)
        while True:
            x = ProjPoint(rng.randint(-20, 20) or 1, rng.randint(0, 20))
            y = ProjPoint(rng.randint(-20, 20) or 1, rng.randint(0, 20))
            if x != y:
                break
        out.append((F, x, y))
    return out


SAMPLE = _sample_maps_and_points(100, seed=170714)


def test_criterion_1_pairwise_global_identity():
    t0 = time.time()
    worst = 0.0
    for F, x, y in SAMPLE:
        # the ordered energy of {x, y} against 2 (h(x) + h(y)): twice the
        # residual of sum_v g_v(x, y) = h(x) + h(y)
        rep = energy_sum(F, [x, y], "all", n_iter=40)
        residual = rep.identity_residual / 2
        assert residual <= rep.identity_budget / 2, (F, x, y, rep)
        assert residual <= 1e-8, (F, x, y, rep)
        worst = max(worst, residual)
    elapsed = time.time() - t0
    _report(1, elapsed < 30, f"(100 maps, worst residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_functional_equation():
    worst = 0.0
    for F, x, _ in SAMPLE:
        r = functional_check(F, x, n_iter=40)
        hx = canonical_height(F, x, 40).total
        hfx_err = r.budget - F.d * hx.err  # err of the f(x) side
        cap = (F.d + 1) * max(hx.err, hfx_err)
        assert r.residual <= cap + 1e-15, (F, x, r)
        assert r.residual <= 1e-8, (F, x, r)
        worst = max(worst, r.residual)
    _report(2, True, f"(worst residual {worst:.2e})")


def test_criterion_3_monomial_exactness(monomial):
    hb = canonical_height(monomial, ProjPoint(2, 1), n_iter=40)
    ok_h = abs(hb.total.value - math.log(2)) <= 1e-12
    g = green_pairing(monomial, ProjPoint(2, 1), ProjPoint(3, 1), INF, 40)
    ok_g = abs(g.value - math.log(6)) <= 1e-10
    ok_fin = True
    for p in (2, 3, 5, 7, 11):
        cv = green_pairing(monomial, ProjPoint(2, 1), ProjPoint(3, 1), Place.finite(p), 40)
        ok_fin = ok_fin and cv.value == 0.0 and cv.exact
    _report(3, ok_h and ok_g and ok_fin,
            f"(hhat gap {abs(hb.total.value - math.log(2)):.1e}, "
            f"green gap {abs(g.value - math.log(6)):.1e}, finite exact: {ok_fin})")


def _random_unimodular(rng):
    gens = [Mobius(1, 1, 0, 1), Mobius(1, -1, 0, 1), Mobius(1, 0, 1, 1),
            Mobius(1, 0, -1, 1), Mobius(0, 1, 1, 0)]
    phi = Mobius.identity()
    for _ in range(rng.randint(1, 3)):
        phi = phi.compose(gens[rng.randrange(len(gens))])
    return phi


def test_criterion_4_mobius_equivariance():
    rng = random.Random(40400)
    worst = 0.0
    for _ in range(50):
        F, x, y = SAMPLE[rng.randrange(len(SAMPLE))]
        phi = _random_unimodular(rng)
        G = conjugate(F, phi)
        xx, yy = phi.apply(x), phi.apply(y)
        places = [INF] + [Place.finite(p) for p in
                          sorted(set(F.resultant_primes) | {2, 3})]
        for v in places:
            a = green_pairing(F, x, y, v, 40)
            b = green_pairing(G, xx, yy, v, 40)
            resid = abs(a.value - b.value)
            assert resid <= a.err + b.err + 1e-12, (F, phi, v, resid)
            worst = max(worst, resid)
    _report(4, True, f"(50 conjugations, worst residual {worst:.2e})")


def test_criterion_5_minimal_resultant():
    t0 = time.time()
    checked = 0
    for name, F in regression_lifts():
        for p in REGRESSION_PRIMES:
            cert = minimal_resultant_ord(F, p)
            oracle = minimal_resultant_oracle(F, p, 4)
            assert cert.ord_min == oracle, (name, p, cert.ord_min, oracle)
            assert cert.verify(F), (name, p)
            checked += 1
    three = lift([3, 0, 0], [0, 0, 1])
    cert = minimal_resultant_ord(three, 3)
    ok_example = (
        cert.ord_start == 2
        and cert.ord_min == 0
        and cert.conjugator.rows() == ((3, 0), (0, 1))
    )
    elapsed = time.time() - t0
    _report(5, ok_example and elapsed < 60,
            f"({checked} descent=oracle checks, diag(3,1) example OK, {elapsed:.1f}s)")


def test_criterion_6_escape_radius():
    rng = random.Random(60606)
    t0 = time.time()
    failures = 0
    tested = 0
    for _ in range(50):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=10)
        for v in (INF, Place.finite(2), Place.finite(3)):
            R = escape_radius(F, v).R
            for _ in range(20):
                if v.is_archimedean:
                    lo = 1.2 * R
                    num = rng.randint(int(math.ceil(lo)) + 1, int(math.ceil(lo)) + 40)
                    den = rng.randint(1, 1 + int(num / lo))
                    z = (Fraction(num, den), Fraction(1))
                    if float(abs(z[0])) <= 1.1 * R:
                        z = (Fraction(num), Fraction(1))
                else:
                    p = v.prime
                    m = 1
                    while p**m <= 1.15 * R:
                        m += 1
                    m += rng.randint(0, 1)
                    a = rng.randint(1, p**m - 1)
                    while a % p == 0:
                        a = rng.randint(1, p**m - 1)
                    z = (Fraction(a, p**m), Fraction(1))
                tested += 1
                if not verify_escape(F, v, z, 5, 0.1):
                    failures += 1
    elapsed = time.time() - t0
    _report(6, failures == 0, f"({tested} escape checks, {failures} failures, {elapsed:.1f}s)")


def test_criterion_7_preperiodic_census():
    t0 = time.time()
    expected = {ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)}
    ok = True
    for F in (lift([1, 0, 0], [0, 0, 1]), lift([1, 0, -1], [0, 0, 1])):
        pts = preperiodic_points(F, math.log(100))
        ok = ok and set(pts) == expected and len(pts) == 4
        for x in pts:
            rec = orbit(F, x)
            ok = ok and rec.status == "preperiodic" and verify_cycle(F, rec)
    elapsed = time.time() - t0
    _report(7, ok and elapsed < 10, f"(4 points each, cycles re-verified, {elapsed:.1f}s)")


def test_criterion_8_good_reduction_nonnegativity():
    rng = random.Random(80808)
    maps = [lift([3, 0, 0], [0, 0, 1])] + [random_lift(rng, 2, coeff_bound=9) for _ in range(12)]
    pts = sorted(
        {ProjPoint(a, b) for a in range(-2, 3) for b in (1, 2)},
        key=lambda q: (q.x0, q.x1),
    )
    checked = 0
    for F in maps:
        for p in F.resultant_primes:
            if minimal_resultant_ord(F, p).ord_min != 0:
                continue
            v = Place.finite(p)
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    cv = green_pairing(F, x, y, v, 30)
                    assert cv.value >= -cv.err, (F, p, x, y, cv)
                    checked += 1
    _report(8, True, f"({checked} potential-good-reduction pairings all >= -err)")


def test_criterion_9_milnor_relation():
    rng = random.Random(90909)
    worst = 0.0
    for _ in range(100):
        F = random_lift(rng, 2, coeff_bound=10)
        inv = milnor_invariants(F)
        assert inv.sigma3 == inv.sigma1 - 2, F  # exact rational identity
        s1, s2, s3 = sigma_numeric(F)
        gaps = (
            abs(complex(inv.sigma1) - s1),
            abs(complex(inv.sigma2) - s2),
            abs(complex(inv.sigma3) - s3),
        )
        assert max(gaps) < 1e-9, (F, gaps)
        worst = max(worst, max(gaps))
    _report(9, True, f"(100 maps, worst oracle gap {worst:.1e})")


def test_criterion_10_reproducibility(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"d": 2, "P": ["1", "0", "-1"], "Q": ["0", "0", "1"]}))
    outputs = []
    digests = []
    for run in ("1", "2"):
        man = tmp_path / f"man{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dynheights", "--manifest", str(man),
             "census", "--map", str(mpath), "--bound", "1.7",
             "--t-fraction", "0.2"],
            capture_output=True, text=True, timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
        digests.append(json.loads(man.read_text())["output_digest"])
    ok = outputs[0] == outputs[1] and digests[0] == digests[1]
    _report(10, ok, f"(digest {digests[0][:12]}..., byte-identical across two runs)")
