import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from sympy import nextprime, prevprime

import dynheights.arith as arith
import dynheights.reduction as reduction
from dynheights import (
    HomogeneousLift,
    Mobius,
    OracleRadiusError,
    bad_places,
    conjugate,
    h_res,
    minimal_resultant_ord,
    minimal_resultant_oracle,
    ord_res_at,
    sylvester_resultant,
)
from dynheights import telemetry
from dynheights.arith import ord_int
from dynheights.maps_core import _conjugate_forms
from dynheights.reduction import (
    _ARCH_FAMILY_CAP,
    _arch_best_ratio,
    _arch_conjugator_family,
    hole_moves,
    neighbor_moves,
    vertex_key,
)

from conftest import conjugation_cases, lift, random_lift
from oracles import (
    arch_best_ratio_full_scan,
    full_scan_descent,
    hole_gcd_degrees,
    hole_moves_by_gf_factor,
    mobius_arch_best_ratio,
    mobius_arch_family,
    ord_res_by_determinant,
)

# Fixed regression family: every map has ord_start <= 4 at each tested prime,
# so the radius-4 oracle ball provably contains the vertex minimum.
REGRESSION_MAPS = [
    ("z^2", [1, 0, 0], [0, 0, 1]),
    ("3z^2", [3, 0, 0], [0, 0, 1]),
    ("z^2+1/2", [2, 0, 1], [0, 0, 2]),
    ("z^2-1", [1, 0, -1], [0, 0, 1]),
    ("(x^2+3y^2, 5xy)", [1, 0, 3], [0, 5, 0]),
    ("2z^2+3", [2, 0, 3], [0, 0, 1]),
    ("z^3", [1, 0, 0, 0], [0, 0, 0, 1]),
    ("2z^3+1", [2, 0, 0, 1], [0, 0, 0, 1]),
    ("(x^3+2y^3, 3x y^2)", [1, 0, 0, 2], [0, 0, 3, 0]),
]
REGRESSION_PRIMES = [2, 3, 5]


def regression_lifts():
    return [(name, lift(p, q)) for (name, p, q) in REGRESSION_MAPS]


# ---------------------------------------------------------------------------
# ord_res_at
# ---------------------------------------------------------------------------


def test_ord_res_at_examples(monomial, three_z2):
    assert ord_res_at(monomial, 2, Mobius.identity()) == 0
    assert ord_res_at(three_z2, 3, Mobius.identity()) == 2
    assert ord_res_at(three_z2, 3, Mobius.diagonal(3, 1)) == 0


def test_ord_res_law_matches_the_determinant():
    # ord_p Res(F) + (d^2+d) ord_p det M - 2d ord_p g, g the content of the
    # raw conjugate, against the Bareiss resultant of the canonical conjugate
    seen = Counter()
    for F, M, p in conjugation_cases(5151, 1000):
        assert ord_res_at(F, p, M) == ord_res_by_determinant(F, p, M), (F, M, p)
        g0, g1 = _conjugate_forms(F, M.rows())
        seen[f"d={F.d}"] += 1
        seen["det +-1"] += abs(M.det) == 1
        seen["det < 0"] += M.det < 0
        seen["det p^k, k >= 30"] += abs(M.det) == p ** ord_int(M.det, p) >= p**30
        seen["content divisible by p"] += math.gcd(*g0, *g1) % p == 0
        seen["coefficients past 10^30"] += F.max_abs_coeff() > 10**30
        seen["10^400 z^2 + 1"] += F.max_abs_coeff() == 10**400
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# Tree vertices
# ---------------------------------------------------------------------------


def test_vertex_key_identifies_lattice_classes():
    p = 3
    # unimodular integral matrices fix the standard vertex
    assert vertex_key(Mobius(0, 1, 1, 0), p) == vertex_key(Mobius.identity(), p)
    assert vertex_key(Mobius(1, 1, 0, 1), p) == vertex_key(Mobius.identity(), p)
    # diag(3,1) and diag(9,3) are homothetic lattices
    assert vertex_key(Mobius.diagonal(3, 1), p) == vertex_key(Mobius.diagonal(9, 3), p)
    # shearing by a multiple of 3 does not leave the vertex of diag(3,1)
    assert vertex_key(Mobius(3, 3, 0, 1), p) == vertex_key(Mobius.diagonal(3, 1), p)
    # but the two neighbors of the root in opposite directions differ
    assert vertex_key(Mobius.diagonal(3, 1), p) != vertex_key(Mobius.diagonal(1, 3), p)


def test_neighbor_moves_reach_all_neighbors():
    p = 5
    keys = {vertex_key(m, p) for m in neighbor_moves(p)}
    assert len(keys) == p + 1
    assert vertex_key(Mobius.identity(), p) not in keys
    # two steps out and one step back returns to a depth-1 vertex, never depth 3
    two_out = {
        vertex_key(m2.compose(m1), p)
        for m1 in neighbor_moves(p)
        for m2 in neighbor_moves(p)
    }
    assert vertex_key(Mobius.identity(), p) in two_out


# ---------------------------------------------------------------------------
# Descent and oracle
# ---------------------------------------------------------------------------


def test_descent_three_z2(three_z2):
    cert = minimal_resultant_ord(three_z2, 3)
    assert cert.ord_start == 2
    assert cert.ord_min == 0
    assert cert.conjugator.rows() == ((3, 0), (0, 1))
    assert cert.method == "descent"
    assert cert.verify(three_z2)


def test_descent_good_reduction_is_identity(monomial):
    cert = minimal_resultant_ord(monomial, 7)
    assert cert.ord_min == 0 and cert.ord_start == 0
    assert cert.conjugator.rows() == Mobius.identity().rows()


def test_descent_matches_oracle_z2_plus_half(z2_plus_half):
    cert = minimal_resultant_ord(z2_plus_half, 2)
    oracle = minimal_resultant_oracle(z2_plus_half, 2, 4)
    assert cert.ord_min == oracle == 2  # frozen from the oracle run
    assert cert.ord_start == 4


def test_oracle_examples(three_z2, monomial):
    assert minimal_resultant_oracle(three_z2, 3, 2) == 0
    assert minimal_resultant_oracle(monomial, 5, 3) == 0


def test_oracle_radius_guard(monomial):
    with pytest.raises(OracleRadiusError):
        minimal_resultant_oracle(monomial, 2, 7)


def test_descent_equals_oracle_on_regression_family():
    for name, F in regression_lifts():
        for p in REGRESSION_PRIMES:
            cert = minimal_resultant_ord(F, p)
            assert cert.ord_start <= 4, (name, p, cert.ord_start)
            oracle = minimal_resultant_oracle(F, p, 4)
            assert cert.ord_min == oracle, (name, p, cert.ord_min, oracle)
            assert cert.verify(F)


def test_descent_recovers_deep_conjugation(monomial):
    # push z^2 three edges down the tree at p = 3 and let the descent walk back
    from dynheights import conjugate

    G = conjugate(monomial, Mobius.diagonal(1, 27))
    cert = minimal_resultant_ord(G, 3)
    assert cert.ord_start == 6
    assert cert.ord_min == 0
    assert cert.verify(G)
    assert minimal_resultant_oracle(G, 3, 4) == 0


def test_descent_conjugation_invariant_certificates(z2_plus_half):
    # translating the input along the tree must not change the minimum
    from dynheights import conjugate

    base = minimal_resultant_ord(z2_plus_half, 2).ord_min
    for phi in (Mobius.diagonal(2, 1), Mobius.diagonal(1, 4), Mobius(2, 1, 0, 1)):
        G = conjugate(z2_plus_half, phi)
        assert minimal_resultant_ord(G, 2).ord_min == base


def test_descent_equals_oracle_on_random_maps_and_primes():
    # randomized cross-validation beyond the fixed regression family; only
    # inputs whose starting ordinal fits the oracle radius are compared
    rng = random.Random(909090)
    checked = 0
    while checked < 12:
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=9)
        p = rng.choice([2, 3, 5, 7, 11])
        cert = minimal_resultant_ord(F, p)
        if cert.ord_start == 0 or cert.ord_start > 3:
            continue
        radius = min(cert.ord_start + 1, 4)
        assert cert.ord_min == minimal_resultant_oracle(F, p, radius), (F, p)
        checked += 1


def _random_vertex(rng, p):
    """A conjugator 0 to 3 random tree moves (or inverses) from the identity."""
    moves = list(neighbor_moves(p))
    phi = Mobius.identity()
    for _ in range(rng.randint(0, 3)):
        mv = rng.choice(moves)
        phi = (mv if rng.random() < 0.5 else mv.inverse()).compose(phi)
    return phi


def test_hole_moves_hold_every_neighbour_that_does_not_rise():
    # the hole argument: a neighbour off the hole set has
    # ord_p Res >= current + d^2 - d, so it can neither improve nor tie
    rng = random.Random(60606)
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        F = random_lift(rng, d, coeff_bound=9)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        phi = _random_vertex(rng, p)
        current = ord_res_at(F, p, phi)
        holes = {mv.rows() for mv in hole_moves(conjugate(F, phi), p)}
        assert len(holes) <= d
        for mv in neighbor_moves(p):
            o = ord_res_at(F, p, mv.compose(phi))
            if mv.rows() not in holes:
                assert o >= current + d * d - d, (F, p, phi, mv)


def _form_with_roots(rng, d, roots, p, bound):
    """Integer coefficients (descending) of prod (x - r) times random factors
    of degree d - len(roots), plus p times random noise."""
    f = [1]
    for r in roots:
        f = [a - r * b for a, b in zip(f + [0], [0] + f)]
    while len(f) < d + 1:
        c = rng.randint(-bound, bound) if rng.random() < 0.5 else rng.randrange(p)
        lead = rng.randint(1, 5)
        f = [lead * a + c * b for a, b in zip(f + [0], [0] + f)]
    return [c + p * rng.randint(-3, 3) for c in f]


def test_hole_moves_match_gf_factor_oracle(monkeypatch):
    rng = random.Random(18018)
    seen = {"p=2": 0, "p=3": 0, "P=0 mod p": 0, "x^d vanishes": 0, "2+ roots": 0, "p>1e9": 0,
            "gcd degree 0": 0, "gcd degree 1": 0, "one repeated root": 0, "repeated roots": 0}
    cases = 0
    powmods = []
    real_powmod = reduction._fp_powmod

    def counting_powmod(*args):
        powmods.append(args)
        return real_powmod(*args)

    monkeypatch.setattr(reduction, "_fp_powmod", counting_powmod)
    while cases < 2000:
        d = rng.choice([2, 3, 4])
        p = rng.choice([2, 3, 5, 7, 11, nextprime(rng.randrange(12, 300)),
                        nextprime(rng.randrange(10**5, 10**6)), prevprime(rng.randrange(10**9, 10**10))])
        k = rng.randint(0, d)
        roots = [rng.randrange(p) for _ in range(k)]
        P = _form_with_roots(rng, d, roots, p, 20)
        Q = _form_with_roots(rng, d, roots, p, 20)
        mode = rng.random()
        if mode < 0.1:
            P = [p * rng.randint(-9, 9) for _ in P]
        elif mode < 0.25:
            P[0], Q[0] = p * rng.randint(-3, 3), p * rng.randint(-3, 3)
        try:
            G = lift(P, Q)
        except Exception:  # a zero form or Res = 0
            continue
        powmods.clear()
        got = hole_moves(G, p)
        # the descent ranks the moves by a total key, so only the set matters
        want = hole_moves_by_gf_factor(G, p)
        assert sorted(m.rows() for m in got) == sorted(m.rows() for m in want), (G, p)
        assert len(got) == len(want) <= d
        # a constant or linear gcd, or (for p > its degree) one with a single
        # distinct root, is read off directly: no x^p powmod
        degree, distinct = hole_gcd_degrees(G, p)
        if degree <= 1 or distinct <= 1 < degree < p:
            assert not powmods, (G, p)
        cases += 1
        seen["gcd degree 0"] += degree == 0
        seen["gcd degree 1"] += degree == 1
        seen["one repeated root"] += distinct == 1 < degree < p
        seen["repeated roots"] += distinct < degree
        seen["p=2"] += p == 2
        seen["p=3"] += p == 3
        seen["P=0 mod p"] += all(c % p == 0 for c in G.P.coeffs)
        seen["x^d vanishes"] += G.P.coeffs[-1] % p == 0 and G.Q.coeffs[-1] % p == 0
        seen["2+ roots"] += sum(m.c == 0 and m.d == p for m in got) >= 2
        seen["p>1e9"] += p > 10**9
    assert min(seen.values()) >= 50, seen


def test_hole_descent_equals_full_scan_descent():
    rng = random.Random(70707)
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        F = random_lift(rng, d, coeff_bound=9)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        G = conjugate(F, _random_vertex(rng, p))
        assert minimal_resultant_ord(G, p) == full_scan_descent(G, p), (G, p)


def _bench_style_maps(rng, count):
    """Maps of degree 2-4 (random ones, and monic polynomials) conjugated by
    z -> q^k z + j with q a prime near 240 and k = 1 or 2, each rebuilt from
    its forms, so its Res comes from a determinant, as for a parsed map."""
    maps = []
    for i in range(count):
        d = 2 + i % 3
        if i % 2:
            base = lift([1] + [rng.randint(-9, 9) for _ in range(d)], [0] * d + [1])
        else:
            base = random_lift(rng, d, coeff_bound=9)
        q = rng.choice([223, 227, 229, 233, 239, 241, 251, 257])
        G = conjugate(base, Mobius(q ** (1 + i % 2), rng.randint(1, q - 1), 0, 1))
        maps.append((HomogeneousLift(G.P, G.Q), q))
    return maps


def test_each_descent_step_conjugates_the_current_conjugate(monkeypatch):
    # the descent scores mv phi as ord_res_at(G, p, mv) and moves to
    # conjugate(G, mv): the same lift as conjugate(F, mv phi), at every step
    real_conjugate, real_ord_res_at = reduction.conjugate, reduction.ord_res_at
    steps, evals = [], []

    def recording_conjugate(G, mv):
        out = real_conjugate(G, mv)
        steps.append((G, mv, out))
        return out

    def recording_ord_res_at(G, p, mv):
        out = real_ord_res_at(G, p, mv)
        evals.append((G, mv, out))
        return out

    monkeypatch.setattr(reduction, "conjugate", recording_conjugate)
    monkeypatch.setattr(reduction, "ord_res_at", recording_ord_res_at)
    rng = random.Random(818181)
    cases = _bench_style_maps(rng, 36)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        cases.append((real_conjugate(random_lift(rng, rng.choice([2, 3, 4]), 9),
                                     _random_vertex(rng, p)), p))
    total = 0
    for F, p in cases:
        steps.clear()
        evals.clear()
        with telemetry.counting() as counts:
            cert = minimal_resultant_ord(F, p)
        phi = Mobius.identity()
        for G, mv, out in steps:
            assert G == real_conjugate(F, phi)
            phi = mv.compose(phi)
            assert out == real_conjugate(F, phi), (F, p, phi)
            assert out.resultant == sylvester_resultant(out.P, out.Q)
        for G, mv, o in evals:
            assert o == ord_res_by_determinant(G, p, mv)
        assert phi == cert.conjugator
        assert counts == {"descent_steps": len(steps), "ord_res_evals": len(evals)}
        assert cert.ord_min == ord_res_by_determinant(F, p, phi)
        total += len(steps)
    assert total >= 100


def test_bad_places_on_bench_style_conjugates_takes_no_determinant(monkeypatch):
    # the descent reads every resultant off the transformation law, so once
    # the map's own Res is cached, bad_places computes no determinant
    maps = [F for F, _ in _bench_style_maps(random.Random(240240), 24)]
    for F in maps:
        F.resultant_primes  # the map's Res and its factorization, cached
    calls = []
    real = arith.bareiss_det

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dynheights") and getattr(mod, "bareiss_det", None) is real:
            monkeypatch.setattr(mod, "bareiss_det", counting)
    with telemetry.counting() as counts:
        reports = [bad_places(F) for F in maps]
    assert calls == []
    assert counts["descent_steps"] >= 30
    # the counter is live: verifying the certificates takes determinants
    assert all(c.verify(F) for F, r in zip(maps, reports) for c in r.certificates)
    assert calls


def test_minimality_witness_over_oracle_ball(z2_plus_half):
    from dynheights.reduction import _oracle_vertices

    cert = minimal_resultant_ord(z2_plus_half, 2)
    for phi in _oracle_vertices(z2_plus_half, 2, 3).values():
        assert cert.ord_min <= ord_res_at(z2_plus_half, 2, phi)


# ---------------------------------------------------------------------------
# Bad places and the resultant height
# ---------------------------------------------------------------------------


def test_bad_places_examples(monomial, three_z2, z2_plus_half):
    rep = bad_places(monomial)
    assert rep.bad_primes == () and rep.s == 1 and rep.includes_archimedean
    rep = bad_places(three_z2)
    assert rep.bad_primes == () and rep.s == 1
    rep = bad_places(z2_plus_half)
    assert rep.bad_primes == ((2, 2),) and rep.s == 2


def test_h_res_examples(monomial, three_z2, z2_plus_half):
    assert h_res(monomial).finite_part == 0.0
    assert h_res(three_z2).finite_part == 0.0
    hr = h_res(z2_plus_half)
    assert hr.finite_part == pytest.approx(2 * math.log(2), rel=1e-12)
    assert hr.arch_upper_bound_only
    assert hr.total >= hr.finite_part


def test_h_res_on_coefficients_beyond_the_float_range():
    # 10^400 z^2 + 1: |Res| / max|coeff|^4 underflows to 0.0 on every conjugate
    hr = h_res(lift([10**400, 0, 1], [0, 0, 1]))
    assert math.isfinite(hr.arch_term)
    assert 0.0 < hr.arch_term <= 800 * math.log(10)  # the identity is in the family


def test_integer_arch_family_matches_mobius_oracle():
    # every map has a Res prime in [5, 300], so the family reaches its cap;
    # the last one has Res = 3^2 * 8149259477
    rng = random.Random(2024)
    maps = []
    while len(maps) < 60:
        F = random_lift(rng, rng.choice([2, 3, 4]), coeff_bound=9)
        if 5 <= max(F.resultant_primes, default=0) <= 300:
            maps.append(F)
    maps.append(lift([114, 213, -513], [875, -243, -733]))
    for F in maps:
        family = _arch_conjugator_family(F)
        oracle = mobius_arch_family(F)
        assert len(family) == 600
        assert [tuple(Fraction(e, den) for e in m) for *m, den in family] == [
            (phi.a, phi.b, phi.c, phi.d) for phi in oracle
        ]
        assert _arch_best_ratio(F) == mobius_arch_best_ratio(F, oracle)


def _arch_skip_maps():
    """261 seeded maps, d = 2..4: random ones, polynomials whose Res primes
    lie in {2, 3, 5, 7}, conjugates by z -> 7^k z + j or its transpose, and
    10^400 z^2 + 1."""
    rng = random.Random(3232)
    smooth = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 21, 28, 35]
    maps = [random_lift(rng, rng.choice([2, 3, 4]), coeff_bound=9) for _ in range(110)]
    for _ in range(80):  # Res(P, c y^d) = +-(a_d c)^d, and a_d and c are 7-smooth
        d = rng.choice([2, 3, 4])
        p = [rng.choice(smooth) * rng.choice([1, -1])]
        p += [rng.randint(-9, 9) for _ in range(d)]
        maps.append(lift(p, [0] * d + [rng.choice(smooth)]))
    for _ in range(70):
        F = random_lift(rng, rng.choice([2, 3, 4]), coeff_bound=9)
        q, j = 7 ** rng.randint(5, 40), rng.randint(1, 48)
        maps.append(conjugate(F, Mobius(q, j, 0, 1) if rng.random() < 0.5 else Mobius(q, 0, j, 1)))
    maps.append(lift([10**400, 0, 1], [0, 0, 1]))
    return maps


def test_arch_skip_matches_the_full_scan():
    maps = _arch_skip_maps()
    assert sum(set(F.resultant_primes) <= {2, 3, 5, 7} for F in maps) >= 80
    assert sum(F.max_abs_coeff() > 10**30 for F in maps) >= 60
    members = conjugated = not_identity = below_cap = 0
    for F in maps:
        with telemetry.counting() as counts:
            ratio = _arch_best_ratio(F)
        family, n = counts["arch_family"], counts["arch_conjugated"]
        assert ratio == arch_best_ratio_full_scan(F)
        assert 1 <= n <= family == len(_arch_conjugator_family(F))
        members += family
        conjugated += n
        below_cap += family < _ARCH_FAMILY_CAP
        not_identity += ratio > Fraction(abs(F.resultant), F.max_abs_coeff() ** (2 * F.d))
    assert not_identity >= 100 and below_cap >= 20
    # the skip is the point: most members never reach a full conjugation
    assert conjugated * 10 < members


def test_h_res_and_bad_places_unimodular_invariance():
    rng = random.Random(4242)
    shears = [Mobius(1, 1, 0, 1), Mobius(1, 0, -1, 1), Mobius(0, 1, 1, 0)]
    for _ in range(6):
        F = random_lift(rng, 2, coeff_bound=6)
        phi = shears[rng.randrange(len(shears))].compose(
            shears[rng.randrange(len(shears))]
        )
        G = conjugate(F, phi)
        rf, rg = bad_places(F), bad_places(G)
        assert rf.bad_primes == rg.bad_primes
        assert rf.s == rg.s
        assert h_res(F).finite_part == pytest.approx(h_res(G).finite_part, abs=1e-12)


def test_certificate_json_shape(three_z2):
    cert = minimal_resultant_ord(three_z2, 3)
    assert cert.to_json_dict() == {
        "p": 3,
        "ord_start": 2,
        "ord_min": 0,
        "conjugator": [["3", "0"], ["0", "1"]],
        "method": "descent",
    }
