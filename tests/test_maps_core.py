import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynheights import (
    BinaryForm,
    DegenerateMapError,
    HomogeneousLift,
    InputError,
    Mobius,
    Place,
    ProjPoint,
    UnsupportedDegreeError,
    apply_map,
    conjugate,
    milnor_invariants,
    sylvester_resultant,
)
from dynheights.arith import ord_int, prime_factors_abs
from dynheights.maps_core import _conjugate_forms, sylvester_matrix

from conftest import conjugation_cases, lift, random_lift
from oracles import (
    conjugate_forms_by_composition,
    milnor_sigmas_by_dmp_resultant,
    naive_resultant,
    normalized_resultant_abs,
    sigma_numeric,
)


# ---------------------------------------------------------------------------
# Sylvester resultant
# ---------------------------------------------------------------------------


def test_resultant_monomial():
    # 4x4 Sylvester determinant of (x^2, y^2) expands to 1
    assert sylvester_resultant(BinaryForm((0, 0, 1)), BinaryForm((1, 0, 0))) == 1


def test_resultant_common_factor_rejected():
    P = BinaryForm((0, 0, 1))
    assert sylvester_resultant(P, P) == 0
    with pytest.raises(DegenerateMapError):
        HomogeneousLift(P, P)


def test_resultant_scaling():
    # Res(cP, Q) = c^d Res(P, Q): 3^2 * 1 = 9
    assert sylvester_resultant(BinaryForm((0, 0, 3)), BinaryForm((1, 0, 0))) == 9


def test_resultant_degree_mismatch():
    with pytest.raises(InputError):
        sylvester_resultant(BinaryForm((0, 1)), BinaryForm((1, 0, 0)))


def test_resultant_against_cofactor_expansion():
    rng = random.Random(1812)
    for _ in range(40):
        d = rng.choice([2, 3])
        p = [rng.randint(-9, 9) for _ in range(d + 1)]
        q = [rng.randint(-9, 9) for _ in range(d + 1)]
        ours = sylvester_resultant(BinaryForm(tuple(p)), BinaryForm(tuple(q)))
        assert ours == naive_resultant(p[::-1], q[::-1])


# ---------------------------------------------------------------------------
# Normalized resultant absolute value
# ---------------------------------------------------------------------------


def test_normalized_resultant_monomial_arch(monomial):
    assert normalized_resultant_abs(monomial, Place.archimedean()).value == 1.0


def test_normalized_resultant_three_z2_at_3(three_z2):
    assert normalized_resultant_abs(three_z2, Place.finite(3)) == Fraction(1, 9)


def _raw_forms(rng, d, bound):
    """A random pair of degree-d forms with nonzero resultant, not reduced."""
    while True:
        P = BinaryForm(tuple(rng.randint(-bound, bound) for _ in range(d + 1)))
        Q = BinaryForm(tuple(rng.randint(-bound, bound) for _ in range(d + 1)))
        if not (P.is_zero or Q.is_zero) and sylvester_resultant(P, Q) != 0:
            return P, Q


def _scaled(P, Q, c):
    return BinaryForm(tuple(c * a for a in P.coeffs)), BinaryForm(tuple(c * a for a in Q.coeffs))


def test_normalized_resultant_scaling_invariance_arch(monomial):
    doubled = HomogeneousLift(*_scaled(monomial.P, monomial.Q, 2))
    cv = normalized_resultant_abs(doubled, Place.archimedean())
    assert abs(cv.value - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-40, max_value=40).filter(lambda c: c != 0), st.integers(0, 10**6))
def test_normalized_resultant_lift_invariance(c, seed):
    # scaling the forms changes their resultant by c^(2d) but not the map:
    # both build the same (canonical) lift, so |Res|_v normalized agrees
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    P, Q = _raw_forms(rng, d, 6)
    cP, cQ = _scaled(P, Q, c)
    assert sylvester_resultant(cP, cQ) == c ** (2 * d) * sylvester_resultant(P, Q)
    F, G = HomogeneousLift(P, Q), HomogeneousLift(cP, cQ)
    assert G == F
    vec = F.coefficient_vector()
    assert math.gcd(*vec) == 1 and next(a for a in vec if a != 0) > 0
    for p in (2, 3, 5, 7):
        assert normalized_resultant_abs(F, Place.finite(p)) == normalized_resultant_abs(
            G, Place.finite(p)
        )
    a = normalized_resultant_abs(F, Place.archimedean()).value
    b = normalized_resultant_abs(G, Place.archimedean()).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def test_conjugate_identity(monomial):
    assert conjugate(monomial, Mobius.identity()) == monomial


def test_conjugate_diag_removes_content(three_z2, monomial):
    # 3 z^2 conjugated by z -> 3z is z^2; ord_3 of Res drops 2 -> 0
    G = conjugate(three_z2, Mobius.diagonal(3, 1))
    assert G == monomial
    assert ord_int(three_z2.resultant, 3) == 2
    assert ord_int(G.resultant, 3) == 0


def test_conjugate_swap_fixes_monomial(monomial, inverse_square):
    # z -> 1/z conjugates z^2 to itself (0 and infinity trade places);
    # the swapped pair (y^2, x^2) is the distinct map 1/z^2, not a conjugate:
    # its multiplier invariants differ.
    assert conjugate(monomial, Mobius(0, 1, 1, 0)) == monomial
    assert milnor_invariants(inverse_square).sigma1 != milnor_invariants(monomial).sigma1


def test_conjugate_resultant_transformation():
    # on the raw integer conjugate M o F o adj(M), Res = det(M)^(d^2+d) Res(F),
    # and conjugate() is its canonical lift, a lift of phi o f o phi^-1
    rng = random.Random(99)
    for _ in range(15):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=5)
        m = ((rng.randint(1, 12), rng.randint(-9, 9)), (rng.randint(-9, 9), rng.randint(1, 12)))
        (ma, mb), (mc, md) = m
        if ma * md - mb * mc == 0:
            continue
        phi = Mobius(ma, mb, mc, md)
        g0, g1 = _conjugate_forms(F, m)
        P, Q = BinaryForm(tuple(g0)), BinaryForm(tuple(g1))
        assert sylvester_resultant(P, Q) == (ma * md - mb * mc) ** (d * d + d) * F.resultant
        G = conjugate(F, phi)
        assert G == HomogeneousLift(P, Q)
        for x in (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(-2, 3)):
            assert apply_map(G, phi.apply(x)) == phi.apply(apply_map(F, x))


def test_conjugate_resultant_follows_the_law_with_its_sign():
    # conjugate() carries det(M)^(d^2+d) Res(F) / g^(2d) as its resultant,
    # computed by no determinant; it must be the Sylvester determinant of
    # the forms it holds, sign included
    seen = Counter()
    for F, M, _ in conjugation_cases(6161, 1000):
        G = conjugate(F, M)
        assert G.resultant == sylvester_resultant(G.P, G.Q), (F, M)
        g0, g1 = _conjugate_forms(F, M.rows())
        seen["content > 1"] += math.gcd(*g0, *g1) > 1
        seen["|det| > 1"] += abs(M.det) > 1
        seen["det < 0"] += M.det < 0
        seen["Res < 0"] += G.resultant < 0
        seen["Res > 0"] += G.resultant > 0
    assert min(seen.values()) >= 100, seen
    # a known Res given with forms of content > 1 is dropped with the content
    F = HomogeneousLift._with_resultant(BinaryForm((0, 0, 6)), BinaryForm((4, 0, 0)), 6**2 * 4**2)
    assert (F.P.coeffs, F.Q.coeffs, F.resultant) == ((0, 0, 3), (2, 0, 0), 36)


def test_conjugate_forms_matches_composition_oracle():
    rng = random.Random(11)
    for _ in range(3000):
        F = random_lift(rng, rng.choice([2, 3, 4]), coeff_bound=300)
        m = tuple(tuple(rng.randint(-300, 300) for _ in range(2)) for _ in range(2))
        assert _conjugate_forms(F, m) == conjugate_forms_by_composition(F, m)


def test_conjugate_extreme_coefficients_are_values_at_adjugate_columns():
    # H = M o F o adj(M) has H(x, 0) = x^d M F(d, -c) and H(0, y) = y^d M F(-b, a):
    # the x^d and y^d coefficients are M F at the columns of adj(M).  The
    # lemma is about forms, so degree 1 and Res = 0 are included
    rng = random.Random(3201)
    dets = []
    for i in range(600):
        d = 1 + i % 5
        if i % 3 == 0:  # a product of shears, swaps and a sign: det = +-1
            m = Mobius(1, 0, 0, rng.choice([1, -1]))
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(-5, 5)
                m = rng.choice([Mobius(1, k, 0, 1), Mobius(1, 0, k, 1), Mobius(0, 1, 1, 0)]).compose(m)
            (a, b), (c, dd) = m.rows()
        else:
            bound = rng.choice([2, 9, 10**12])
            a, b, c, dd = (rng.randint(-bound, bound) for _ in range(4))
        F = SimpleNamespace(
            d=d,
            P=BinaryForm(tuple(rng.randint(-20, 20) for _ in range(d + 1))),
            Q=BinaryForm(tuple(rng.randint(-20, 20) for _ in range(d + 1))),
        )
        g0, g1 = _conjugate_forms(F, ((a, b), (c, dd)))
        for x, y, k in ((dd, -c, d), (-b, a, 0)):
            p, q = F.P.evaluate(x, y), F.Q.evaluate(x, y)
            assert (g0[k], g1[k]) == (a * p + b * q, c * p + dd * q)
        dets.append((a * dd - b * c, 0 in (a, b, c, dd)))
    assert sum(det < 0 for det, _ in dets) >= 100
    assert sum(abs(det) == 1 for det, _ in dets) >= 150
    assert sum(has_zero for _, has_zero in dets) >= 100


# ---------------------------------------------------------------------------
# Evaluation and point mapping
# ---------------------------------------------------------------------------


def test_evaluate_lift(monomial):
    def evaluate(F, x, y):
        return F.P.evaluate(x, y), F.Q.evaluate(x, y)

    assert evaluate(monomial, 2, 1) == (4, 1)
    F = lift([1, 0, 1], [0, 1, 0])  # (x^2 + y^2, x y)
    assert evaluate(F, 1, 1) == (2, 1)
    assert evaluate(lift([3, 0, 0], [0, 0, 1]), 0, 1) == (0, 1)
    assert evaluate(F, Fraction(1, 2), Fraction(1)) == (Fraction(5, 4), Fraction(1, 2))


def test_apply_map_examples(monomial, z2_minus_1):
    assert apply_map(monomial, ProjPoint(2, 1)) == ProjPoint(4, 1)
    assert apply_map(z2_minus_1, ProjPoint(1, 1)) == ProjPoint(0, 1)
    assert apply_map(monomial, ProjPoint(1, 0)) == ProjPoint(1, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=-30, max_value=30).filter(lambda c: c != 0),
    st.integers(0, 10**6),
)
def test_apply_map_scale_invariance(c, seed):
    # the lift of the scaled forms maps points as the raw forms do
    rng = random.Random(seed)
    P, Q = _raw_forms(rng, 2, 8)
    F, G = HomogeneousLift(P, Q), HomogeneousLift(*_scaled(P, Q, c))
    x = ProjPoint(rng.randint(-9, 9) or 1, rng.randint(0, 9))
    image = ProjPoint(P.evaluate(x.x0, x.x1), Q.evaluate(x.x0, x.x1))
    assert apply_map(F, x) == apply_map(G, x) == image


# ---------------------------------------------------------------------------
# Points, Moebius maps, places
# ---------------------------------------------------------------------------


def test_projpoint_canonicalization():
    assert ProjPoint(4, 2) == ProjPoint(2, 1)
    assert ProjPoint(-3, -6) == ProjPoint(1, 2)
    assert ProjPoint(2, -1) == ProjPoint(-2, 1)
    assert ProjPoint(-5, 0) == ProjPoint(1, 0)
    with pytest.raises(InputError):
        ProjPoint(0, 0)


def test_mobius_basics():
    phi = Mobius(2, 1, 0, 1)
    assert phi.compose(phi.inverse()).rows() == ((2, 0), (0, 2))  # the adjugate: det * I
    assert phi.apply(ProjPoint(1, 1)) == ProjPoint(3, 1)
    phi = Mobius(3, 5, -2, 7)
    assert phi.inverse().compose(phi).rows() == ((phi.det, 0), (0, phi.det))
    assert phi.apply(ProjPoint(1, 1)) == ProjPoint(8, 5)
    with pytest.raises(InputError):
        Mobius(1, 2, 2, 4)
    for entry in (Fraction(1, 2), Fraction(2)):  # integer matrices only
        with pytest.raises(InputError):
            Mobius(entry, 0, 0, 1)


def test_place_validation():
    assert Place.archimedean().is_archimedean
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (0, 1, -3, 4, 6, 561, 3215031751):
        with pytest.raises(InputError):
            Place.finite(n)
    for p in (2, 7, 41, 971, 8149259477):
        assert Place.finite(p).prime == p


# ---------------------------------------------------------------------------
# Milnor invariants
# ---------------------------------------------------------------------------


def test_milnor_monomial(monomial):
    inv = milnor_invariants(monomial)
    assert (inv.sigma1, inv.sigma2) == (Fraction(2), Fraction(0))
    assert inv.sigma3 == inv.sigma1 - 2
    assert inv.moduli_height.value == pytest.approx(math.log(2), abs=1e-12)


def test_milnor_z2_minus_1(z2_minus_1):
    inv = milnor_invariants(z2_minus_1)
    assert inv.sigma3 == inv.sigma1 - 2
    s1, s2, s3 = sigma_numeric(z2_minus_1)
    assert abs(complex(inv.sigma1) - s1) < 1e-9
    assert abs(complex(inv.sigma2) - s2) < 1e-9
    assert abs(complex(inv.sigma3) - s3) < 1e-9


def test_milnor_inverse_square(inverse_square):
    inv = milnor_invariants(inverse_square)
    assert (inv.sigma1, inv.sigma2, inv.sigma3) == (Fraction(-6), Fraction(12), Fraction(-8))
    assert inv.sigma3 == inv.sigma1 - 2
    s1, s2, s3 = sigma_numeric(inverse_square)
    assert abs(complex(inv.sigma1) - s1) < 1e-9


def test_milnor_rejects_cubics():
    with pytest.raises(UnsupportedDegreeError):
        milnor_invariants(lift([1, 0, 0, 0], [0, 0, 0, 1]))


def test_milnor_parabolic_cases():
    # z^2 + z: parabolic double fixed point at 0 (multiplier 1 twice) plus a
    # simple superattracting infinity: multipliers {1, 1, 0}
    inv = milnor_invariants(lift([1, 1, 0], [0, 0, 1]))
    assert (inv.sigma1, inv.sigma2, inv.sigma3) == (Fraction(2), Fraction(1), Fraction(0))
    # z + 1/z: infinity fixed with multiplicity three, multipliers {1, 1, 1}
    inv = milnor_invariants(lift([1, 0, 1], [0, 1, 0]))
    assert (inv.sigma1, inv.sigma2, inv.sigma3) == (Fraction(3), Fraction(3), Fraction(1))
    s1, s2, s3 = sigma_numeric(lift([1, 0, 1], [0, 1, 0]))
    assert abs(s1 - 3) < 1e-9 and abs(s2 - 3) < 1e-9 and abs(s3 - 1) < 1e-9


def test_milnor_matches_numeric_fixed_points():
    rng = random.Random(2024)
    for _ in range(40):
        F = random_lift(rng, 2, coeff_bound=10)
        inv = milnor_invariants(F)
        for exact, numeric in zip((inv.sigma1, inv.sigma2, inv.sigma3), sigma_numeric(F)):
            assert abs(complex(exact) - numeric) <= 1e-9 * max(1.0, abs(numeric))


def test_milnor_matches_dmp_resultant_oracle():
    rng = random.Random(1818)
    maps = [random_lift(rng, 2, coeff_bound=rng.choice([3, 10, 1000, 10**12])) for _ in range(500)]
    # the Milnor-chart maps of the CLI digest panel: z^2 + z, z + 1/z, 10^400 z^2 + 1
    maps += [lift([1, 1, 0], [0, 0, 1]), lift([1, 0, 1], [0, 1, 0]), lift([10**400, 0, 1], [0, 0, 1])]
    for F in maps:
        inv = milnor_invariants(F)
        assert (inv.sigma1, inv.sigma2, inv.sigma3) == milnor_sigmas_by_dmp_resultant(F), F


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_milnor_index_relation_random(seed):
    rng = random.Random(seed)
    inv = milnor_invariants(random_lift(rng, 2, coeff_bound=10))
    assert inv.sigma3 == inv.sigma1 - 2


# ---------------------------------------------------------------------------
# Product formula
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=10**6),
)
def test_product_formula(num, den):
    r = Fraction(num, den)
    # exact form: the prime factorization reconstructs |r|
    factors = {}
    for p, e in prime_factors_abs(r.numerator).items():
        factors[p] = factors.get(p, 0) + e
    for p, e in prime_factors_abs(r.denominator).items():
        factors[p] = factors.get(p, 0) - e
    rebuilt = Fraction(1)
    for p, e in factors.items():
        rebuilt *= Fraction(p) ** e
    assert rebuilt == abs(r)
    # float form: log|r|_inf + sum_p log|r|_p = 0
    total = math.log(abs(r.numerator)) - math.log(r.denominator)
    for p, e in factors.items():
        total -= e * math.log(p)
    assert abs(total) <= 1e-9


def test_sylvester_matrix_shape(monomial):
    m = sylvester_matrix(monomial.P, monomial.Q)
    assert len(m) == 4 and all(len(row) == 4 for row in m)
