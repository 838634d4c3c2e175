import math
import random
from fractions import Fraction

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
    evaluate_lift,
    milnor_invariants,
    normalized_resultant_abs,
    sylvester_resultant,
)
from dynheights.arith import ord_int, prime_factors_abs
from dynheights.maps_core import _conjugate_forms, _integral_matrix, sylvester_matrix

from conftest import lift, random_lift
from oracles import naive_resultant, sigma_numeric


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


def test_normalized_resultant_scaling_invariance_arch(monomial):
    doubled = monomial.scaled(2)
    cv = normalized_resultant_abs(doubled, Place.archimedean())
    assert abs(cv.value - 1.0) <= 1e-12


def test_normalized_resultant_three_z2_at_3(three_z2):
    assert normalized_resultant_abs(three_z2, Place.finite(3)) == Fraction(1, 9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-40, max_value=40).filter(lambda c: c != 0), st.integers(0, 10**6))
def test_normalized_resultant_lift_invariance(c, seed):
    rng = random.Random(seed)
    F = random_lift(rng, rng.choice([2, 3]), coeff_bound=6)
    G = F.scaled(c)
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
    # M is phi's matrix scaled to integer entries; on the raw integer conjugate
    # M o F o adj(M), Res = det(M)^(d^2+d) Res(F), and conjugate() is its
    # canonical lift, a lift of phi o f o phi^-1
    rng = random.Random(99)
    for _ in range(15):
        d = rng.choice([2, 3])
        F = random_lift(rng, d, coeff_bound=5)
        a = Fraction(rng.randint(1, 4))
        b = Fraction(rng.randint(-3, 3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        dd = Fraction(rng.randint(1, 4))
        if a * dd - b * c == 0:
            continue
        phi = Mobius(a, b, c, dd)
        m = _integral_matrix(phi)
        (ma, mb), (mc, md) = m
        assert all(type(e) is int for e in (ma, mb, mc, md))
        scale = Fraction(ma) / phi.a
        assert (mb, mc, md) == (scale * phi.b, scale * phi.c, scale * phi.d)
        g0, g1 = _conjugate_forms(F, m)
        P, Q = BinaryForm(tuple(g0)), BinaryForm(tuple(g1))
        assert sylvester_resultant(P, Q) == (ma * md - mb * mc) ** (d * d + d) * F.resultant
        G = conjugate(F, phi)
        assert G == HomogeneousLift(P, Q).normalized()
        for x in (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(-2, 3)):
            assert apply_map(G, phi.apply(x)) == phi.apply(apply_map(F, x))


# ---------------------------------------------------------------------------
# Evaluation and point mapping
# ---------------------------------------------------------------------------


def test_evaluate_lift(monomial):
    assert evaluate_lift(monomial, (2, 1)) == (4, 1)
    F = lift([1, 0, 1], [0, 1, 0])  # (x^2 + y^2, x y)
    assert evaluate_lift(F, (1, 1)) == (2, 1)
    assert evaluate_lift(lift([3, 0, 0], [0, 0, 1]), (0, 1)) == (0, 1)


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
    rng = random.Random(seed)
    F = random_lift(rng, 2, coeff_bound=8)
    x = ProjPoint(rng.randint(-9, 9) or 1, rng.randint(0, 9))
    assert apply_map(F, x) == apply_map(F.scaled(c), x)


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
    assert phi.compose(phi.inverse()).rows() == Mobius.identity().rows()
    assert phi.apply(ProjPoint(1, 1)) == ProjPoint(3, 1)
    with pytest.raises(InputError):
        Mobius(1, 2, 2, 4)


def test_place_validation():
    assert Place.finite(7).prime == 7
    assert Place.archimedean().is_archimedean
    with pytest.raises(InputError):
        Place.finite(6)


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
