import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primerange

from dynheights import CertifiedValue, HomogeneousLift, InputError, ProjPoint
from dynheights.arith import (
    bareiss_det,
    content,
    is_prime,
    ord_fraction,
    ord_int,
    prime_factors_abs,
)
from dynheights.certified import log_abs_certified, log_rational_multiple
from dynheights.formats import forms_from_json_dict, map_hash, parse_pair, parse_point

from oracles import det_cofactor


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**30), st.sampled_from([2, 3, 5, 97]), st.integers(0, 200))
def test_ord_int_matches_naive(unit, p, e):
    if unit % p == 0:
        unit += 1
    n = unit * p**e
    assert ord_int(n, p) == e
    assert ord_int(-n, p) == e


def test_ord_fraction():
    assert ord_fraction(Fraction(9, 2), 3) == 2
    assert ord_fraction(Fraction(1, 27), 3) == -3
    assert ord_fraction(0, 3) == float("inf")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**9))
def test_bareiss_matches_cofactor(n, seed):
    rng = random.Random(seed)
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    assert bareiss_det(m) == det_cofactor(m)


def test_content():
    assert content([6, 10, -4]) == 2
    assert content([0, 0, 7]) == 7
    assert content([]) == 0


# ---------------------------------------------------------------------------
# Primality and factorization against sympy
# ---------------------------------------------------------------------------


def test_is_prime_matches_sympy():
    assert [n for n in range(-5, 10**6) if is_prime(n)] == list(primerange(2, 10**6))
    rng = random.Random(18)
    for _ in range(10**5):
        n = rng.randrange(10 ** rng.randint(6, 30))
        assert is_prime(n) == isprime(n), n


def _carmichael(n: int) -> bool:
    """Korselt's criterion: n composite, squarefree, and p - 1 | n - 1 for every p | n."""
    f = factorint(n)
    return len(f) > 1 and all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in f.items())


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    # the least strong pseudoprimes to the first 4, 9, 12 and 13 prime bases:
    # the 13-base one is where the Miller-Rabin range ends
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981):
        assert not is_prime(n) and not isprime(n)
    # Chernick's (6k+1)(12k+1)(18k+1) with three prime factors, below and above 2^64
    chernick = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in list(range(1, 400)) + list(range(10**7, 10**7 + 3000))
        if isprime(6 * k + 1) and isprime(12 * k + 1) and isprime(18 * k + 1)
    ]
    assert len(chernick) > 20 and chernick[-1] > 2**64
    for n in [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 75361, 101101] + chernick:
        assert _carmichael(n) and not is_prime(n), n
    assert is_prime(8149259477) and is_prime(2**61 - 1)


def test_is_prime_base_tiers_reject_their_bounds():
    from sympy import prevprime
    from sympy.ntheory.primetest import mr

    from dynheights.arith import _MR_BASES, _MR_TIERS

    for bound, k in _MR_TIERS:
        # the bound is a strong pseudoprime to the tier's own bases, so the
        # next tier's bases must be the ones that reject it
        assert mr(bound, _MR_BASES[:k]) and not isprime(bound), bound
        assert not is_prime(bound), bound
        assert is_prime(prevprime(bound)), bound
    rng = random.Random(20)
    for _ in range(10**5):
        n = rng.randrange(2**16, 10**12 + 1)
        assert is_prime(n) == isprime(n), n


def _factor_cases(rng, count):
    """Seeded integers up to about 10^30 whose sympy factorization is quick."""
    small = list(primerange(2, 1000))
    near = list(primerange(2**16 - 300, 2**16 + 300))  # both sides of the table's end
    for i in range(count):
        kind = i % 5
        if kind == 0:
            n = rng.randrange(1, 10 ** rng.randint(1, 15))
        elif kind == 1:  # prime powers up to p^20, times a little
            n = rng.choice(small) ** rng.randint(1, 20) * rng.randrange(1, 1000)
        elif kind == 2:
            n = rng.choice(near) * rng.choice(near) * rng.randrange(1, 10**4)
        elif kind == 3:  # a composite cofactor without a factor below 2^16
            n = nextprime(rng.randrange(2**16, 2**22)) * nextprime(rng.randrange(2**16, 2**22))
            n *= rng.randrange(1, 10**6)
        else:  # a smooth part and one large prime
            n = rng.randrange(1, 10**6) * nextprime(rng.randrange(2**16, 10 ** rng.randint(6, 24)))
        yield n * rng.choice((1, -1))


def test_prime_factors_abs_matches_factorint():
    rng = random.Random(18)
    for n in _factor_cases(rng, 2000):
        assert prime_factors_abs(n) == factorint(abs(n)), n
    for n in (0, 1, -1):
        assert prime_factors_abs(n) == {}
    assert prime_factors_abs(2**800 * 5**800) == {2: 800, 5: 800}


# ---------------------------------------------------------------------------
# Certified values
# ---------------------------------------------------------------------------


def test_certified_invariants():
    with pytest.raises(ValueError):
        CertifiedValue(1.0, -1e-9)
    with pytest.raises(ValueError):
        CertifiedValue(1.0, 1e-9, exact=True)
    z = CertifiedValue.exact_zero()
    assert z.value == 0.0 and z.err == 0.0 and z.exact


def test_certified_value_contract():
    cv = CertifiedValue(1.5, 2e-09)
    for name in ("value", "err", "exact", "other"):
        with pytest.raises(AttributeError):
            setattr(cv, name, 0.0)
    with pytest.raises(AttributeError):
        CertifiedValue.exact_zero().value = 1.0
    for bad in (-1e-300, -math.inf, math.nan):
        with pytest.raises(ValueError):
            CertifiedValue(1.0, bad)
        with pytest.raises(ValueError):
            cv._replace(err=bad)
    with pytest.raises(ValueError):
        CertifiedValue(1.0, 1e-300, exact=True)
    assert cv == CertifiedValue(1.5, 2e-09, False) and hash(cv) == hash(CertifiedValue(1.5, 2e-09))
    assert cv != CertifiedValue(1.5, 2e-09, exact=False).widen(1e-20)
    assert CertifiedValue.exact_zero() == CertifiedValue(0.0, 0.0, exact=True)
    assert hash(CertifiedValue.exact_zero()) == hash(CertifiedValue(0.0, 0.0, exact=True))
    assert repr(cv) == "CertifiedValue(value=1.5, err=2e-09, exact=False)"
    assert repr(CertifiedValue.exact_zero()) == "CertifiedValue(value=0.0, err=0.0, exact=True)"
    assert cv.to_json_dict() == {"value": 1.5, "err": 2e-09, "exact": False}
    text = json.dumps(cv.to_json_dict(), sort_keys=True)
    assert text == '{"err": 2e-09, "exact": false, "value": 1.5}'


def test_certified_addition_is_outward():
    a = CertifiedValue(1.0, 1e-10)
    b = CertifiedValue(2.0, 3e-10)
    c = a + b
    assert c.value == 3.0
    assert c.err >= 4e-10
    assert not c.exact


def test_certified_exact_chains_stay_exact():
    z = CertifiedValue.exact_zero()
    one = CertifiedValue.exact_float(1.0)
    total = z + one + one  # exact float additions keep the exact flag
    assert total.value == 2.0 and total.err == 0.0 and total.exact
    assert total.scale(2.0).exact
    # an addition that genuinely rounds must surrender exactness
    tiny = CertifiedValue.exact_float(1e-17)
    s = one + tiny
    assert not s.exact and s.err >= 1e-17 - 1e-32


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e6, 1e6), st.floats(0, 1e-3),
    st.floats(-1e6, 1e6), st.floats(0, 1e-3),
)
def test_certified_addition_contains_true_sum(v1, e1, v2, e2):
    import mpmath

    a, b = CertifiedValue(v1, e1), CertifiedValue(v2, e2)
    c = a + b
    # worst-case true values at the interval edges stay inside the result;
    # exact rational arithmetic leaves no room for reference rounding
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            truth = Fraction(v1) + s1 * Fraction(e1) + Fraction(v2) + s2 * Fraction(e2)
            assert abs(Fraction(c.value) - truth) <= Fraction(c.err)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=Fraction(-10**9), max_value=Fraction(10**9)).filter(lambda q: q != 0),
)
def test_log_abs_certified_contains_truth(q):
    cv = log_abs_certified(q)
    import mpmath

    truth = float(mpmath.log(abs(mpmath.mpf(q.numerator)) / q.denominator))
    assert abs(cv.value - truth) <= cv.err + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)),
    st.sampled_from([2, 3, 5, 13]),
)
def test_log_rational_multiple_contains_truth(q, p):
    cv = log_rational_multiple(q, p)
    import mpmath

    truth = float(mpmath.mpf(q.numerator) / q.denominator * mpmath.log(p))
    assert abs(cv.value - truth) <= cv.err + 1e-15


def test_div_int():
    cv = CertifiedValue(1.0, 1e-12).div_int(3)
    assert cv.value == pytest.approx(1 / 3)
    assert cv.err >= 1e-12 / 3
    assert CertifiedValue.exact_zero().div_int(6).exact


def test_mul_int():
    cv = CertifiedValue(1 / 3, 1e-12).mul_int(1770)
    assert cv.value == 1770 * (1 / 3)
    assert cv.err >= 1770 * 1e-12 + abs(Fraction(cv.value) - 1770 * Fraction(1 / 3))
    assert not cv.exact
    assert CertifiedValue.exact_zero().mul_int(6) == CertifiedValue.exact_zero()
    assert CertifiedValue.exact_float(0.75).mul_int(-12) == CertifiedValue.exact_float(-9.0)
    inexact = CertifiedValue.exact_float(0.1).mul_int(3)  # 3 * 0.1 rounds
    assert not inexact.exact and inexact.err >= abs(Fraction(inexact.value) - 3 * Fraction(0.1))


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


def _lift(obj):
    """The canonical lift of a map in the wire format."""
    return HomogeneousLift(*forms_from_json_dict(obj))


def test_map_json_round_trip():
    obj = {"d": 2, "P": ["1", "0", "-1"], "Q": ["0", "0", "1"]}
    F = _lift(obj)
    assert [str(c) for c in F.P.descending()] == obj["P"]
    assert [str(c) for c in F.Q.descending()] == obj["Q"]
    assert len(map_hash(F)) == 16
    assert map_hash(F) == map_hash(_lift(json.loads(json.dumps(obj))))


def test_map_json_rejects_malformed():
    with pytest.raises(InputError):
        _lift({"d": 2, "P": ["1", "0"], "Q": ["0", "0", "1"]})
    with pytest.raises(InputError):
        _lift({"d": 2, "P": ["1", "0", "x"], "Q": ["0", "0", "1"]})


def test_map_json_is_strict():
    # JSON integers and ASCII digit strings are the same coefficients
    as_ints = _lift({"d": 2, "P": [1, 0, -1], "Q": [0, 0, 1]})
    assert as_ints == _lift({"d": 2, "P": ["1", "0", "-1"], "Q": ["0", "0", "1"]})
    q = ["0", "0", "1"]
    for obj in (
        {"d": 2, "P": "102", "Q": q},
        {"d": 2.5, "P": ["1", "0", "2"], "Q": q},
        {"d": float("inf"), "P": ["1", "0", "2"], "Q": q},
        {"d": "2", "P": ["1", "0", "2"], "Q": q},
        {"d": True, "P": ["1", "0"], "Q": ["0", "1"]},
        {"d": 2, "P": ["1_0", "0", "2"], "Q": q},
        {"d": 2, "P": ["+1", "0", "2"], "Q": q},
        {"d": 2, "P": [" 2", "0", "2"], "Q": q},
        {"d": 2, "P": ["\u0663", "0", "2"], "Q": q},
        {"d": 2, "P": [1.0, 0, 2], "Q": q},
        {"d": 2, "P": [False, 0, 2], "Q": q},
        ["d", "P", "Q"],
    ):
        with pytest.raises(InputError):
            _lift(obj)


def test_point_parsing():
    assert parse_point("[2:1]") == ProjPoint(2, 1)
    assert parse_point(" [ -4 : 2 ] ") == ProjPoint(-2, 1)
    with pytest.raises(InputError):
        parse_point("[2:1")
    with pytest.raises(InputError):
        parse_point("[1/2:1]")  # rationals only allowed for affine pairs
    with pytest.raises(InputError):
        parse_point("[\u0663:1]")  # ASCII digits only
    with pytest.raises(InputError):
        parse_pair("[1/\u0662\u0667:1]")
    assert parse_pair("[1/27:1]") == (Fraction(1, 27), Fraction(1))


def test_binary_form_invariants():
    with pytest.raises(InputError):
        HomogeneousLift.from_coeffs([1, 0], [0, 1])  # degree 1 is not a dynamical lift
    # zero forms are rejected before any resultant is attempted
    with pytest.raises(InputError):
        HomogeneousLift.from_coeffs([0, 0, 0], [1, 0, 0])
