import os
import random
from pathlib import Path

import pytest

from dynheights import HomogeneousLift

# the CLI tests start child interpreters, which must import the package from
# src/ as this process does
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def lift(p_desc, q_desc):
    """Build a lift from descending coefficient lists (wire order)."""
    return HomogeneousLift.from_coeffs(p_desc[::-1], q_desc[::-1])


@pytest.fixture
def monomial():
    """z^2, the lift (x^2, y^2)."""
    return lift([1, 0, 0], [0, 0, 1])


@pytest.fixture
def z2_minus_1():
    """z^2 - 1, the lift (x^2 - y^2, y^2)."""
    return lift([1, 0, -1], [0, 0, 1])


@pytest.fixture
def three_z2():
    """3 z^2, the lift (3 x^2, y^2): bad-looking at 3, good after conjugation."""
    return lift([3, 0, 0], [0, 0, 1])


@pytest.fixture
def z2_plus_half():
    """z^2 + 1/2, the lift (2 x^2 + y^2, 2 y^2): genuinely bad at 2."""
    return lift([2, 0, 1], [0, 0, 2])


@pytest.fixture
def inverse_square():
    """1/z^2, the lift (y^2, x^2)."""
    return lift([0, 0, 1], [1, 0, 0])


def random_lift(rng: random.Random, d: int, coeff_bound: int = 10) -> HomogeneousLift:
    """Random degree-d map with nonzero resultant, coefficients in [-bound, bound]."""
    while True:
        p = [rng.randint(-coeff_bound, coeff_bound) for _ in range(d + 1)]
        q = [rng.randint(-coeff_bound, coeff_bound) for _ in range(d + 1)]
        if all(c == 0 for c in p) or all(c == 0 for c in q):
            continue
        try:
            return HomogeneousLift.from_coeffs(p, q)
        except Exception:
            continue


def random_point(rng: random.Random, height_cap: int = 20):
    """Random canonical point with max coordinate <= height_cap."""
    from dynheights import ProjPoint

    while True:
        a = rng.randint(-height_cap, height_cap)
        b = rng.randint(0, height_cap)
        if a == 0 and b == 0:
            continue
        return ProjPoint(a, b)


def _unimodular(rng: random.Random):
    """A product of shears, swaps and a sign: det = +-1."""
    from dynheights import Mobius

    m = Mobius(1, 0, 0, rng.choice([1, -1]))
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-5, 5)
        m = rng.choice([Mobius(1, k, 0, 1), Mobius(1, 0, k, 1), Mobius(0, 1, 1, 0)]).compose(m)
    return m


def conjugation_cases(seed: int, n: int):
    """n seeded (F, M, p) for the conjugation law: d = 2-5; maps with small
    coefficients, with coefficients past 10^30 (random, or conjugated by
    7^k z + j), and 10^400 z^2 + 1; matrices of det +-1, of negative det,
    and U (p^a z + j over p^b) V with U, V unimodular, det p^k up to k = 40,
    with p the prime of the case; otherwise p is a small prime."""
    from dynheights import Mobius, conjugate

    rng = random.Random(seed)
    huge_z2 = lift([10**400, 0, 1], [0, 0, 1])
    for i in range(n):
        d = 2 + i % 4
        kind = (i // 4) % 5
        if kind == 0 and d == 2:
            F = huge_z2
        elif kind == 1:
            F = random_lift(rng, d, coeff_bound=10**35)
        elif kind == 2:
            base = random_lift(rng, d, coeff_bound=9)
            F = conjugate(base, Mobius(7 ** rng.randint(5, 40), rng.randint(1, 48), 0, 1))
        else:
            F = random_lift(rng, d, coeff_bound=9)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        shape = (i // 20) % 3
        if shape == 0:
            M = _unimodular(rng)
        elif shape == 1:
            while True:
                a, b, c, e = (rng.randint(-10**6, 10**6) for _ in range(4))
                if a * e - b * c != 0:
                    break
            M = Mobius(a, b, c, e) if a * e - b * c < 0 else Mobius(c, e, a, b)
        else:
            k = rng.randint(1, 40)
            a = rng.randint(0, k)
            tri = Mobius(p**a, rng.randint(-p**k, p**k), 0, p ** (k - a))
            M = _unimodular(rng).compose(tri).compose(_unimodular(rng))
        yield F, M, p
