import os
import random
from pathlib import Path

import pytest

from dynheights import HomogeneousLift

# the CLI tests start child interpreters, which must import the package from
# src/ as this process does
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def lift(p_desc, q_desc, normalized=True):
    """Build a lift from descending coefficient lists (wire order)."""
    return HomogeneousLift.from_coeffs(p_desc[::-1], q_desc[::-1], normalized=normalized)


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
