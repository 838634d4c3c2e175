"""Wire formats shared by the CLI and by file-based callers.

Map files are JSON objects like {"d": 2, "P": ["1","0","0"], "Q":
["0","0","1"]}: coefficient strings in base 10, listed from the x^d
coefficient down to the y^d coefficient.  Points are "[a:b]" with integer
entries; rational entries are accepted where an affine pair (not a
projective point) is expected.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .errors import InputError
from .maps_core import BinaryForm, HomogeneousLift, ProjPoint

_POINT_RE = re.compile(r"^\[\s*(-?\d+)\s*:\s*(-?\d+)\s*\]$")
_PAIR_RE = re.compile(r"^\[\s*(-?\d+(?:/\d+)?)\s*:\s*(-?\d+(?:/\d+)?)\s*\]$")


def forms_from_json_dict(obj: dict) -> tuple:
    """Parse the map wire format into the forms (P, Q) exactly as given.

    Coefficients arrive from i = d down to 0.
    """
    try:
        d = int(obj["d"])
        p_desc = [int(str(c)) for c in obj["P"]]
        q_desc = [int(str(c)) for c in obj["Q"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed map object: {exc}") from exc
    if len(p_desc) != d + 1 or len(q_desc) != d + 1:
        raise InputError(f"expected {d + 1} coefficients for degree {d}")
    return BinaryForm(tuple(p_desc[::-1])), BinaryForm(tuple(q_desc[::-1]))


def lift_from_json_dict(obj: dict) -> HomogeneousLift:
    """The canonical lift of a map in the wire format."""
    return HomogeneousLift(*forms_from_json_dict(obj))


def lift_to_json_dict(F: HomogeneousLift) -> dict:
    return {
        "d": F.d,
        "P": [str(c) for c in F.P.descending()],
        "Q": [str(c) for c in F.Q.descending()],
    }


def load_forms(path: str) -> tuple:
    """The forms (P, Q) of a map file, exactly as given in the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return forms_from_json_dict(obj)


def load_map(path: str) -> HomogeneousLift:
    """The canonical lift of the map in a map file."""
    return HomogeneousLift(*load_forms(path))


def parse_point(text: str) -> ProjPoint:
    """Parse "[a:b]" with integer entries into a canonical projective point."""
    m = _POINT_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse point {text!r}; expected [a:b] with integers")
    return ProjPoint(int(m.group(1)), int(m.group(2)))


def parse_pair(text: str) -> tuple:
    """Parse "[a:b]" with integer or rational entries into an affine pair."""
    m = _PAIR_RE.match(text.strip())
    if not m:
        raise InputError(f"cannot parse pair {text!r}; expected [a:b], rationals allowed")
    return (Fraction(m.group(1)), Fraction(m.group(2)))


def map_hash(F: HomogeneousLift) -> str:
    """Stable short hash of the coefficient vector (manifest and report key)."""
    payload = "|".join(str(c) for c in (F.d,) + F.coefficient_vector())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def point_from_json_dict(obj: dict) -> ProjPoint:
    try:
        return ProjPoint(int(str(obj["x0"])), int(str(obj["x1"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed point object: {exc}") from exc
