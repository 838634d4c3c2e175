"""Wire formats shared by the CLI and by file-based callers.

Map files are JSON objects like {"d": 2, "P": ["1","0","0"], "Q":
["0","0","1"]}, listed from the x^d coefficient down to the y^d
coefficient.  The format is strict: "d" is a JSON integer (not a boolean,
float or string), "P" and "Q" are JSON arrays of d + 1 entries, and each
entry is a JSON integer or a string of ASCII digits with an optional
leading minus sign (-?[0-9]+: no spaces, underscores, plus signs or other
scripts' digits).  Anything else is an ``InputError``.  Points are "[a:b]"
with ASCII integer entries; rational entries are accepted where an affine
pair (not a projective point) is expected.

This module also owns hashing: ``sha256_hex``, for ``map_hash`` and for
the CLI's manifest digest, takes SHA-256 on first use from the
interpreter's built-in module (``_sha2``, or ``_sha256`` before 3.12), and
from ``hashlib``, which maps OpenSSL's libcrypto, only on a build without
it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError
from .maps_core import BinaryForm, HomogeneousLift, ProjPoint

_POINT_RE = re.compile(r"^\[\s*(-?[0-9]+)\s*:\s*(-?[0-9]+)\s*\]$")
_PAIR_RE = re.compile(r"^\[\s*(-?[0-9]+(?:/[0-9]+)?)\s*:\s*(-?[0-9]+(?:/[0-9]+)?)\s*\]$")
_INT_RE = re.compile(r"-?[0-9]+")


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _wire_int(x, what: str) -> int:
    """x as an int, for a JSON integer or a string matching -?[0-9]+."""
    if not (_is_json_int(x) or (isinstance(x, str) and _INT_RE.fullmatch(x))):
        raise InputError(f"bad {what} {x!r}: expected an integer")
    try:
        return int(x)
    except ValueError as exc:  # a digit string past int()'s length limit
        raise InputError(f"bad {what}: {exc}") from exc


def _coefficients(obj: dict, key: str) -> list:
    """The entries of obj[key]: a JSON array of integers or digit strings."""
    entries = obj[key]
    if not isinstance(entries, list):
        raise InputError(f"{key} must be a JSON array of coefficients")
    return [_wire_int(c, f"coefficient in {key}") for c in entries]


def forms_from_json_dict(obj: dict) -> tuple:
    """Parse the map wire format into the forms (P, Q) exactly as given.

    Coefficients arrive from i = d down to 0.
    """
    if not isinstance(obj, dict):
        raise InputError("malformed map object: expected a JSON object")
    try:
        d = obj["d"]
        p_desc = _coefficients(obj, "P")
        q_desc = _coefficients(obj, "Q")
    except KeyError as exc:
        raise InputError(f"malformed map object: missing {exc}") from exc
    if not _is_json_int(d):
        raise InputError(f"the degree d must be a JSON integer, not {d!r}")
    if len(p_desc) != d + 1 or len(q_desc) != d + 1:
        raise InputError(f"expected {d + 1} coefficients for degree {d}")
    return BinaryForm(tuple(p_desc[::-1])), BinaryForm(tuple(q_desc[::-1]))


def load_forms(path: str) -> tuple:
    """The forms (P, Q) of a map file, exactly as given in the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8, or an int literal past the digit limit
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


def sha256_hex(text: str) -> str:
    """SHA-256 of the UTF-8 bytes of text, as 64 hex digits.

    The constructor is the interpreter's own, as CPython's random.py takes
    sha512: importing hashlib maps libcrypto (about 3.7 MiB of RSS under
    CPython 3.11 on Linux).
    """
    import sys

    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without the built-in modules
        from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def map_hash(F: HomogeneousLift) -> str:
    """Stable short hash of the coefficient vector (manifest and report key)."""
    payload = "|".join(str(c) for c in (F.d,) + F.coefficient_vector())
    return sha256_hex(payload)[:16]
