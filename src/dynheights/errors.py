"""Exception hierarchy.

``InputError`` and its subclasses signal bad or unsupported input; the CLI
maps them to exit status 2.  Budget exhaustion is not an error: operations
that can run out of budget return a status flag instead of raising, except
the search boxes of ``census``, ``gap`` and ``preperiodic``: a radius above
1,000 raises ``ArithmeticError``, which the CLI maps to exit status 3.
"""


class DynheightsError(Exception):
    """Base class for all package errors."""


class InputError(DynheightsError, ValueError):
    """Invalid input (degree mismatch, malformed point, bad flag value...)."""


class DegenerateMapError(InputError):
    """The two forms share a root: Res(P,Q) = 0, so no rational map is defined."""


class UnsupportedDegreeError(InputError):
    """Operation only defined for a specific degree (e.g. Milnor coordinates, d=2)."""


class DiagonalPairingError(InputError):
    """Green pairing requested on the diagonal x = y, where it is +infinity."""


class DuplicatePointsError(InputError):
    """Energy sums require pairwise distinct points."""


class EscapePreconditionError(InputError):
    """verify_escape called with a point not certifiably outside the escape radius."""


class OracleRadiusError(InputError):
    """Exhaustive conjugator search refused: requested radius exceeds the cost guard."""
