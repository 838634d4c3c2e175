"""dynheights: exact arithmetic-dynamics toolkit for P^1 over Q.

Resultants and minimal resultants, bad-reduction certificates, certified
local and canonical heights, Arakelov-Green pairings, preperiodic-point
enumeration, and the counting experiments built on them.
"""

__version__ = "0.1.0"

from .canonical import (
    DEFAULT_ITERS,
    HeightBreakdown,
    canonical_height,
    height_gap_constant,
    weil_height,
)
from .census import (
    CensusReport,
    ComparisonTable,
    EnergyReport,
    GapProbe,
    OrbitRecord,
    comparison_scatter,
    energy_sum,
    enumerate_points,
    height_gap_probe,
    orbit,
    preperiodic_height_bound,
    preperiodic_points,
    small_height_census,
)
from .certified import CertifiedValue
from .errors import (
    DegenerateMapError,
    DiagonalPairingError,
    DuplicatePointsError,
    DynheightsError,
    EscapePreconditionError,
    InputError,
    OracleRadiusError,
    UnsupportedDegreeError,
)
from .local_heights import (
    EscapeRadius,
    StepErrorConstant,
    escape_radius,
    green_pairing,
    hom_local_height,
    step_error_constants,
    verify_escape,
)
from .maps_core import (
    BinaryForm,
    HomogeneousLift,
    MilnorInvariants,
    Mobius,
    Place,
    ProjPoint,
    apply_map,
    conjugate,
    milnor_invariants,
    sylvester_resultant,
)
from .reduction import (
    BadReductionReport,
    MinResCertificate,
    ResultantHeight,
    bad_places,
    h_res,
    minimal_resultant_ord,
    minimal_resultant_oracle,
    ord_res_at,
)

__all__ = [
    "BadReductionReport",
    "BinaryForm",
    "CensusReport",
    "CertifiedValue",
    "ComparisonTable",
    "DEFAULT_ITERS",
    "DegenerateMapError",
    "DiagonalPairingError",
    "DuplicatePointsError",
    "DynheightsError",
    "EnergyReport",
    "EscapePreconditionError",
    "EscapeRadius",
    "GapProbe",
    "HeightBreakdown",
    "HomogeneousLift",
    "InputError",
    "MilnorInvariants",
    "MinResCertificate",
    "Mobius",
    "OracleRadiusError",
    "OrbitRecord",
    "Place",
    "ProjPoint",
    "ResultantHeight",
    "StepErrorConstant",
    "UnsupportedDegreeError",
    "apply_map",
    "bad_places",
    "canonical_height",
    "comparison_scatter",
    "conjugate",
    "energy_sum",
    "enumerate_points",
    "escape_radius",
    "green_pairing",
    "h_res",
    "height_gap_constant",
    "height_gap_probe",
    "hom_local_height",
    "milnor_invariants",
    "minimal_resultant_ord",
    "minimal_resultant_oracle",
    "orbit",
    "ord_res_at",
    "preperiodic_height_bound",
    "preperiodic_points",
    "small_height_census",
    "step_error_constants",
    "sylvester_resultant",
    "verify_escape",
    "weil_height",
]
