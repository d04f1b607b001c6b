"""Directional Pareto minimality toolkit.

Certify or refute directional Pareto minimality of vector objectives and
sets on deterministic grids, compute directional tangent cones and the
directional minimal-time function, scalarize with the Gerstewitz
functional, and search Fritz John / KKT multiplier certificates by LP
feasibility.
"""

from .certify import (
    CertReport,
    CertifyError,
    GridSpec,
    IneqEq,
    Problem,
    certify_directional_min,
    certify_set_min,
    check_first_order_necessary,
    openness_falsifier,
    tangent_sufficiency_sets,
)
from .gallery import gallery_names, run_example
from .geometry import (
    DirectionSet,
    GeometryError,
    HalfspaceCone,
    GeneratorCone,
    cone_contains,
    cone_contains_many,
    conic_hull,
    direction_samples,
    sphere_lattice,
)
from .lp import LPError, LPProblem, lp_feasible, lp_minimize
from .maps import SmoothMap, builtin, from_expressions, identity, sector_map
from .mintime import (
    RatioEstimate,
    Target,
    calmness_ratio,
    minimal_time,
    subregularity_ratio,
)
from .multipliers import (
    MultiplierCert,
    fritz_john,
    kkt_multipliers,
    stationarity_penalized,
    sufficiency_certificate,
)
from .scalarize import (
    ScalarizationContext,
    ScalarizationError,
    SubdiffCert,
    gerstewitz_subdiff,
    gerstewitz_value,
)
from .sets import (
    ImplicitSet,
    IntersectionSet,
    PolygonRegion,
    PolyhedralSet,
    UnionSet,
    cardioid_region,
    closed_curve_region,
    curve_halfplane_set,
)
from .tangent import (
    ExactTangentCone,
    TSchedule,
    TangentVerdict,
    bouligand_polyhedral,
    tangent_membership_sampled,
    tangent_polyhedral,
)

__version__ = "0.1.0"
