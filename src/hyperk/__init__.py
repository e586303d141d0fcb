"""Exact computational kernel for geodesics, horocycles, and hypercycles
in the upper half-plane, with simple earthquakes, disjointness graphs,
continuous-family limits, and an SVG renderer.

All classification predicates and counts run in exact rational arithmetic;
floats appear only in coordinates and rendering.
"""

from ._rational import Q, q_from_str, q_str
from .errors import (
    DegenerateResultError,
    HyperkError,
    IndeterminateLimitError,
    InvalidInputError,
    NoSolutionError,
)
from .model import (
    EPS,
    INFINITY,
    BoundaryPoint,
    Curve,
    CurveKind,
    GeneralizedCircle,
    Isometry,
    UHPPoint,
    curve_from_circle,
    curve_from_coeffs,
    distance_to_geodesic,
    equidistant_pair,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    parse_curve_text,
    rational_points,
    triple_normalizer,
    two_point_normalizer,
)
from .predicates import (
    HorocycleOrder,
    HypercyclePairType,
    IntersectionPattern,
    between_tangent,
    geodesics_linked,
    horocycle_leq,
    hypercycle_pair_type,
    intersection_pattern,
    linked,
    pair_type_from_pattern,
    same_endpoints,
)
from .constructions import (
    CenterSwap,
    ContinuousFamily,
    DyadicFamily,
    FoliatesComponent,
    FourGeodesicConfig,
    HorocycleLimit,
    HypercycleOrGeodesicLimit,
    chebyshev_grid,
    classify_family_limit,
    disj_family,
    dyadic_family,
    fixed_endpoint_family,
    four_geodesic_config,
    hyp1_witness,
    normalizer_from_images,
    pinch_pair,
    ray_family,
    sigma_center_swap,
    witness_family_search,
)
from .earthquake import (
    Constraint,
    EarthquakeMap,
    PairRequirement,
    PointwiseImageResult,
    RealizabilityInstance,
    Satisfiable,
    Unsatisfiable,
    eq_apply,
    eq_geodesic_image,
    instance_from_horocycles,
    pointwise_image_is_curve,
    tangency_realizability,
)
from .graphs import (
    DisjointnessGraph,
    GraphAutomorphism,
    GraphClass,
    LinkCheckResult,
    automorphisms,
    build_graph,
    induced_permutation,
    isometry_matching,
    isometry_realizing,
    link_preserving_check,
)
from .render import SvgScene, render_panels, render_scene, write_svg
from .verify import (
    PropertyResult,
    SUITES,
    figure_one_configuration,
    figure_one_images,
    run_suite,
)

__version__ = "1.0.0"
