"""Exact computational kernel for geodesics, horocycles, and hypercycles
in the upper half-plane, with simple earthquakes, disjointness graphs,
continuous-family limits, and an SVG renderer.

All classification predicates and counts run in exact rational arithmetic;
floats appear only in coordinates and rendering.

Exported names are resolved on first use (PEP 562): ``import hyperk`` runs
no layer module, and ``hyperk.X`` imports only the module that defines X.
"""

import importlib

__version__ = "1.0.0"

#: submodule -> the names it exports from the package
_EXPORTS = {
    "_rational": ("Q", "q_from_str", "q_str"),
    "errors": (
        "DegenerateResultError",
        "HyperkError",
        "InvalidInputError",
        "NoSolutionError",
    ),
    "model": (
        "INFINITY",
        "BoundaryPoint",
        "Curve",
        "CurveKind",
        "GeneralizedCircle",
        "Isometry",
        "QuadraticPoint",
        "UHPPoint",
        "curve_from_circle",
        "curve_from_coeffs",
        "distance_to_geodesic",
        "equidistant_pair",
        "make_geodesic",
        "make_horocycle",
        "make_hypercycle",
        "parse_curve_text",
        "rational_points",
        "triple_normalizer",
        "two_point_normalizer",
    ),
    "predicates": (
        "HorocycleOrder",
        "HypercyclePairType",
        "IntersectionPattern",
        "between_tangent",
        "geodesics_linked",
        "horocycle_leq",
        "hypercycle_pair_type",
        "intersection_pattern",
        "linked",
        "pair_type_from_pattern",
        "same_endpoints",
    ),
    "constructions": (
        "CenterSwap",
        "ContinuousFamily",
        "DyadicFamily",
        "FoliatesComponent",
        "FourGeodesicConfig",
        "HorocycleLimit",
        "HypercycleOrGeodesicLimit",
        "PinchWitness",
        "classify_family_limit",
        "disj_family",
        "dyadic_family",
        "fixed_endpoint_family",
        "four_geodesic_config",
        "hyp1_witness",
        "normalizer_from_images",
        "pinch_pair",
        "ray_family",
        "sigma_center_swap",
        "witness_family_search",
    ),
    "earthquake": (
        "Constraint",
        "EarthquakeMap",
        "PairRequirement",
        "PointwiseImageResult",
        "RealizabilityInstance",
        "Satisfiable",
        "Unsatisfiable",
        "eq_apply",
        "eq_geodesic_image",
        "figure_one_configuration",
        "figure_one_images",
        "instance_from_horocycles",
        "pointwise_image_is_curve",
        "tangency_realizability",
    ),
    "graphs": (
        "DisjointnessGraph",
        "GraphAutomorphism",
        "GraphClass",
        "LinkCheckResult",
        "automorphisms",
        "build_graph",
        "induced_permutation",
        "isometry_matching",
        "isometry_realizing",
        "link_preserving_check",
    ),
    "render": ("SvgScene", "render_panels", "render_scene", "write_svg"),
    "verify": ("PropertyResult", "SUITES", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
