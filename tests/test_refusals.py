"""Each refusal of bad input, one row each: the call, the error type and
its exact message."""

import pytest

from hyperk.constructions import (
    CenterSwap,
    disj_family,
    dyadic_family,
    pinch_pair,
    witness_family_search,
)
from hyperk.earthquake import EarthquakeMap, eq_apply, eq_geodesic_image, pointwise_image_is_curve
from hyperk.errors import DegenerateResultError, HyperkError, InvalidInputError, NoSolutionError
from hyperk.graphs import (
    GraphAutomorphism,
    build_graph,
    induced_permutation,
    isometry_matching,
    isometry_realizing,
    link_preserving_check,
)
from hyperk.model import (
    INFINITY,
    BoundaryPoint,
    GeneralizedCircle,
    Isometry,
    UHPPoint,
    curve_from_coeffs,
    distance_to_geodesic,
    equidistant_pair,
    make_geodesic,
    make_horocycle,
    make_hypercycle,
    parse_curve_text,
    rational_points,
    straddling_points,
    triple_normalizer,
    two_point_normalizer,
)
from hyperk.predicates import (
    between_tangent,
    geodesics_linked,
    intersection_pattern,
    horocycle_leq,
    hypercycle_pair_type,
    same_endpoints,
)
from hyperk.render import render_panels
from hyperk.verify import run_suite

F = BoundaryPoint.finite
GEO = make_geodesic(F(0), F(1))
HORO = make_horocycle(F(0), 1)
HYPER = make_hypercycle(F(0), F(1), UHPPoint(0, 1))
#: the inexact curves: pinch witnesses, horocycles of centre -5 -+ 5 sqrt(2)
INEXACT, INEXACT_HORO = pinch_pair(make_horocycle(F(0), 1), make_horocycle(F(5), 2))
# (0,2) and (1,3) cross; (4,5) misses both: swapping (0,2) and (4,5) breaks an edge
GRAPH = build_graph([make_geodesic(F(0), F(2)), make_geodesic(F(1), F(3)),
                     make_geodesic(F(4), F(5))])
QUAKE = EarthquakeMap(make_geodesic(F(0), INFINITY), 2)
#: the irrational meeting point (1/2, sqrt(7)/2) of |z|^2 = 2 and x = 1/2
IRRATIONAL, = intersection_pattern(curve_from_coeffs(1, 0, 0, -2),
                                   curve_from_coeffs(0, 2, 0, -1)).interior_points
IRRATIONAL_SAYS = "point (1/2, sqrt(112)/8) is irrational: it has no exact rational coordinates"
#: geodesics over (-1, 3) and (0, oo) moved by a 600-bit map: they cross at
#: an irrational point whose float height underflows to 0
DEEP = Isometry(2**600 + 9, 1, 2**600, 1)
DEEP_GEO = DEEP.apply_curve(make_geodesic(F(-1), F(3)))
DEEP_FAULT = DEEP.apply_curve(make_geodesic(F(0), INFINITY))

ROWS = [
    # model
    (lambda: parse_curve_text("horocycle a=1 b=0 c=0 d=-1"), InvalidInputError,
     "curve text tagged horocycle but coefficients classify as geodesic"),
    (lambda: make_geodesic(F(1), F(1)), InvalidInputError,
     "geodesic needs two distinct endpoints"),
    (lambda: make_hypercycle(F(1), F(1), UHPPoint(0, 1)), InvalidInputError,
     "hypercycle needs two distinct endpoints"),
    (lambda: make_horocycle(F(0), 0), InvalidInputError, "horocycle size must be positive"),
    # a centre or an endpoint is a BoundaryPoint, not the number it stands for
    (lambda: make_horocycle(0, 1), InvalidInputError, "center must be a BoundaryPoint, not int"),
    (lambda: make_geodesic(0, 1), InvalidInputError, "p must be a BoundaryPoint, not int"),
    (lambda: make_geodesic(F(0), (1, 1)), InvalidInputError,
     "q must be a BoundaryPoint, not tuple"),
    (lambda: make_hypercycle(F(0), 1.0, UHPPoint(0, 1)), InvalidInputError,
     "q must be a BoundaryPoint, not float"),
    # every reader of a point at its exact value refuses an irrational one
    (lambda: Isometry(1, 1, 0, 1).apply_point(IRRATIONAL), InvalidInputError, IRRATIONAL_SAYS),
    (lambda: make_hypercycle(F(0), F(1), IRRATIONAL), InvalidInputError, IRRATIONAL_SAYS),
    (lambda: distance_to_geodesic(IRRATIONAL, GEO), InvalidInputError, IRRATIONAL_SAYS),
    (lambda: eq_apply(QUAKE, IRRATIONAL), InvalidInputError, IRRATIONAL_SAYS),
    (lambda: Isometry.scaling(0), InvalidInputError, "scaling factor must be positive"),
    (lambda: two_point_normalizer(F(1), F(1)), InvalidInputError,
     "normalizer needs two distinct boundary points"),
    (lambda: triple_normalizer((F(0), F(1), F(0)), (F(0), F(1), F(2))), InvalidInputError,
     "triples must consist of three distinct points"),
    (lambda: distance_to_geodesic(UHPPoint(0, 1), HORO), InvalidInputError,
     "distance_to_geodesic needs a geodesic"),
    (lambda: equidistant_pair(HORO, 1), InvalidInputError, "equidistant_pair needs a geodesic"),
    (lambda: equidistant_pair(GEO, 1, sinh_d=-1), InvalidInputError,
     "sinh of the distance must be positive"),
    (lambda: rational_points(INEXACT, 3), InvalidInputError,
     "rational sampling needs an exact curve"),
    (lambda: straddling_points(INEXACT, GEO.circle, []), InvalidInputError,
     "straddling points need an exact curve"),
    (lambda: straddling_points(DEEP_GEO, DEEP_FAULT.circle,
                               intersection_pattern(DEEP_GEO, DEEP_FAULT).interior_points),
     InvalidInputError,
     "straddling points start from a point's floats, and this point's float height "
     "underflows to 0"),
    (lambda: GeneralizedCircle(0.0, 0.0, 0.0, 0.0), DegenerateResultError,
     "degenerate circle: a = b = c = 0"),
    (lambda: curve_from_coeffs(0, 0, 1, 1), InvalidInputError,  # the line y = -1
     "locus classifies as not_in_upper_half_plane, not a curve"),
    (lambda: rational_points(curve_from_coeffs(1, 0, -1, -2), 3), InvalidInputError,
     "cannot sample rational points: irrational endpoints"),  # ends at +-sqrt(2)
    # a float input is read at its exact value, which a float that is not
    # finite lacks
    (lambda: curve_from_coeffs(float("inf"), 0, 0, -1), InvalidInputError,
     "inf is not a finite number"),
    (lambda: make_horocycle(F(0), float("nan")), InvalidInputError,
     "nan is not a finite number"),
    (lambda: UHPPoint(0, float("-inf")), InvalidInputError, "-inf is not a finite number"),
    (lambda: Isometry(1, float("nan"), 0, 1), InvalidInputError, "nan is not a finite number"),
    (lambda: Isometry.identity().apply_curve(INEXACT), InvalidInputError,
     "isometries act on exact curves"),
    # predicates
    (lambda: hypercycle_pair_type(GEO, HYPER), InvalidInputError,
     "hypercycle_pair_type needs two hypercycles"),
    (lambda: same_endpoints(HORO, GEO), InvalidInputError,
     "same_endpoints needs two-endpoint curves"),
    (lambda: horocycle_leq(HORO, GEO), InvalidInputError, "horocycle_leq needs two horocycles"),
    (lambda: geodesics_linked(GEO, HORO), InvalidInputError, "geodesics_linked needs geodesics"),
    (lambda: between_tangent(GEO, HORO, INEXACT), InvalidInputError,
     "between_tangent needs exact curves"),
    (lambda: intersection_pattern(GEO, INEXACT), InvalidInputError,
     "intersection patterns need exact curves"),
    # graphs
    (lambda: build_graph([]), InvalidInputError, "a graph needs at least one curve"),
    # mixed kinds are refused before any pair is compared or any curve
    # read as inexact
    (lambda: build_graph([GEO, HORO, GEO]), InvalidInputError,
     "curves of mixed kinds; pass allow_mixed=True to build a mixed graph"),
    (lambda: build_graph([INEXACT, GEO, INEXACT]), InvalidInputError,
     "curves of mixed kinds; pass allow_mixed=True to build a mixed graph"),
    (lambda: build_graph([GEO, HORO, GEO], allow_mixed=True), InvalidInputError,
     "duplicate curves at indices 0 and 2: geodesic a=1 b=-1 c=0 d=0"),
    # graphs read exact data only: a pinch witness is refused, and on
    # either side of a matching
    (lambda: build_graph([HORO, INEXACT]), InvalidInputError,
     "graph curves must be exact"),
    (lambda: isometry_matching([GEO], []), InvalidInputError,
     "source and target curve lists differ in length"),
    (lambda: isometry_matching([INEXACT, GEO], [GEO, GEO]), InvalidInputError,
     "graph curves must be exact"),
    (lambda: isometry_matching([HORO], [INEXACT]), InvalidInputError,
     "graph curves must be exact"),
    (lambda: isometry_realizing(GRAPH, GraphAutomorphism((2, 1, 0))), InvalidInputError,
     "permutation is not an automorphism of the graph"),
    (lambda: induced_permutation(GRAPH, Isometry.translation(1)), InvalidInputError,
     "isometry does not preserve the curve set"),
    (lambda: link_preserving_check([F(0), F(1)], [F(0)]), InvalidInputError,
     "points and map values differ in length"),
    (lambda: link_preserving_check([F(0), F(0)], [F(0), F(1)]), InvalidInputError,
     "sample points must be distinct"),
    (lambda: link_preserving_check([F(0), F(1)], [F(2), F(2)]), InvalidInputError,
     "map must be injective on the sample"),
    # render and verify
    (lambda: render_panels([]), InvalidInputError, "need at least one scene"),
    (lambda: run_suite("nosuch"), InvalidInputError,
     "unknown suite 'nosuch'; choose from order, boundary-extension, dyadic, pinch, types, "
     "betweenness, crescent, four-geodesics, links, families, earthquake, graphs, all"),
    # constructions
    (lambda: dyadic_family(-1, 0, 2), InvalidInputError, "level must be nonnegative"),
    (lambda: dyadic_family(0, 2, 2), InvalidInputError, "need n_min < n_max"),
    (lambda: pinch_pair(GEO, HORO), InvalidInputError, "pinch_pair needs two horocycles"),
    (lambda: pinch_pair(HORO, make_horocycle(F(0), 2)), NoSolutionError,
     "horocycles share a center: no pinching pair"),
    (lambda: pinch_pair(HORO, make_horocycle(F(1), 1)), InvalidInputError,
     "pinch_pair needs disjoint horocycles"),
    (lambda: disj_family(GEO, HYPER), InvalidInputError,
     "disj_family needs a horocycle as first argument"),
    (lambda: disj_family(HORO, GEO), InvalidInputError,
     "disj_family needs a hypercycle as second argument"),
    (lambda: disj_family(INEXACT_HORO, HYPER), InvalidInputError, "disj_family needs exact curves"),
    # a crossing whose point's float height underflows is refused, not passed
    (lambda: witness_family_search(DEEP_GEO, DEEP_FAULT), InvalidInputError,
     "straddling points start from a point's floats, and this point's float height "
     "underflows to 0"),
    (lambda: CenterSwap(INFINITY, F(0)), InvalidInputError, "center swap needs finite centers"),
    (lambda: CenterSwap(F(0), F(1))(GEO), InvalidInputError, "center swap acts on horocycles"),
    # earthquake
    (lambda: eq_apply(QUAKE, 3), InvalidInputError,
     "eq_apply expects a UHPPoint or BoundaryPoint"),
    (lambda: eq_geodesic_image(QUAKE, HORO), InvalidInputError,
     "eq_geodesic_image expects a geodesic"),
    (lambda: eq_geodesic_image(QUAKE, curve_from_coeffs(1, 0, 0, -2)), InvalidInputError,
     "geodesic needs rational endpoints"),  # ends at +-sqrt(2)
    (lambda: pointwise_image_is_curve(EarthquakeMap(DEEP_FAULT, 2), DEEP_GEO), InvalidInputError,
     "straddling points start from a point's floats, and this point's float height "
     "underflows to 0"),
]


@pytest.mark.parametrize("call, error, message", ROWS, ids=[row[2] for row in ROWS])
def test_refusal(call, error, message):
    with pytest.raises(HyperkError) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_zero_distance_gives_the_geodesic_twice():
    assert equidistant_pair(GEO, 0) == (GEO, GEO)
    assert equidistant_pair(GEO, 1, sinh_d=0) == (GEO, GEO)
