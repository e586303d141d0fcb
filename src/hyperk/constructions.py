"""Constructive gadgets: dyadic horocycle chains, tangency witnesses,
pinching pairs, continuous families and their limits, four-geodesic
configurations, the center-swap relabeling, and image normalizers.

Universally quantified geometric statements are checked by exact finite
enumeration where the statement is combinatorial (boundary arc classes).
A continuous family has coefficients polynomial in a rational parameter
s in [0, 1], so its members and its limit at s = 1 are exact curves, and
the limit is read off the coefficient vector there.  A witness search
certifies a crossing pair by exact points of one curve on both sides of
the other (`model.straddling_points`); a tangent pair's witness is the
pencil member that the sign of the Lorentz Gram determinant D2 picks.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

from ._rational import Q
from ._record import Record
from .errors import HyperkError, InvalidInputError, NoSolutionError
from .model import (
    EPS,
    BoundaryPoint,
    Curve,
    CurveKind,
    GeneralizedCircle,
    INFINITY,
    Isometry,
    UHPPoint,
    _coprime_ints,
    _d2,
    _lorentz,
    _number,
    curve_from_coeffs,
    make_geodesic,
    make_horocycle,
    straddling_points,
    two_point_normalizer,
)
from .predicates import intersection_pattern, linked

# ---------------------------------------------------------------------------
# dyadic horocycle chains
# ---------------------------------------------------------------------------


class DyadicFamily(Record):
    """Horocycles of Euclidean radius 1/2^(k+1) centered at n/2^k,
    consecutive members tangent at (x_n + x_{n+1})/2 + i/2^(k+1)."""

    __slots__ = ("level", "n_min", "n_max", "horocycles", "tangency_points")

    def __init__(self, level: int, n_min: int, n_max: int, horocycles: Tuple[Curve, ...],
                 tangency_points: Tuple[UHPPoint, ...]):
        self.level, self.n_min, self.n_max = level, n_min, n_max
        self.horocycles, self.tangency_points = horocycles, tangency_points


def dyadic_family(k: int, n_min: int, n_max: int) -> DyadicFamily:
    """The level-k dyadic horocycle chain for n in [n_min, n_max]."""
    if k < 0:
        raise InvalidInputError("level must be nonnegative")
    if n_min >= n_max:
        raise InvalidInputError("need n_min < n_max")
    radius = Q(1, 2 ** (k + 1))
    centers = [Q(n, 2 ** k) for n in range(n_min, n_max + 1)]
    horocycles = tuple(make_horocycle(BoundaryPoint.finite(c), radius) for c in centers)
    tangencies = tuple(
        UHPPoint((centers[i] + centers[i + 1]) / 2, radius)
        for i in range(len(centers) - 1)
    )
    return DyadicFamily(k, n_min, n_max, horocycles, tangencies)


# ---------------------------------------------------------------------------
# Type-1 witness construction
# ---------------------------------------------------------------------------


def _normal_geodesic(h: Curve, p: UHPPoint) -> GeneralizedCircle:
    """The geodesic N through the point p of h orthogonal to h, with
    <N, h> = 0 (`_lorentz`).  N meets the curve h only at p, so its two
    sides are the two sides of p along h."""
    a, b, _c, d = h.circle.coeffs()
    norm2 = p.x * p.x + p.y * p.y
    return GeneralizedCircle(-2 * a * p.x - b, 2 * (a * norm2 - d), 0, b * norm2 + 2 * d * p.x)


def opposite_sides_of_point(h: Curve, p: UHPPoint, x: UHPPoint, y: UHPPoint) -> bool:
    """Are x and y on opposite sides of p along the arc of h?  All exact:
    the sides of the normal geodesic at p (`_normal_geodesic`)."""
    for q in (p, x, y):
        if not q.exact or not h.circle.contains_point(q.x, q.y):
            raise InvalidInputError("points must be exact and lie on the curve")
    n = _normal_geodesic(h, p)
    return n.sign_at(x.x, x.y) * n.sign_at(y.x, y.y) < 0


def hyp1_witness(h1: Curve, h2: Curve, x: UHPPoint, y: UHPPoint) -> Curve:
    """A hypercycle or geodesic through x and y disjoint from h2, for an
    exact tangent (Type 1) pair h1, h2 with x, y on h1 on opposite sides of
    the tangency point p.

    It is m(t) = v(h1) + t v(l), l the line through x and y (the circle on
    diameter xy when h1 is a line).  As h1 touches h2, D2(m(t), h2) =
    2t lin + t^2 quad (`_d2`), where lin = <v1, l><v2, v2> - <v1, v2><l, v2>
    is a nonzero multiple of l at p.  t = -sign(lin) 2^-k for the first k
    at which D2 < 0 and m(t) is a hypercycle or geodesic.  Such a k exists:
    near t = 0, b^2 - 4ad stays positive if h1 is a hypercycle or geodesic.
    If h1 is a horocycle, h2 lies outside h1's horoball: m(t) moves the arc
    through p into it, which pushes the rest of the circle across the axis.
    """
    pat = intersection_pattern(h1, h2)
    if not pat.tangent or pat.shared_endpoints != 0:
        raise InvalidInputError("hyp1_witness needs a Type 1 (tangent) pair")
    p = pat.interior_points[0]
    if not opposite_sides_of_point(h1, p, x, y):
        raise InvalidInputError("x and y must lie on opposite sides of the tangency")
    v1, v2 = h1.circle.coeffs(), h2.circle.coeffs()
    if v1[0] == 0:  # the circle (X - x.x)(X - y.x) + (Y - x.y)(Y - y.y) = 0
        ell = (1, -(x.x + y.x), -(x.y + y.y), x.x * y.x + x.y * y.y)
    else:  # the line through x and y
        dx, dy = y.x - x.x, y.y - x.y
        ell = (0, dy, -dx, dx * x.y - dy * x.x)
    lin = _lorentz(v1, ell) * _lorentz(v2, v2) - _lorentz(v1, v2) * _lorentz(ell, v2)
    t = Q(-1 if lin > 0 else 1)
    while True:
        m = tuple(u + t * w for u, w in zip(v1, ell))
        if _d2(m, v2) < 0:
            witness = curve_from_coeffs(*m)
            if witness.kind in (CurveKind.HYPERCYCLE, CurveKind.GEODESIC):
                return witness
        t /= 2


def witness_family_search(h1: Curve, h2: Curve):
    """A witness curve through two points of h1, one on each side of h1's
    meeting with h2, that is disjoint from h2.

    Returns (witness, certificate).  When h1 crosses h2, no connected
    witness through points of h1 on opposite sides of h2's circle can avoid
    h2: the certificate names such a pair, found near a crossing, and
    witness is None.  For a tangent pair `hyp1_witness` builds the witness
    through two points straddling the normal geodesic at the tangency
    (`_normal_geodesic`); where `straddling_points` finds none, it is None.
    """
    pat = intersection_pattern(h1, h2)
    if pat.tangent:
        p = pat.interior_points[0]
        for x, y in straddling_points(h1, _normal_geodesic(h1, p), [p]):
            return hyp1_witness(h1, h2, x, y), {"through": (x, y)}
        return None, {"reason": "no straddling pair found"}
    for pair in straddling_points(h1, h2.circle, pat.interior_points):
        # the two points lie in different components of the half-plane cut
        # by h2, so every connected curve through both crosses h2: exact
        # impossibility certificate
        return None, {
            "separated_pair": pair,
            "reason": "points of h1 on opposite sides of h2; any curve "
            "through both must cross h2",
        }
    return None, {"reason": "no straddling pair found"}


# ---------------------------------------------------------------------------
# pinching pairs
# ---------------------------------------------------------------------------


def pinch_pair(h0: Curve, h: Curve) -> Tuple[Curve, Curve]:
    """Horocycles tangent to both of the disjoint horocycles h0 and h.

    Returns the two tangency solutions; when the elimination degenerates to
    a single solution (equal sizes at finite centers), that unique horocycle
    fills both slots.  Solutions with irrational centers, and all solutions
    for an inexact input, are returned as inexact curves.
    """
    for c in (h0, h):
        if c.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("pinch_pair needs two horocycles")
    if h0.center == h.center:
        raise NoSolutionError("horocycles share a center: no pinching pair")
    pat = intersection_pattern(h0, h)
    if pat.interior_count != 0:
        raise InvalidInputError("pinch_pair needs disjoint horocycles")
    sols = _solve_pinch(h0, h)
    if not sols:
        raise NoSolutionError("tangency system has no positive-radius solution")
    sols.sort(key=lambda c: c.endpoint_floats()[0])
    return (sols[0], sols[-1])


def _solve_pinch(h0: Curve, h: Curve) -> List[Curve]:
    """The horocycles tangent to both h0 and h: their centers p are the roots
    of an integer quadratic, which `_number` gives exactly when its
    discriminant is a square and as floats otherwise.

    A horocycle at p of radius r touches one at q of radius s iff
    (p - q)^2 = 4 r s, and the horizontal line y = s iff r = s/2.  With both
    centers finite, eliminating r leaves A p^2 + B p + C = 0 with A = r1 - r0,
    which has the single root (q0 + q1)/2 when the sizes agree.
    """
    if h0.center.is_infinity or h.center.is_infinity:
        line, circ = (h0, h) if h0.center.is_infinity else (h, h0)
        q, r = circ.center.value, line.size / 2

        def radius(p):
            return r

        quadratic = (1, -2 * q, q * q - 4 * r * circ.size)
    else:
        q0, r0, q1, r1 = h0.center.value, h0.size, h.center.value, h.size

        def radius(p):
            return (p - q0) ** 2 / (4 * r0)

        quadratic = (r1 - r0, -2 * (r1 * q0 - r0 * q1), r1 * q0 * q0 - r0 * q1 * q1)
    A, B, C = _coprime_ints(quadratic)
    disc = B * B - 4 * A * C  # a square times the product of the sizes: positive
    roots = [_number(-B, s, disc, 2 * A) for s in (-1, 1)] if A else [Q(-C, B)]
    exact = h0.exact and h.exact
    sols: List[Curve] = []
    for p in roots:
        r = radius(p)
        if exact and not isinstance(p, float):
            sols.append(make_horocycle(BoundaryPoint.finite(p), r))
        elif r > EPS:
            sols.append(Curve(GeneralizedCircle(1, -2 * p, -2 * r, p * p, exact=False)))
    return sols


# ---------------------------------------------------------------------------
# continuous families and limit classification
# ---------------------------------------------------------------------------


class FoliatesComponent(Record):
    """The family sweeps out an entire component of the complement of h_0."""

    __slots__ = ()


class HorocycleLimit(Record):
    __slots__ = ("curve",)

    def __init__(self, curve: Curve):
        self.curve = curve


class HypercycleOrGeodesicLimit(Record):
    __slots__ = ("curve",)

    def __init__(self, curve: Curve):
        self.curve = curve


def _at(poly, s):
    """The polynomial with coefficients `poly` (ascending powers) at s."""
    value = Q(0)
    for coeff in reversed(poly):
        value = value * s + coeff
    return value


class ContinuousFamily:
    """A one-parameter curve family whose coefficients a, b, c, d are
    rational polynomials in s in [0, 1], each given by its coefficients in
    ascending powers of s.  Members are the curves at s in [0, 1); the
    limit is the coefficient vector at s = 1."""

    def __init__(self, polys):
        self.polys = tuple(tuple(Q(v) for v in poly) for poly in polys)
        self.limit = tuple(sum(poly) for poly in self.polys)

    def member(self, s) -> Curve:
        """The exact member at rational s in [0, 1)."""
        s = Q(s)
        if not 0 <= s < 1:
            raise InvalidInputError("family parameter must lie in [0, 1)")
        return curve_from_coeffs(*(_at(poly, s) for poly in self.polys))


def disj_family(h: Curve, hprime: Curve) -> ContinuousFamily:
    """The pencil (1 - s) v(hprime) + s v(h) of the coefficient vectors of a
    hypercycle hprime and a horocycle h disjoint from it, with v(h) negated
    if needed so that <v(hprime), v(h)> > 0 (`_lorentz`).

    Two disjoint circles span a pencil whose members between them are
    pairwise disjoint (Coxeter, "Inversive distance", 1966).  With
    D2(v, w) = <v, v><w, w> - <v, w>^2, which is negative exactly when the
    circles are disjoint:

      - D2(member(s), h) = (1 - s)^2 D2(hprime, h) < 0, and
        D2(member(s), member(t)) = (s - t)^2 D2(hprime, h) < 0;
      - b^2 - 4ad > 0 for s < 1, so every member is a hypercycle or a
        geodesic: it is (1 - s)^2 times hprime's, plus 2s(1 - s) times the
        polar form on hprime and h, plus s^2 times h's, which is 0; the polar
        form has the sign of <v(hprime), v(h)> (where h is the line
        y - 1 = 0 they are 2a' and 2a'(1 - k), for hprime's a' > 0 and
        centre height k < 1);
      - member(0) = hprime, and the limit at s = 1 is h.
    """
    if h.kind is not CurveKind.HOROCYCLE:
        raise InvalidInputError("disj_family needs a horocycle as first argument")
    if hprime.kind is not CurveKind.HYPERCYCLE:
        raise InvalidInputError("disj_family needs a hypercycle as second argument")
    if not (h.exact and hprime.exact):
        raise InvalidInputError("disj_family needs exact curves")
    v, w = hprime.circle.coeffs(), h.circle.coeffs()
    if _d2(v, w) >= 0:
        raise InvalidInputError("disj_family needs disjoint curves")
    if _lorentz(v, w) < 0:
        w = tuple(-x for x in w)
    return ContinuousFamily([(x, y - x) for x, y in zip(v, w)])


def ray_family(slope=1) -> ContinuousFamily:
    """The rays y = slope (1 - s) x for slope > 0: oblique lines, that is
    hypercycles with endpoints 0 and oo, which foliate the sector below the
    first one.  Their limit is the real axis (0, 0, 1, 0)."""
    slope = Q(slope)
    if not slope > 0:
        raise InvalidInputError("ray slope must be positive")
    return ContinuousFamily([(0,), (-slope, slope), (1,), (0,)])


def fixed_endpoint_family(apex0, apex1) -> ContinuousFamily:
    """Hypercycles with endpoints -1, 1 whose apex A = apex0 (1 - s) + apex1 s
    falls from apex0 to apex1 > 1: the circles
    2A (x^2 + y^2) - 2(A^2 - 1) y - 2A = 0.  The limit is the hypercycle of
    apex apex1."""
    apex0, apex1 = Q(apex0), Q(apex1)
    if not apex0 > apex1 > 1:
        raise InvalidInputError("need apex0 > apex1 > 1")
    step = apex1 - apex0
    return ContinuousFamily([
        (2 * apex0, 2 * step),
        (0,),
        (-2 * (apex0 * apex0 - 1), -4 * apex0 * step, -2 * step * step),
        (-2 * apex0, -2 * step),
    ])


def classify_family_limit(fam: ContinuousFamily):
    """The limit of the family at s = 1, read off its coefficient vector
    there: the real axis (a = b = d = 0) means the members sweep out a
    component of the complement of member(0) (FoliatesComponent); any
    other vector is an exact curve, a HorocycleLimit or a
    HypercycleOrGeodesicLimit by its kind."""
    a, b, c, d = fam.limit
    if a == b == d == 0:
        return FoliatesComponent()
    curve = curve_from_coeffs(a, b, c, d)
    if curve.kind is CurveKind.HOROCYCLE:
        return HorocycleLimit(curve)
    return HypercycleOrGeodesicLimit(curve)


# ---------------------------------------------------------------------------
# four-geodesic configurations
# ---------------------------------------------------------------------------


class FourGeodesicConfig(Record):
    __slots__ = ("x1", "x2", "y1", "y2", "g1", "g2", "h1", "h2", "properties_verified")

    def __init__(self, x1: BoundaryPoint, x2: BoundaryPoint, y1: BoundaryPoint,
                 y2: BoundaryPoint, g1: Curve, g2: Curve, h1: Curve, h2: Curve,
                 properties_verified: bool):
        self.x1, self.x2, self.y1, self.y2 = x1, x2, y1, y2
        self.g1, self.g2, self.h1, self.h2 = g1, g2, h1, h2
        self.properties_verified = properties_verified


def _in_cyclic_order(points: Sequence[BoundaryPoint]) -> bool:
    """Are the distinct points in cyclic order on R u {oo}?  With oo above
    every real, that is: going once around the cycle, every step but one
    ascends."""
    keys = [p.sort_key() for p in points]
    return sum(k > keys[i - 1] for i, k in enumerate(keys)) == len(keys) - 1


#: two points inside each open arc of R u {oo} cut by the model's marked
#: points 0, 1, 2, oo, so that same-arc probe pairs can be formed
_ARC_PROBES = tuple(BoundaryPoint.finite(v) for v in
                    (Q(1, 3), Q(2, 3), Q(4, 3), Q(5, 3), 3, 4, -2, -1))


@functools.lru_cache(maxsize=None)
def _check_crossing_model() -> bool:
    """Properties 1-3 of the four-geodesic configuration, checked once on
    the reference points (0, 1, 2, oo) by enumerating probe geodesics over
    all endpoint position classes (a marked point, or one of the two
    `_ARC_PROBES` inside each of the four open arcs).  Raises if a property
    fails."""
    marked = [BoundaryPoint.finite(v) for v in (0, 1, 2)] + [INFINITY]
    x1, x2, y1, y2 = marked
    g1_pair, g2_pair = (x1, x2), (y1, y2)
    h1_pair, h2_pair = (x1, y1), (x2, y2)
    ok = (
        not linked(g1_pair, g2_pair)
        and linked(h1_pair, h2_pair)
        and not linked(g1_pair, h1_pair)
        and not linked(g2_pair, h2_pair)
    )
    if not ok:
        raise HyperkError("four-geodesic model fails property 1")
    positions = marked + list(_ARC_PROBES)
    for i, a in enumerate(positions):
        for b in positions[i + 1:]:
            probe = (a, b)
            c_g1, c_g2 = linked(probe, g1_pair), linked(probe, g2_pair)
            c_h1, c_h2 = linked(probe, h1_pair), linked(probe, h2_pair)
            if (c_g1 or c_g2) and not (c_h1 or c_h2):
                raise HyperkError(f"four-geodesic model: property 2 fails for {probe!r}")
            if c_g1 and c_g2 and not (c_h1 and c_h2):
                raise HyperkError(f"four-geodesic model: property 3 fails for {probe!r}")
    return True


def four_geodesic_config(
    x1: BoundaryPoint, x2: BoundaryPoint, y1: BoundaryPoint, y2: BoundaryPoint
) -> FourGeodesicConfig:
    """The configuration g1=(x1,x2), g2=(y1,y2), h1=(x1,y1), h2=(x2,y2) for
    boundary points in cyclic order x1 < x2 < y1 < y2, with its three
    defining properties verified:

      1. g1, g2 disjoint; h1, h2 crossing; g_i disjoint from h_i;
      2. every geodesic crossing g1 or g2 crosses h1 or h2;
      3. every geodesic crossing both g1 and g2 crosses both h1 and h2.

    Two geodesics cross iff their endpoint pairs are linked, and linking
    depends only on the cyclic order of the endpoints.  So a probe
    geodesic's crossings depend only on the position class of each of its
    endpoints (a marked point, or inside one of the four open arcs), and an
    orientation-preserving homeomorphism of R u {oo} taking (x1, x2, y1, y2)
    to (0, 1, 2, oo) maps position classes to position classes.  The
    properties therefore hold for every cyclically ordered quadruple once
    they hold for (0, 1, 2, oo); that model is checked by exact probe
    enumeration once per process, and each call checks only that its points
    are distinct and in cyclic order.
    """
    marked = [x1, x2, y1, y2]
    if len(set(marked)) != 4:
        raise InvalidInputError("the four boundary points must be distinct")
    if not _in_cyclic_order(marked):
        raise InvalidInputError("points must be in cyclic order x1 < x2 < y1 < y2")
    _check_crossing_model()
    g1, g2 = make_geodesic(x1, x2), make_geodesic(y1, y2)
    h1, h2 = make_geodesic(x1, y1), make_geodesic(x2, y2)
    return FourGeodesicConfig(x1, x2, y1, y2, g1, g2, h1, h2, True)


# ---------------------------------------------------------------------------
# the center-swap relabeling and image normalizer
# ---------------------------------------------------------------------------


class CenterSwap:
    """The relabeling h(p,r) <-> h(q,r), identity on all other centers.

    It preserves the horocycle nesting order (which only compares
    same-center pairs) but is not induced by any isometry: it destroys
    tangency patterns across three or more centers.
    """

    def __init__(self, p: BoundaryPoint, q: BoundaryPoint):
        if p.is_infinity or q.is_infinity:
            raise InvalidInputError("center swap needs finite centers")
        self.p = p
        self.q = q
        self.is_identity = p == q

    def __call__(self, h: Curve) -> Curve:
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("center swap acts on horocycles")
        if self.is_identity:
            return h
        if h.center == self.p:
            return make_horocycle(self.q, h.size)
        if h.center == self.q:
            return make_horocycle(self.p, h.size)
        return h


def sigma_center_swap(p: BoundaryPoint, q: BoundaryPoint) -> CenterSwap:
    return CenterSwap(p, q)


def normalizer_from_images(img_h0: Curve, img_hinf: Curve) -> Isometry:
    """The isometry j sending the tangent horocycle pair (img_h0, img_hinf)
    to the canonical pair (h(0,1/2), h(oo,1)).

    j is a two-point boundary normalizer (centers to 0 and oo) followed by
    the dilation moving the tangency point to i.
    """
    for h in (img_h0, img_hinf):
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("normalizer_from_images needs horocycles")
    pat = intersection_pattern(img_h0, img_hinf)
    if not pat.tangent:
        raise InvalidInputError("the two horocycles must be tangent")
    phi1 = two_point_normalizer(img_hinf.center, img_h0.center)
    contact = pat.interior_points[0]
    if not contact.exact:
        raise InvalidInputError("tangency point must be exact")
    moved = phi1.apply_point(contact)
    if moved.x != 0:
        raise HyperkError(f"tangency of centered horocycles off the axis: {moved!r}")
    j = Isometry.scaling(1 / moved.y).compose(phi1)
    if j.apply_curve(img_h0) != make_horocycle(BoundaryPoint.finite(0), Q(1, 2)):
        raise HyperkError(f"normalizer {j!r} does not send {img_h0!r} to h(0, 1/2)")
    if j.apply_curve(img_hinf) != make_horocycle(INFINITY, 1):
        raise HyperkError(f"normalizer {j!r} does not send {img_hinf!r} to h(oo, 1)")
    return j
