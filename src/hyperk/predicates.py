"""Exact relational predicates on curves.

Intersection counts, tangency, shared boundary endpoints, the hypercycle
pair taxonomy, the horocycle partial order, linkedness of boundary pairs,
and betweenness of mutually tangent curves are all decided by integer or
rational sign tests, on exact curves only: an inexact one, a pinch
witness (`constructions.PinchWitness`), is refused.  The counts of a pair
come from the signs of the Lorentz Gram matrix of the two coefficient
vectors (`_gram_counts`), whatever the kinds, with no case for lines or
for oo; its meeting points are built only when `interior_points` is first
read (`_meet`), each exact: a `UHPPoint` when rational, else a
`QuadraticPoint` in Q(sqrt D); `pair_counts` counts every pair of a list
from one Gram matrix, and `_iter_pair_counts` yields those counts pair by
pair.  Linkedness reads each boundary point as the integer pair it is,
oo = (1, 0), and is the sign of one product of 2x2 determinants, the
cross-ratio's, with no case for oo or for a shared point.
"""

from __future__ import annotations

import functools
from enum import Enum
from itertools import combinations
from typing import Tuple

from ._rational import Q, isqrt_exact
from ._record import Record
from .errors import InvalidInputError
from .model import (
    Curve,
    CurveKind,
    QuadraticPoint,
    Surd,
    UHPPoint,
    _lorentz,
    _surd_quotient,
)


# ---------------------------------------------------------------------------
# intersection patterns
# ---------------------------------------------------------------------------


class IntersectionPattern(Record):
    """How two curves meet inside the open half-plane.

    interior_count   number of interior intersection points (tangency counts
                     as one point)
    tangent          True when the curves touch without crossing
    shared_endpoints number of common boundary endpoints (0, 1, or 2)
    interior_points  the interior intersection points, in ascending x: a
                     `UHPPoint` when rational, else a `QuadraticPoint`
    equal            True when the two curves coincide (all other fields void)

    The counts come from integer signs alone, and the points are built,
    exactly, when `interior_points` is first read, so both hold for
    coefficients of any size.  `to_record` prints the points' floats.
    """

    __slots__ = ("interior_count", "tangent", "shared_endpoints", "_points", "equal", "_circles")
    _fields = ("interior_count", "tangent", "shared_endpoints", "interior_points", "equal")

    def __init__(self, interior_count: int, tangent: bool, shared_endpoints: int,
                 interior_points: Tuple[UHPPoint, ...], equal: bool = False):
        self.interior_count, self.tangent = interior_count, tangent
        self.shared_endpoints, self._points = shared_endpoints, interior_points
        self.equal = equal

    @property
    def interior_points(self) -> Tuple[UHPPoint, ...]:
        if self._points is None:  # the points of distinct curves, on first read
            self._points = _meet(*self._circles)
        return self._points

    def describe(self) -> str:
        if self.equal:
            return "equal curves"
        tag = "tangent" if self.tangent else "transversal"
        return (
            f"interior_count={self.interior_count} ({tag}), "
            f"shared_endpoints={self.shared_endpoints}"
        )

    def to_record(self) -> dict:
        return {
            "interior_count": self.interior_count,
            "tangent": self.tangent,
            "shared_endpoints": self.shared_endpoints,
            "equal": self.equal,
            "points": [list(p.as_floats()) for p in self.interior_points],
        }


def intersection_pattern(c1: Curve, c2: Curve) -> IntersectionPattern:
    """Interior intersection data for a pair of exact curves; an inexact
    curve is refused.

    Equal curves yield a distinguished pattern with equal=True rather than
    an error.
    """
    if not (c1.exact and c2.exact):
        raise InvalidInputError("intersection patterns need exact curves")
    if c1 == c2:
        return IntersectionPattern(0, False, 0, (), equal=True)
    s1, s2 = c1.circle, c2.circle
    k1, k2 = s1.coeffs(), s2.coeffs()
    counts = _gram_counts(k1, k2, s1.nondegeneracy(), s2.nondegeneracy(), _lorentz(k1, k2))
    pat = IntersectionPattern(*counts, None)
    pat._circles = k1, k2
    return pat


def pair_counts(curves):
    """[(interior_count, tangent, shared_endpoints) of curves i, j for (i, j)
    in combinations(range(n), 2)] for a list of exact curves: the list of
    `_iter_pair_counts`."""
    if not all(c.exact for c in curves):
        raise InvalidInputError("pair_counts needs exact curves")
    return list(_iter_pair_counts(curves))


def _iter_pair_counts(curves):
    """The entries of `pair_counts` one by one, for exact curves: the
    Lorentz Gram matrix of their coefficient vectors is formed entry by
    entry as the pairs are read, its diagonal being the norms each circle
    keeps, so a caller that stops at some pair forms no entry past it.  A
    pair with D2 < 0 misses and is answered here; any other goes to
    `_gram_counts`.  Each entry is what `intersection_pattern` counts for a
    distinct pair; equal curves, whose vectors are equal, get (0, False,
    1)."""
    vectors = [(c.circle._k, c.circle._norm) for c in curves]
    for (v, g11), (w, g22) in combinations(vectors, 2):
        g12 = v[1] * w[1] + v[2] * w[2] - 2 * (v[0] * w[3] + w[0] * v[3])
        if g11 * g22 - g12 * g12 < 0:
            yield 0, False, 0
        else:
            yield _gram_counts(v, w, g11, g22, g12)


def _gram_counts(v, w, g11, g22, g12):
    """(interior_count, tangent, shared_endpoints) of two distinct exact
    circles v and w, from the signs of their Lorentz Gram matrix g
    (`_lorentz`): g11 = <v, v>, g22 = <w, w>, g12 = <v, w>.

    A point (x, y) is the null vector P = (-1, 2x, 2y, -(x^2 + y^2)) up to
    scale, on the circle v iff <v, P> = 0, with <r, P> = 2y for the axis
    r = (0, 0, 1, 0) and <t, P> > 0 for t = (1, 0, 0, 1); oo is (0, 0, 0, -1),
    on every line and on the axis.  D2 = g11 g22 - g12^2 < 0: the circles
    miss.  D2 = 0: they touch at the null vector p = g12 v - g11 w, whose
    height has the sign of -p_c (p_a + p_d).  D2 > 0: they cross at two
    points spanning the complement of v and w, and D3 = Gram det(v, w, r) is
    D2 times the square of r's part there, which is negative iff both points
    lie on one side of the axis and zero iff one lies on it.  That part
    against t, 2S / D2 with S below, then has the sign opposite to the
    heights (Coxeter, "Inversive distance"; Hertrich-Jeromin, "Introduction
    to Moebius Differential Geometry", ch. 1).
    """
    d2 = g11 * g22 - g12 * g12
    if d2 < 0:
        return 0, False, 0
    c1, c2 = v[2], w[2]
    if d2 == 0:
        pc = g12 * c1 - g11 * c2
        if pc == 0:
            return 0, False, 1
        if pc * (g12 * (v[0] + v[3]) - g11 * (w[0] + w[3])) < 0:
            return 1, True, 0
        return 0, False, 0
    # r's projection onto the span of v and w is (u1 v + u2 w) / D2, and S
    # is D2 / -2 times that projection against t
    u1, u2 = g22 * c1 - g12 * c2, g11 * c2 - g12 * c1
    d3 = d2 - (u1 * c1 + u2 * c2)
    if d3 > 0:
        return 1, False, 0
    s = u1 * (v[0] + v[3]) + u2 * (w[0] + w[3])
    if d3 < 0:
        return (2 if s < 0 else 0), False, 0
    return (0, False, 2) if s == 0 else (int(s < 0), False, 1)


def _meet(k1, k2):
    """The meeting points above the axis of the two distinct exact circles
    k1 and k2, in ascending x."""
    a1, b1, c1, d1 = k1
    a2, b2, c2, d2 = k2
    if a1 == 0 and a2 == 0:
        return _line_line((b1, c1, d1), (b2, c2, d2))
    if a1 == 0:
        return _line_circle((b1, c1, d1), k2)
    if a2 == 0:
        return _line_circle((b2, c2, d2), k1)
    # radical line: a2*C1 - a1*C2 vanishes on every common point
    line = (a2 * b1 - a1 * b2, a2 * c1 - a1 * c2, a2 * d1 - a1 * d2)
    return _line_circle(line, k1)


def _line_line(l1, l2):
    (B1, C1, D1), (B2, C2, D2) = l1, l2
    det = B1 * C2 - B2 * C1
    if det == 0:
        return ()
    y = Q(B2 * D1 - B1 * D2, det)
    if y <= 0:
        return ()
    return (UHPPoint(Q(C1 * D2 - C2 * D1, det), y),)


def _line_circle(line, circle):
    """The meeting points above the axis of the line Bx+Cy+D=0 with the
    circle a(x^2+y^2)+bx+cy+d=0 (a > 0), in ascending x.

    Which points there are comes from sign tests alone: the discriminant of
    the quadratic the meeting points solve, then the signs of the product
    and sum of their heights.  A point is a `UHPPoint` when the discriminant
    is a square, and otherwise a `QuadraticPoint` in Q(sqrt(disc)).
    """
    B, C, D = line
    a, b, c, d = circle
    L = B * B + C * C
    if L == 0:
        return ()  # radical line at infinity: concentric circles
    # the meeting points' heights solve q2 y^2 + q1 y + q0 = 0 and their
    # abscissas q2 x^2 + p1 x + p0 = 0; the points are parametrised by the
    # coordinate t the line spreads along (x when |B| <= |C|), the other
    # coordinate u = -(beta t + D) / gamma is read off the line
    q2 = a * L
    q1 = 2 * a * C * D + c * B * B - b * B * C
    q0 = a * D * D - b * B * D + d * B * B
    along_x = abs(B) <= abs(C)
    if along_x:
        t1 = 2 * a * B * D + b * C * C - c * B * C
        t0 = a * D * D - c * C * D + d * C * C
        beta, gamma = B, C
    else:
        t1, t0, beta, gamma = q1, q0, C, B
    disc = t1 * t1 - 4 * q2 * t0
    falling = B * C > 0  # y falls as x grows along the line
    if disc < 0 or q1 >= 0 <= q0:  # no meeting, or none above the axis
        return ()
    if disc == 0:  # one double point, at height -q1 / (2 q2) > 0
        roots = (0,)
    elif q0 > 0:  # two heights of one sign, which q1 < 0 makes positive
        roots = (-1, 1)
    else:  # heights of opposite signs, or one of them 0: one point above
        # t = (-t1 + s sqrt(disc)) / (2 q2) ascends with s (q2 > 0); the
        # lone point is the higher one
        roots = (-1,) if along_x and falling else (1,)
    # t = (-t1 + s sqrt(disc)) / (2 q2), u = (beta t1 - 2 q2 D - s beta
    # sqrt(disc)) / (2 q2 gamma)
    r = isqrt_exact(disc)
    points = []
    for s in roots:
        if r is None:
            point = QuadraticPoint
            t = Surd(-t1, s, disc), 2 * q2  # in lowest terms, as s = +-1
            u = _surd_quotient(beta * t1 - 2 * q2 * D, -s * beta, disc, 2 * q2 * gamma)
        else:
            point = UHPPoint
            t = Q(-t1 + s * r, 2 * q2)
            u = Q(beta * t1 - 2 * q2 * D - s * beta * r, 2 * q2 * gamma)
        points.append(point(t, u) if along_x else point(u, t))
    if not along_x and falling:
        points.reverse()  # ascending x
    return tuple(points)


# ---------------------------------------------------------------------------
# pair taxonomy
# ---------------------------------------------------------------------------


class HypercyclePairType(Enum):
    EQUAL = "equal"
    SAME_ENDPOINTS = "same_endpoints"
    TYPE1 = "type1"  # interior tangency, no shared endpoint
    TYPE2 = "type2"  # one crossing and one shared endpoint
    TYPE3 = "type3"  # one crossing, no shared endpoint
    TYPE4 = "type4"  # two crossings
    DISJOINT = "disjoint"


def hypercycle_pair_type(c1: Curve, c2: Curve) -> HypercyclePairType:
    """Classify the relative position of two hypercycles."""
    for c in (c1, c2):
        if c.kind is not CurveKind.HYPERCYCLE:
            raise InvalidInputError("hypercycle_pair_type needs two hypercycles")
    return pair_type_from_pattern(c1, c2)


def pair_type_from_pattern(c1: Curve, c2: Curve) -> HypercyclePairType:
    """The same taxonomy applied to any pair of curves."""
    pat = intersection_pattern(c1, c2)
    if pat.equal:
        return HypercyclePairType.EQUAL
    if pat.shared_endpoints == 2:
        return HypercyclePairType.SAME_ENDPOINTS
    if pat.tangent:
        return HypercyclePairType.TYPE1
    if pat.interior_count == 2:
        return HypercyclePairType.TYPE4
    if pat.interior_count == 1:
        return (
            HypercyclePairType.TYPE2
            if pat.shared_endpoints == 1
            else HypercyclePairType.TYPE3
        )
    return HypercyclePairType.DISJOINT


def same_endpoints(c1: Curve, c2: Curve) -> bool:
    """Do the two curves have identical boundary endpoint sets?

    Defined for curves with two endpoints (geodesics and hypercycles).
    """
    for c in (c1, c2):
        if c.kind is CurveKind.HOROCYCLE:
            raise InvalidInputError("same_endpoints needs two-endpoint curves")
    pat = intersection_pattern(c1, c2)
    return pat.equal or pat.shared_endpoints == 2


# ---------------------------------------------------------------------------
# horocycle order
# ---------------------------------------------------------------------------


class HorocycleOrder(Enum):
    LESS_OR_EQUAL = "leq"
    GREATER_OR_EQUAL = "geq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def horocycle_leq(h1: Curve, h2: Curve) -> HorocycleOrder:
    """Horoball-containment order.  LESS_OR_EQUAL means horoball(h1) is
    contained in horoball(h2); horocycles at different centers are
    incomparable.

    Horoballs: the closed disk bounded by a finite-center horocycle, and the
    closed region lying above a horizontal-line horocycle (so for center
    infinity a *higher* line bounds a *smaller* horoball).
    """
    for h in (h1, h2):
        if h.kind is not CurveKind.HOROCYCLE:
            raise InvalidInputError("horocycle_leq needs two horocycles")
    if h1.center != h2.center:
        return HorocycleOrder.INCOMPARABLE
    if h1.size == h2.size:
        return HorocycleOrder.EQUAL
    smaller_ball = h1.size > h2.size if h1.center.is_infinity else h1.size < h2.size
    return HorocycleOrder.LESS_OR_EQUAL if smaller_ball else HorocycleOrder.GREATER_OR_EQUAL


# ---------------------------------------------------------------------------
# linkedness of boundary pairs
# ---------------------------------------------------------------------------


def linked(pair1, pair2) -> bool:
    """Are the two boundary pairs linked on the circle at infinity?

    {a, b} and {c, d} (all distinct) are linked when exactly one of c, d
    lies on each arc determined by a and b.  Pairs sharing a point are not
    linked.  With the points as their integer pairs, oo = (1, 0), and
    [u, w] = u0 w1 - u1 w0, that is the cross-ratio's sign
    [c, a][d, b][c, b][d, a] < 0; a shared point makes it 0.
    """
    p, q = tuple(pair1), tuple(pair2)
    if len(p) != 2 or len(q) != 2 or p[0] == p[1] or q[0] == q[1]:
        raise InvalidInputError("linked needs two pairs of distinct points")
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = p + q
    ca, db = c0 * a1 - c1 * a0, d0 * b1 - d1 * b0
    cb, da = c0 * b1 - c1 * b0, d0 * a1 - d1 * a0
    return ca * db * cb * da < 0


def geodesics_linked(g1: Curve, g2: Curve) -> bool:
    """Linkedness of the endpoint pairs of two geodesics (they cross iff linked)."""
    for g in (g1, g2):
        if g.kind is not CurveKind.GEODESIC:
            raise InvalidInputError("geodesics_linked needs geodesics")
    return linked(g1.endpoints, g2.endpoints)


# ---------------------------------------------------------------------------
# betweenness of mutually tangent curves
# ---------------------------------------------------------------------------


def between_tangent(c1: Curve, c2: Curve, c3: Curve) -> int:
    """Of three curves mutually tangent at one interior point, the index
    (0, 1, or 2) of the middle one.

    All on integers, from the Lorentz Gram matrix g of the coefficient
    vectors v_i (`_lorentz`): curves i and j touch iff g_ii g_jj = g_ij^2, at
    the null vector p = g_ij v_i - g_ii v_j, which is an interior point iff
    p_c (p_a + p_d) < 0.  Oriented along v_0 by the sign of g_0i, circles
    tangent at one point are nested there in the order of their signed
    curvatures a_i / sqrt(g_ii) (Coxeter, "Inversive distance"), and the
    middle curve has the middle one.
    """
    curves = (c1, c2, c3)
    if not all(c.exact for c in curves):
        raise InvalidInputError("between_tangent needs exact curves")
    if len({c.circle for c in curves}) != 3:
        raise InvalidInputError("between_tangent needs three distinct curves")
    v = [c.circle.coeffs() for c in curves]
    g = [[_lorentz(u, w) for w in v] for u in v]
    points = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        p = [g[i][j] * s - g[i][i] * t for s, t in zip(v[i], v[j])]
        if g[i][i] * g[j][j] != g[i][j] ** 2 or p[2] * (p[0] + p[3]) >= 0:
            raise InvalidInputError(
                f"curves {i} and {j} are not tangent at an interior point"
            )
        points.append(p)
    p = points[0]  # p_a != 0 at an interior point, which (p_b, p_c) / p_a fixes
    if any(p[0] * q[k] != q[0] * p[k] for q in points[1:] for k in (1, 2)):
        raise InvalidInputError("curves are not all tangent at the same point")
    a = [u[0] if g[0][i] > 0 else -u[0] for i, u in enumerate(v)]

    def compare(i, j):  # the sign of a_i / sqrt(g_ii) - a_j / sqrt(g_jj)
        si, sj = (a[i] > 0) - (a[i] < 0), (a[j] > 0) - (a[j] < 0)
        return si - sj if si != sj else si * (a[i] ** 2 * g[j][j] - a[j] ** 2 * g[i][i])

    return sorted(range(3), key=functools.cmp_to_key(compare))[1]
